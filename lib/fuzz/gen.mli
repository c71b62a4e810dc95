(** Grammar-based generation and mutation of fuzz inputs.

    Instruction streams are drawn from a weighted privileged-ISA
    grammar (CSR traffic over trap/delegation/PMP/translation state,
    xRET, WFI, environment traps, SFENCE, interrupt-line changes); the
    mutator applies grammar-level havoc plus corpus splicing. All
    randomness flows from the provided PRNG, so a campaign is a pure
    function of the root seed. *)

val max_len : int
(** Inputs shorter than this may grow by mutation ({!Oplist.mutate}). *)

val gen_op : Miralis.Config.t -> Mir_util.Prng.t -> Input.op
val fresh : Miralis.Config.t -> Mir_util.Prng.t -> len:int -> Input.t

val mutate :
  Miralis.Config.t -> Mir_util.Prng.t -> other:(unit -> Input.t) -> Input.t ->
  Input.t
(** {!Oplist.mutate} over the ops; a reseed draws a new state seed. *)
