(** Fuzz inputs: self-contained, replayable test vectors.

    An input is a state seed — the initial architectural sample is
    regenerated deterministically from it, keeping vectors small —
    plus a stream of operations: privileged instructions interleaved
    with interrupt-line changes. Serialized as JSONL (a header line
    then one line per operation, instructions as their 32-bit
    encodings), which is the on-disk corpus and the checked-in
    conformance-vector format. *)

type op =
  | Op_instr of Mir_rv.Instr.t  (** one privileged instruction *)
  | Op_lines of { mtip : bool; msip : bool; meip : bool }
      (** drive the timer/software interrupt lines *)

type t = { seed : int64; ops : op list }

val length : t -> int

val hash : t -> int64
(** {!Campaign.hash} of the encoded vector — stable across runs, the
    corpus file-name key and the determinism-check key. *)

val equal : t -> t -> bool

val pp_op : Format.formatter -> op -> unit
val pp : Format.formatter -> t -> unit

val to_jsonl : t -> string
val of_jsonl : string -> (t, string) result
