(** The block-engine fuzz dimension: generated guest programs —
    pure-ALU runs, tight loops, mid-block traps, self-modifying
    stores, vm-epoch-bumping CSR writes, fence.i — executed by the
    decoded basic-block engine against the per-instruction
    interpreter in lockstep, via {!Mir_verif.Blockdiff}. *)

include Campaign.S with type case = Mir_verif.Blockdiff.case

val gen_case : Mir_util.Prng.t -> Mir_verif.Blockdiff.case
(** One generated case (exposed for the step-count tests). *)
