(** The differential executor: runs one fuzz input simultaneously
    through the reference machine (the executable ISA spec under the
    virtual configuration) and the VFM emulator, comparing the
    post-state digests after every operation. *)

val create :
  ?inject_bug:Miralis.Config.bug -> ?seed:int64 -> unit -> Mir_verif.Diff.t
(** {!Mir_verif.Diff.create}: [seed] roots the configuration (and so
    the derived PRNG streams); [inject_bug] plants one of the §6.5
    emulator bug classes, used by the tests to prove the fuzzer catches
    and shrinks real bugs. *)

val run : Mir_verif.Diff.t -> Input.t -> Campaign.verdict
(** Execute the input from its regenerated initial state, stopping at
    the first divergence; one (op class x outcome x cause) edge per op
    run. *)

val diverges : Mir_verif.Diff.t -> Input.t -> bool
