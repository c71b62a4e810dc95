(** The core fuzz dimension: coverage-guided differential campaigns of
    the VFM emulator against the reference machine ({!Exec}), over
    {!Gen}'s privileged-ISA grammar, with {!Vectors} as built-ins.
    [inject_bug] plants one of the §6.5 emulator bug classes. *)

include Campaign.S with type case = Input.t and type ctx = Mir_verif.Diff.t
