(** The explorer's injectable cross-hart races: each delays the remote
    half of one cross-hart propagation ({!Mir_rv.Machine.site}) by
    {!window} global steps, a window only a preemptive schedule can
    observe. *)

type bug =
  | Delayed_vm_epoch  (** the remote TLB shootdown of an sfence.vma *)
  | Dropped_msip
      (** the MSIP kick of a target preempted mid-trap *)
  | Pmp_handoff_window  (** the sibling PMP reinstall of a handoff *)
  | Ace_stale_ownership
      (** the re-protection of a returned confidential VM *)

val window : int
(** Width, in global steps, of every injected race window. *)

val arm : Mir_rv.Machine.t -> bug -> unit
(** Make the machine's engine [Raced] by [bug]: from now on it
    single-steps, and each site the bug names runs its action at the
    start of the {!window}-th step after the one that reached it. *)
