(** Explorer workload scenarios.

    Each scenario is a small multi-hart system (MiniSBI + interpreter
    kernel under Miralis) whose workload keeps one class of cross-hart
    invariant under pressure, plus the oracles that watch it. A build
    is a pure function of (nharts, seed), so a schedule replayed
    against the same pair reproduces bit-identically. *)

type instance = {
  system : Mir_harness.Setup.system;
  mir : Miralis.Monitor.t;
  oracles : Oracle.t list;
  on_switch : step:int -> unit;
      (** scenario action at a hart-switch point (e.g. the sfence
          scenario's fenced PTE flip); runs after the oracles *)
  max_steps : int;  (** default step budget for one schedule *)
}

type t = {
  name : string;
  descr : string;
  bug : Race.bug option;
      (** the injected race this scenario is designed to surface *)
  build : nharts:int -> seed:int64 -> instance;
}

val ipi : t
(** IPI broadcast vs offloaded traps (MSIP delivery ordering). *)

val sfence : t
(** Concurrent PTE flip + remote fence (TLB epoch coherence). *)

val keystone : t
(** Enclave lifecycle vs OS sibling (PMP handoff isolation). *)

val ace : t
(** Confidential-VM steal/return vs OS sibling (ownership isolation). *)

val all : t list
val find : string -> t option
