(** The ACE policy (paper §5.4): confidential VMs as a policy module.

    A port of the ACE security monitor's core protocol onto Miralis,
    following the paper's co-location approach: the policy manages the
    confidential-VM lifecycle and context switches itself, yielding to
    Miralis only when the firmware is involved. The host hypervisor
    stays responsible for scheduling (run_vcpu / exits), but has no
    access to CVM memory — and, unlike stock ACE, neither does the
    vendor firmware, which Miralis deprivileges underneath.

    Memory ownership is page-granular: [fid_promote] claims every
    4 KiB page of the candidate region, and a region sharing any page
    with a live CVM is rejected. Hart ownership follows ACE's two-flow
    FSM: [fid_run_vcpu] *steals* the calling hart for the CVM (the
    heavy non-confidential→confidential context switch, charged as
    {!Miralis.Cost.t.ace_steal} and counted in
    {!Miralis.Vfm_stats.t.ace_steals}), and every exit — teecall or
    interrupt — *returns* it (charged as ace_return). A CVM vcpu may
    be stolen by any hart, but only when no hart currently owns it:
    ownership transfer is the synchronization point, so a Running CVM
    refuses both run_vcpu and destroy with [-3].

    Each CVM carries a shadow copy of the supervisor CSR set (the
    VS-context): on entry the host's S-level CSRs are swapped out and
    the CVM's swapped in, mirroring how ACE shadows VS-mode state.
    Exits return an exit reason to the host; interrupted CVMs are
    resumable. Destroyed CVM memory is scrubbed before release. *)

val ext_covh : int64
(** SBI extension ID ("COVH"). *)

val fid_tsm_info : int64
val fid_promote : int64
(** a0 = base, a1 = size, a2 = entry -> cvm id *)

val fid_run_vcpu : int64
(** a0 = id -> (0, exit_value) | (-4, 0) on irq *)

val fid_destroy : int64

val err_interrupted : int64

val page_size : int64
(** Ownership granularity (4 KiB). *)

type cvm_state = Ready | Running | Interrupted | Destroyed

type cvm = {
  id : int;
  base : int64;
  size : int64;
  entry : int64;
  mutable state : cvm_state;
  mutable owner : int option;
      (** the hart currently stolen for this CVM's vcpu; [Some] iff
          [state = Running] *)
  mutable leaked : bool;
      (** true only while an armed race delays this CVM's
          [Cvm_reprotect] site: the CVM's deny entry is omitted from
          rebuilt PMPs until the re-protection lands *)
}

type state = {
  mutable cvms : cvm list;
  mutable vcpu_entries : int;
  mutable vm_exits : int;
  owned : (int64, int) Hashtbl.t;
      (** page base -> id of the live CVM owning it *)
}

val vs_context_csrs : int list
(** The supervisor CSRs shadowed per CVM (the VS-context), exposed for
    the suspend/resume round-trip tests. *)

val pmp_slots : int
val create : unit -> Miralis.Policy.t * state
