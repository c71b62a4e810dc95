(** The simulated RISC-V machine: harts, bus, devices, interpreter.

    This module is the executable ISA specification: it implements
    instruction fetch/decode/execute, privilege checking, PMP
    enforcement, Sv39 translation, trap taking with delegation, and
    interrupt delivery — the [hw : C × S × I → S] transition function
    of the paper's §6.1.

    The key extension point for the VFM is {!field:t.mmode_hook}: when
    set, a trap whose architectural target is M-mode updates the
    M-level CSRs exactly as hardware would and then invokes the hook
    instead of redirecting to [mtvec]. The hook — Miralis — is thus the
    machine's M-mode software, without the OCaml runtime having to run
    on the simulated CPU (see DESIGN.md, substitution table). *)

type config = {
  csr_config : Csr_spec.config;
  nharts : int;
  ram_base : int64;
  ram_size : int;
  cycles_per_tick : int;  (** CPU cycles per mtime tick *)
  hw_misaligned : bool;  (** hardware performs misaligned accesses *)
  trap_penalty : int;  (** pipeline cost of taking any trap *)
  xret_penalty : int;  (** pipeline cost of mret/sret *)
  mmio_penalty : int;  (** uncached device access cost *)
  tlb_entries : int;
      (** per-hart software-TLB slots (default 256; 0 disables the TLB
          and the fetch-page cache, leaving the raw walker) *)
}

val default_config : config
(** One hart, 16 MiB of RAM at 0x8000_0000, CLINT/PLIC/UART mapped at
    their conventional addresses, misaligned accesses trapping (like
    the VisionFive 2). *)

(** Injectable cross-hart race windows (schedule explorer, lib/explore).
    Each defect delays one cross-hart propagation step — the remote TLB
    shootdown of an sfence, the physical MSIP kick behind a vCLINT IPI,
    the sibling reinstall of a policy PMP handoff, the PMP
    re-protection of a confidential VM whose hart was just returned to
    the OS — by {!race_window} global steps, opening an inconsistency
    window that only a preemptive schedule can observe. *)
type race_bug =
  | Delayed_vm_epoch
  | Dropped_msip
  | Pmp_handoff_window
  | Ace_stale_ownership

type t = {
  config : config;
  harts : Hart.t array;
  bus : Bus.t;
  clint : Clint.t;
  plic : Plic.t;
  uart : Uart.t;
  mutable blockdev : Blockdev.t option;
  mutable nic : Nic.t option;
  blocks : Block.cache;
      (** the decode cache: decoded words and the basic blocks built
          from them, in one sparse record per 4 KiB RAM page,
          physically indexed; see DESIGN.md §11 *)
  mutable block_engine : bool;
      (** whether {!run} and {!run_scheduled} execute through the
          decoded basic-block engine ({!step_blocks}) rather than the
          per-instruction interpreter ({!step}); true on creation, set
          with {!set_block_engine} *)
  mutable mmode_hook : (t -> Hart.t -> Cause.t -> unit) option;
  mutable on_trap :
    (t -> Hart.t -> Cause.t -> from_priv:Priv.t -> to_m:bool -> unit) option;
      (** observation hook fired on every trap, for statistics *)
  mutable on_csr_write : (t -> Hart.t -> int -> int64 -> unit) option;
      (** fired after every architectural CSR write executed by a
          guest instruction, with the legalized stored value *)
  mutable on_mmio :
    (t -> Hart.t -> write:bool -> addr:int64 -> size:int -> value:int64 ->
     unit)
    option;
      (** fired after every successful device (non-RAM) load/store *)
  mutable on_chunk : (t -> unit) option;
      (** fired at every device-sync point of {!run} and
          {!run_scheduled}, after device polling — used by the
          checkpoint layer *)
  mutable poweroff : bool;
  mutable instr_count : int;
      (** total machine steps retired (plain [int]: unboxed updates;
          63 bits outlast any simulation) *)
  mutable race_bug : race_bug option;
      (** armed race-window injection; [None] (the default) leaves
          every propagation step atomic as before *)
  mutable deferred : deferred list;
      (** pending cross-hart propagation actions; ticked once per
          global step of {!run}/{!run_scheduled} (not by a bare
          {!step}), empty unless a race bug is armed *)
}

and deferred = { mutable ticks : int; action : t -> unit }

val create : config -> t
val attach_blockdev : t -> capacity_sectors:int -> latency_ticks:int64 -> Blockdev.t
val attach_nic : t -> Nic.t

val phys_load : t -> int64 -> int -> int64 option
(** Unchecked physical access (used by loaders and by the VFM, which
    conceptually runs in M-mode). *)

val phys_store : t -> int64 -> int -> int64 -> bool

val load_program : t -> int64 -> bytes -> unit
(** Copy a program image into RAM and flush the decode cache. *)

val translate :
  t -> Hart.t -> priv:Priv.t -> Vmem.access -> int64 ->
  (int64, Cause.exc) result
(** Sv39 translation using the hart's satp/mstatus context. *)

val pending_interrupt : t -> Hart.t -> Cause.intr option
(** The interrupt the hart would take next, per the architectural
    enable/delegation/priority rules (exposed for the verifier). *)

val step : t -> Hart.t -> unit
(** Execute one instruction (or deliver one interrupt / idle one
    quantum in WFI). Deferred race actions are not ticked here: the
    drivers tick them between steps. *)

val step_blocks : t -> Hart.t -> budget:int -> int
(** Consume up to [budget] machine steps through the decoded
    basic-block engine and return the number consumed (at least 1 on
    a live, non-powered-off machine). Returns early, right after a
    step that ends in trap entry or defers a race action. Bit-exact
    with calling {!step} the same number of times — architectural
    state, cycles, instret and the global instruction count all agree
    at every step boundary; only cache statistics differ. Exposed for
    the differential harness (lib/verif) and the benchmark; lint rule
    7 keeps other layers on {!run}/{!run_scheduled}. *)

val block_stats : t -> Block.stats
(** Lifetime block-cache counters for this machine. *)

val block_hit_rate : t -> float
(** Fraction of block-engine-retired instructions that came from
    compiled blocks (0 when the engine never ran). *)

val set_block_engine : t -> bool -> unit
(** Toggle the engine used by {!run} and {!run_scheduled}; flushing is
    unnecessary because blocks are built from the same decoded words
    the interpreter fetches. The engine needs the fetch-page cache
    ([tlb_entries > 0]) to ever hit; without it every step falls back
    to the interpreter. *)

val charge : Hart.t -> int -> unit
(** Add cost-model cycles to a hart. *)

val resume : Hart.t -> pc:int64 -> priv:Priv.t -> unit
(** Redirect a hart (used by the VFM when returning from emulation). *)

val run : ?max_instrs:int64 -> t -> unit
(** Run all harts round-robin, 32 steps per hart slice with device
    time synced after each round, until power-off, all harts halt, or
    the instruction budget is exhausted (checked between rounds).
    Every slice goes through the same internal [advance] as
    {!run_scheduled}: the engine chosen by {!set_block_engine}, with
    deferred race actions ticked once per step. *)

val run_scheduled :
  ?max_steps:int -> next:(t -> step:int -> last:int -> int * int) -> t -> int
(** Run under an external scheduler and return the steps consumed.
    [next t ~step ~last] returns [(hart, k)]: run [hart] for [k] steps,
    given the [step]s consumed so far and the hart [last] run (-1
    before the first segment). A segment ends early, and [next] is
    consulted again, right after a step that ends in trap entry, or
    when the hart halts; it is cut without consulting [next] at the
    device-sync points, every [32 * nharts] steps ({!run}'s cadence).
    Each piece runs through the same internal [advance] as {!run}, so
    a schedule preempts at exact step counts whichever engine is
    selected. [next] should return a non-halted hart; a halted or
    out-of-range hart steps nothing but consumes one step. [next] may
    raise to abort the run. *)

val race_window : int
(** Width, in global steps, of every injected race window. *)

val defer : t -> ticks:int -> (t -> unit) -> unit
(** Schedule an action to run at the start of the [ticks]-th next
    machine step (any hart) of {!run}/{!run_scheduled}. Used by the
    race-bug injections to model delayed cross-hart propagation. *)

val all_halted : t -> bool

val flush_icache : t -> unit
(** Drop all decoded state: every decoded word and block ([fence.i],
    remote fences, program load, snapshot restore). Costs O(pages
    decoded since the last flush), not O(RAM). *)

val invalidate_icache : t -> int64 -> int -> unit
(** [invalidate_icache t addr size]: bytes were written at a physical
    range, so drop the decoded words it covers and every block on
    their pages. Guest stores take this path; so does the verifier,
    which patches instructions directly. *)

val sfence_vma : t -> ?from:int -> ?vaddr:int64 -> unit -> unit
(** Architectural [sfence.vma] over the software TLBs of all harts:
    global without [vaddr], per-vpage with it. [from] names the
    fencing hart; it changes nothing architecturally, but under the
    Delayed_vm_epoch injected bug the cross-hart shootdown (every hart
    but [from]) lands {!race_window} steps late. *)

val flush_tlbs : t -> unit
(** Flush every hart's TLB and fetch-page cache (checkpoint restore,
    external state surgery). *)

val tlb_totals : t -> int * int * int
(** Aggregate TLB (hits, misses, flushes) over all harts. *)

val resolve : t -> Hart.t -> priv:Priv.t -> Vmem.access -> int64 -> int -> int64
(** Translate + PMP-check one access, through the TLB; raises
    [Cause.Trap] on fault. Exposed for the paging differential
    harness. *)

val vload : t -> Hart.t -> int64 -> int -> signed:bool -> int64
(** Virtual load at the hart's effective privilege; raises
    [Cause.Trap] on fault. *)

val vstore : t -> Hart.t -> int64 -> int -> int64 -> unit
(** Virtual store at the hart's effective privilege; raises
    [Cause.Trap] on fault. *)
