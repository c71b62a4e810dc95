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

(** The cross-hart propagation points an armed machine may delay: the
    schedule explorer (lib/explore) injects its races here. Each names
    the remote half of one cross-hart update, whose acting hart's own
    half always lands at the site: the TLB shootdown of the harts other
    than an sfence's issuer; the physical MSIP kick of hart [h] behind
    a virtual IPI posted by another hart; the sibling PMP reinstall of
    a policy handoff; the PMP re-protection of a confidential VM whose
    hart was just returned to the OS. *)
type site = Remote_shootdown | Msip_kick of int | Pmp_reinstall | Cvm_reprotect

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
  mutable engine : engine;
      (** what {!run} and {!run_scheduled} execute through; [Blocks] on
          creation, switched with {!set_block_engine} *)
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
}

(** [engine] is what {!run} and {!run_scheduled} execute through:
    [Blocks], the decoded basic-block engine ({!step_blocks}); [Interp],
    the per-instruction interpreter ({!step}); or [Raced], armed by the
    schedule explorer: the interpreter, one step per engine call, with
    [tick] called before each step of {!run}/{!run_scheduled} (not by a
    bare {!step}). [delay t site action] is [true] iff the race takes
    [action] to run later. *)
and engine = Blocks | Interp | Raced of race

and race = { tick : t -> unit; delay : t -> site -> (t -> unit) -> bool }

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
    quantum in WFI). An armed race is not ticked here: the drivers
    tick it before each step. *)

val step_blocks : t -> Hart.t -> budget:int -> int
(** Consume up to [budget] machine steps through the decoded
    basic-block engine and return the number consumed (at least 1 on
    a live, non-powered-off machine). Returns early, right after a
    step that ends in trap entry. Bit-exact
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
(** Choose [Blocks] or [Interp] for {!run} and {!run_scheduled};
    flushing is unnecessary because blocks are built from the same
    decoded words the interpreter fetches. The block engine needs the
    fetch-page cache ([tlb_entries > 0]) to ever hit; without it every
    step falls back to the interpreter. No effect on a [Raced]
    machine, which single-steps whatever was chosen before. *)

val charge : Hart.t -> int -> unit
(** Add cost-model cycles to a hart. *)

val resume : Hart.t -> pc:int64 -> priv:Priv.t -> unit
(** Redirect a hart (used by the VFM when returning from emulation). *)

val run : ?max_instrs:int64 -> t -> unit
(** Run all harts round-robin, 32 steps per hart slice with device
    time synced after each round, until power-off, all harts halt, or
    the instruction budget is exhausted (checked between rounds).
    Every slice goes through the same internal [advance] as
    {!run_scheduled}, a single match on {!field:t.engine}. *)

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

val delay : t -> site -> (t -> unit) -> bool
(** [delay t site action]: offer the remote half of a cross-hart update
    to an armed race. [true] means the race took [action] and will run
    it later; [false] (always, unless [Raced]) means the caller must
    run it now. *)

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
    fencing hart, flushed at once; the shootdown of every other hart
    is then a [Remote_shootdown] {!delay} site. *)

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
