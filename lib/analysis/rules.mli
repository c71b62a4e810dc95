(** The rule catalog.

    Each rule carries a stable id (used in diagnostics, [--rule] /
    [--disable] CLI filters, and allowlist entries), a human rationale,
    a scope predicate (which files the rule examines at all), a
    sanctioned-path predicate (files allowed to use the pattern by
    design — the monitor's install paths, the verification harnesses,
    ...), and the AST check itself.

    The catalog (ids are stable; never renumber):

    - ["obj-magic"] — [Obj.magic] is banned outright.
    - ["stdlib-random"] — stdlib [Random] is banned outside
      [lib/util/prng.ml]; all randomness flows from the seeded PRNG.
    - ["csr-write-path"] — [Csr_file.write]/[write_raw]/[set_mip_bits]
      only on the sanctioned install paths.
    - ["satp-raw-install"] — raw satp installs restricted further, to
      the architecture and world-switch/monitor layers.
    - ["machine-step"] — [Machine.step] only in the machine, the
      differs, the benches and the block-engine tests.
    - ["toplevel-mutable"] — no module-top-level mutable state anywhere
      under [lib/]: the fleet shares these modules across domains.
    - ["block-step"] — [Machine.step_blocks] behind the same fence as
      [machine-step].
    - ["domain-capture"] — the race detector: closures passed to
      [Domain.spawn] / [Pool.run] must not mutate (or dereference)
      captured mutable state without an [Atomic]/[Mutex] wrapper.
    - ["determinism"] — wall-clock and host-entropy sources
      ([Sys.time], [Unix.gettimeofday], [Unix.time],
      [Random.self_init], [Domain.self]) are banned outside [bench/].
    - ["race-hook"] — only [lib/explore/] and [test/] may construct a
      [Machine.Raced] engine or call [Race.arm]: injected races stay
      out of production runs. *)

type t = {
  id : string;
  title : string;
  rationale : string;
  applies : string -> bool;
      (** [applies file]: the rule examines this repo-relative file. *)
  sanctioned : string -> bool;
      (** [sanctioned file]: the file may use the pattern by design
          (no diagnostics emitted, no allowlist entry needed). *)
  check : file:string -> Parsetree.structure -> Diagnostic.t list;
}

val all : t list
(** Every rule, in catalog order. *)

val ids : string list

val by_id : string -> t option

val except : string list -> t list
(** [except ids] is [all] without the given rules (for fixture tests
    asserting a rule's diagnostics disappear when it is disabled). *)
