(** Pluggable hart schedulers for [Machine.run_scheduled].

    A scheduler is a (possibly stateful) run-length function: given the
    machine, the global step counter and the hart that ran last, it
    returns the hart to run next and for how many steps. The run ends
    early at the hart's next trap entry (or halt), where the scheduler
    is asked again, so round-robin, PCT and switch-list replay keep
    their exact per-step meaning. All randomness comes from an
    explicit [Mir_util.Prng.t], so a scheduler replays bit-identically
    from its seed. *)

type t = { next : Mir_rv.Machine.t -> step:int -> last:int -> int * int }

val round_robin : ?slice:int -> nharts:int -> unit -> t
(** Fixed time slices, hart 0 first — the cadence [Machine.run]
    itself uses; the explorer's deliberately-blind baseline. *)

val random :
  ?avg_slice:int ->
  ?max_switches:int ->
  ?start_step:int ->
  prng:Mir_util.Prng.t ->
  nharts:int ->
  unit ->
  t
(** Seeded random walk; the switch probability jumps to 1/2 right
    after a trap entry ([Hart.just_trapped]) and is 1/[avg_slice]
    ([>= 1]) per step otherwise, drawn as one geometric run length.
    [max_switches] bounds the number of preemptions and [start_step]
    delays the first one — the shrinker's knobs. *)

val pct : ?events:int -> ?depth:int -> prng:Mir_util.Prng.t -> nharts:int -> unit -> t
(** PCT-style priority schedule (Burckhardt et al.): random hart
    priorities with [depth] demotions at distinct, randomly chosen
    trap-entry events among the first [events] (so at most [events]
    demotions); probes all bugs of preemption depth <= [depth]. *)

val dfs_schedules :
  nharts:int ->
  horizon:int ->
  grid:int ->
  max_switches:int ->
  (int * int) list Seq.t
(** Exhaustive small-bound enumeration: every schedule whose switches
    sit on a coarse step grid, up to [max_switches] switches within
    [horizon] steps. Finite and deterministic; each element feeds
    {!of_switches}. *)

val of_switches : (int * int) list -> t
(** Replay a recorded [(step, hart)] switch list: from each switch
    point onward run that hart, up to the next switch point. *)
