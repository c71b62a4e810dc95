(** The schedule explorer: run scenarios under pluggable schedulers,
    check the cross-hart oracles at every switch point, and turn any
    violation into a shrunk, replayable schedule artifact. *)

type outcome = {
  violation : Oracle.violation option;
  steps : int;
      (** global steps consumed (when a violation stops the run: the
          step of the switch point that caught it) *)
  switches : (int * int) list;  (** recorded (step, hart), ascending *)
  trap_points : int;  (** switches taken right after a trap entry *)
}

val run_once :
  Scenario.instance -> sched:Sched.t -> ?max_steps:int -> unit -> outcome
(** One schedule on a fresh instance: runs of halted harts are
    remapped to the next runnable hart, every switch is recorded and
    oracle-checked, and the run stops at the first violation. *)

val bug_name : Mir_rv.Machine.race_bug -> string
val bug_of_name : string -> (Mir_rv.Machine.race_bug option, string) result
val scenario_for_bug : Mir_rv.Machine.race_bug -> Scenario.t

val build :
  Scenario.t ->
  ?bug:Mir_rv.Machine.race_bug ->
  nharts:int ->
  seed:int64 ->
  unit ->
  Scenario.instance
(** Build a scenario instance and arm the injected bug, if any. *)

type family = Rr | Random | Pct | Dfs

val family_name : family -> string
val family_of_name : string -> (family, string) result

type campaign = {
  family : family;
  schedules_run : int;
  steps_total : int;
  trap_points_total : int;
  switch_counts : int list;  (** per-schedule switch counts *)
  caught : (Oracle.violation * Mir_trace.Schedule.t) option;
      (** first violation, with its (unshrunk) schedule *)
}

val run_family :
  Scenario.t ->
  ?bug:Mir_rv.Machine.race_bug ->
  family:family ->
  seed:int64 ->
  max_schedules:int ->
  nharts:int ->
  unit ->
  campaign
(** Run one scheduler family against a scenario until a violation is
    caught or the schedule budget is exhausted. Every schedule's
    randomness is derived from [seed] and the schedule index, so a
    campaign is deterministic. *)

val replay : Mir_trace.Schedule.t -> (outcome, string) result
(** Replay a schedule artifact on a fresh instance of its scenario. *)

val reproduces : Mir_trace.Schedule.t -> outcome -> bool
(** Does the replayed outcome reproduce the schedule's verdict? *)

val shrink : ?attempts:int -> Mir_trace.Schedule.t -> Mir_trace.Schedule.t
(** Minimize a failing schedule: a bounded-preemption re-search (2..7
    switches, deterministically seeded) followed by a ddmin pass over
    the surviving switch tail (the PR 2 shrinker). Every candidate is
    validated by full replay; the result reproduces the original
    oracle violation. *)
