(* Schedule-explorer regression tests.

   The checked-in artifacts under test/schedules/ are shrunk failing
   schedules for the four injected race bugs; replaying each one must
   reproduce its recorded oracle violation deterministically, and each
   must stay small (<= 8 preemption points). The round-robin baseline
   must stay blind to all four bugs — that asymmetry is the whole
   point of the explorer. Every schedule must also run bit-identically
   on the block engine and on the interpreter. *)

module Explore = Mir_explore.Explore
module Scenario = Mir_explore.Scenario
module Oracle = Mir_explore.Oracle
module Schedule = Mir_trace.Schedule
module Shrink = Mir_fuzz.Shrink
module Machine = Mir_rv.Machine
module Hart = Mir_rv.Hart
module Sched = Mir_explore.Sched
module Setup = Mir_harness.Setup
module Config = Miralis.Config

let schedule_files =
  Sys.readdir "schedules" |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".jsonl")
  |> List.sort compare

let load_schedule file =
  match Schedule.load ~path:(Filename.concat "schedules" file) with
  | Ok sch -> sch
  | Error e -> Alcotest.failf "%s: %s" file e

let test_replay_reproduces file () =
  let sch = load_schedule file in
  Alcotest.(check bool)
    "artifact is shrunk (<= 8 preemption points)" true
    (Schedule.preemption_points sch <= 8);
  match Explore.replay sch with
  | Error e -> Alcotest.failf "replay failed: %s" e
  | Ok o ->
      Alcotest.(check bool) "violation reproduced" true
        (Explore.reproduces sch o);
      (match o.Explore.violation with
      | Some v ->
          Alcotest.(check string) "same oracle" sch.Schedule.oracle
            v.Oracle.oracle
      | None -> Alcotest.fail "replay produced no violation");
      (* determinism: a second fresh replay lands on the same step *)
      (match Explore.replay sch with
      | Ok o2 ->
          Alcotest.(check int) "deterministic step count" o.Explore.steps
            o2.Explore.steps
      | Error e -> Alcotest.failf "second replay failed: %s" e)

(* Round-robin never catches any injected bug: its switch points are
   periodic, never adjacent to the trap windows the bugs need. *)
let test_round_robin_blind bug () =
  let scn = Explore.scenario_for_bug bug in
  let c =
    Explore.run_family scn ~bug ~family:Explore.Rr ~seed:Config.default_seed
      ~max_schedules:1 ~nharts:2 ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "round-robin misses %s" (Explore.bug_name bug))
    true
    (c.Explore.caught = None)

(* The preemptive families are the other half of the asymmetry: they
   must find each injected bug within a modest schedule budget, and by
   an oracle that watches its window. *)
let test_preemptive_catches family bug oracles () =
  let scn = Explore.scenario_for_bug bug in
  let c =
    Explore.run_family scn ~bug ~family ~seed:Config.default_seed
      ~max_schedules:50 ~nharts:2 ()
  in
  match c.Explore.caught with
  | Some (v, _) ->
      Alcotest.(check bool) ("caught by " ^ v.Oracle.oracle) true
        (List.mem v.Oracle.oracle oracles)
  | None ->
      Alcotest.failf "%s missed %s in %d schedules"
        (Explore.family_name family) (Explore.bug_name bug)
        c.Explore.schedules_run

(* PCT draws its [depth] change points without replacement: with as
   many change points as events, every trap entry demotes the running
   hart. The seeds are ones whose draws collide, so sampling with
   replacement would demote fewer times. *)
let test_pct_depth () =
  let m =
    Machine.create { Machine.default_config with Machine.nharts = 4 }
  in
  List.iter
    (fun seed ->
      let sched =
        Sched.pct ~events:3 ~depth:3 ~prng:(Mir_util.Prng.create ~seed)
          ~nharts:4 ()
      in
      let cur = ref (fst (sched.Sched.next m ~step:0 ~last:(-1))) in
      let demotions = ref 0 in
      for step = 1 to 5 do
        let h = m.Machine.harts.(!cur) in
        h.Hart.just_trapped <- true;
        let next = fst (sched.Sched.next m ~step ~last:!cur) in
        h.Hart.just_trapped <- false;
        if next <> !cur then incr demotions;
        cur := next
      done;
      Alcotest.(check int)
        (Printf.sprintf "seed %Ld: demotions" seed)
        3 !demotions)
    [ 1L; 2L; 4L; 5L ]

(* Without any injected bug every scenario is oracle-clean under the
   random schedules too — the oracles have no false positives. *)
let test_no_bug_clean scn () =
  List.iter
    (fun family ->
      let c =
        Explore.run_family scn ~family ~seed:Config.default_seed
          ~max_schedules:5 ~nharts:2 ()
      in
      match c.Explore.caught with
      | None -> ()
      | Some (v, _) ->
          Alcotest.failf "%s/%s: spurious %s violation" scn.Scenario.name
            (Explore.family_name family) v.Oracle.oracle)
    [ Explore.Rr; Explore.Random ]

(* ------------------------------------------------------------------ *)
(* Engine A/B: a schedule is the same schedule on either engine        *)
(* ------------------------------------------------------------------ *)

(* Run one schedule on a fresh instance with the block engine on or
   off, and keep everything its verdict and end state consist of. *)
let run_on ~engine (scn : Scenario.t) ?bug ~seed ?max_steps sched =
  let inst = Explore.build scn ?bug ~nharts:2 ~seed () in
  Machine.set_block_engine inst.Scenario.system.Setup.machine engine;
  let o = Explore.run_once inst ~sched:(sched ()) ?max_steps () in
  ( o.Explore.steps,
    o.Explore.switches,
    Option.map
      (fun v -> (v.Oracle.oracle, v.Oracle.hart, v.Oracle.detail))
      o.Explore.violation,
    Setup.state_hash inst.Scenario.system )

let check_engines label run =
  let steps1, sw1, v1, h1 = run ~engine:true in
  let steps0, sw0, v0, h0 = run ~engine:false in
  Alcotest.(check int) (label ^ ": steps") steps0 steps1;
  Alcotest.(check (list (pair int int))) (label ^ ": switches") sw0 sw1;
  Alcotest.(check (option (triple string int string)))
    (label ^ ": violation") v0 v1;
  Alcotest.(check int64) (label ^ ": state hash") h0 h1

let test_engine_ab_schedules () =
  List.iter
    (fun file ->
      let sch = load_schedule file in
      let scn = Option.get (Scenario.find sch.Schedule.scenario) in
      let bug =
        Option.bind sch.Schedule.bug (fun n ->
            Result.get_ok (Explore.bug_of_name n))
      in
      check_engines file (fun ~engine ->
          run_on ~engine scn ?bug ~seed:sch.Schedule.seed
            ~max_steps:sch.Schedule.steps (fun () ->
              Sched.of_switches sch.Schedule.switches)))
    schedule_files

(* Random and PCT schedules over eight build seeds, with and without
   the scenario's race armed. *)
let test_engine_ab_sweep (scn : Scenario.t) () =
  List.iter
    (fun bug ->
      for i = 0 to 7 do
        let seed = Int64.add Config.default_seed (Int64.of_int i) in
        let prng kind = Config.derive seed ("engine-ab:" ^ kind) in
        let label kind =
          Printf.sprintf "%s/%s/%s/%d" scn.Scenario.name
            (match bug with None -> "none" | Some b -> Explore.bug_name b)
            kind i
        in
        check_engines (label "random") (fun ~engine ->
            run_on ~engine scn ?bug ~seed (fun () ->
                Sched.random ~prng:(prng "random") ~nharts:2 ()));
        check_engines (label "pct") (fun ~engine ->
            run_on ~engine scn ?bug ~seed (fun () ->
                Sched.pct ~depth:(1 + (i mod 3)) ~prng:(prng "pct") ~nharts:2
                  ()))
      done)
    [ None; scn.Scenario.bug ]

(* Deferred race actions tick once per global step, before it, on
   either engine. A 2-hart bare machine runs hart 0 alone through
   [sfence.vma; 6 x addi; j back] in one long segment. *)
let deferral_machine ~engine ?bug () =
  let m =
    Machine.create
      {
        Machine.default_config with
        Machine.ram_size = 64 * 1024;
        nharts = 2;
      }
  in
  Machine.set_block_engine m engine;
  m.Machine.race_bug <- bug;
  let words =
    Mir_rv.Instr.(
      (Sfence_vma (0, 0) :: List.init 6 (fun _ -> Op_imm (Addi, 5, 5, 1L)))
      @ [ Jal (0, -28L) ])
  in
  let img = Bytes.create (4 * List.length words) in
  List.iteri
    (fun i w ->
      Bytes.set_int32_le img (4 * i) (Int32.of_int (Mir_rv.Encode.encode w)))
    words;
  let base = m.Machine.config.Machine.ram_base in
  Machine.load_program m base img;
  Hart.reset m.Machine.harts.(0) ~pc:base;
  m.Machine.harts.(1).Hart.halted <- true;
  m

let hart0 _ ~step:_ ~last:_ = (0, max_int)

let test_deferral_timing () =
  List.iter
    (fun engine ->
      let label = if engine then "engine" else "interpreter" in
      (* an action deferred by 3 ticks runs before the third step *)
      let m = deferral_machine ~engine () in
      let fired = ref (-1) in
      Machine.defer m ~ticks:3 (fun m -> fired := m.Machine.instr_count);
      ignore (Machine.run_scheduled m ~max_steps:10 ~next:hart0);
      Alcotest.(check int) (label ^ ": fired after two steps") 2 !fired;
      (* the shootdown each guest sfence.vma defers under
         Delayed_vm_epoch reaches hart 1 after exactly as many steps
         within one segment as in a run of one-step segments *)
      let remote_flushes m =
        Mir_rv.Tlb.flushes m.Machine.harts.(1).Hart.tlb
      in
      let reference =
        let m = deferral_machine ~engine ~bug:Machine.Delayed_vm_epoch () in
        List.init 30 (fun _ ->
            ignore (Machine.run_scheduled m ~max_steps:1 ~next:hart0);
            remote_flushes m)
      in
      let segment =
        List.init 30 (fun n ->
            let m =
              deferral_machine ~engine ~bug:Machine.Delayed_vm_epoch ()
            in
            ignore (Machine.run_scheduled m ~max_steps:(n + 1) ~next:hart0);
            remote_flushes m)
      in
      Alcotest.(check bool)
        (label ^ ": shootdowns land") true
        (List.nth reference 29 >= 3);
      Alcotest.(check (list int))
        (label ^ ": shootdown steps")
        reference segment)
    [ true; false ]

(* The PR 2 shrinker underlying ddmin_tail: pinned head, minimal
   failing subset otherwise. *)
let test_ddmin_unit () =
  let items = List.init 10 (fun i -> i + 1) in
  let still_fails l = List.mem 3 l && List.mem 7 l in
  Alcotest.(check (list int))
    "minimal subset (head pinned)" [ 1; 3; 7 ]
    (Shrink.ddmin ~still_fails items)

let () =
  Alcotest.run "explore"
    [
      ( "replay",
        List.map
          (fun file ->
            Alcotest.test_case file `Slow (test_replay_reproduces file))
          schedule_files );
      ( "round-robin blind",
        List.map
          (fun bug ->
            Alcotest.test_case (Explore.bug_name bug) `Slow
              (test_round_robin_blind bug))
          [
            Machine.Dropped_msip;
            Machine.Delayed_vm_epoch;
            Machine.Pmp_handoff_window;
            Machine.Ace_stale_ownership;
          ] );
      ( "preemptive schedulers catch",
        List.map
          (fun (family, bug, oracles) ->
            Alcotest.test_case
              (Printf.sprintf "%s catches %s"
                 (Explore.family_name family) (Explore.bug_name bug))
              `Slow
              (test_preemptive_catches family bug oracles))
          Machine.
            [
              (Explore.Random, Ace_stale_ownership, [ "cvm-confidential" ]);
              (Explore.Pct, Ace_stale_ownership, [ "cvm-confidential" ]);
              (Explore.Random, Delayed_vm_epoch, [ "sfence-coherence" ]);
              (Explore.Random, Dropped_msip, [ "msip-delivery" ]);
              ( Explore.Random,
                Pmp_handoff_window,
                [ "isolation"; "pmp-owner" ] );
            ] );
      ( "pct",
        [ Alcotest.test_case "distinct change points" `Quick test_pct_depth ]
      );
      ( "engine A/B",
        Alcotest.test_case "checked-in schedules" `Slow
          test_engine_ab_schedules
        :: Alcotest.test_case "deferred actions fire on time" `Quick
             test_deferral_timing
        :: List.map
             (fun scn ->
               Alcotest.test_case
                 (scn.Scenario.name ^ " random/pct sweep")
                 `Slow (test_engine_ab_sweep scn))
             Scenario.all );
      ( "oracles",
        List.map
          (fun scn ->
            Alcotest.test_case
              (scn.Scenario.name ^ " clean without bug")
              `Slow (test_no_bug_clean scn))
          Scenario.all );
      ("shrink", [ Alcotest.test_case "ddmin unit" `Quick test_ddmin_unit ]);
    ]
