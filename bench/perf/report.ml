(* Measurement loops and the metrics they report.

   [end_to_end] is the untraced run: timed builds for [setup_s], then
   the closed loop. [per_layer] is the traced run: construction probes,
   then untraced units (the overhead baseline and the GC counters)
   alternating with traced units, whose layer self times and counters
   become the per-layer metrics. Counts and self times are per unit of
   work, so they do not depend on how many units fit in the run. *)

module Stats = Mir_util.Stats
module Vec = Probe.Vec

type metric = string * float * string  (** name, value, unit *)

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

let secs = Probe.seconds_of_ns
let median l = Stats.median (Stats.of_list l)

(* Repeat the runner's unit until [seconds] have passed (at least
   once); each unit comes back with its wall time. *)
let loop ~seconds (r : Work.runner) =
  let deadline = Probe.now_ns () + int_of_float (seconds *. 1e9) in
  let rec go acc =
    let t0 = Probe.now_ns () in
    let u = r.Work.step () in
    let acc = (u, Probe.now_ns () - t0) :: acc in
    if Probe.now_ns () >= deadline then List.rev acc else go acc
  in
  let units = go [] in
  r.Work.finish ();
  units

(* Units whose deterministic signature differs from the reference:
   the first unit when every unit redoes the same work, otherwise the
   reference run's unit at the same position. *)
let mismatches (w : Work.t) ~reference units =
  let differs i (u : Work.result) =
    let expect =
      if w.Work.repeats then Some (fst (List.hd reference))
      else Option.map fst (List.nth_opt reference i)
    in
    match expect with
    | Some (e : Work.result) -> e.Work.sim <> u.Work.sim
    | None -> false
  in
  List.length (List.filter Fun.id (List.mapi (fun i (u, _) -> differs i u) units))

let tally units =
  List.fold_left
    (fun (a, f) ((u : Work.result), _) -> (a + u.Work.ops, f + u.Work.failed))
    (0, 0) units

let outcome units ~bad metrics =
  let attempted, failed = tally units in
  let failed = failed + bad in
  { correct = failed = 0; attempted; failed; metrics }

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.

(* ------------------------------------------------------------------ *)
(* Untraced: end-to-end metrics                                        *)
(* ------------------------------------------------------------------ *)

let end_to_end (w : Work.t) ~seed ~seconds size =
  let builds =
    List.init size.Work.builds (fun i ->
        let t0 = Probe.now_ns () in
        w.Work.build_once ~seed i;
        Probe.now_ns () - t0)
  in
  let units = loop ~seconds (w.Work.start ~seed size) in
  let bad = mismatches w ~reference:units units in
  let rate f g =
    median
      (List.map (fun ((u : Work.result), _) -> f u /. secs (g u)) units)
  in
  let setup =
    median
      (List.map secs
         (builds @ List.concat_map (fun (u, _) -> u.Work.build_ns) units))
  in
  let first = fst (List.hd units) in
  let host (u : Work.result) = u.Work.host_ns in
  let instrs (u : Work.result) = float_of_int u.Work.instrs /. 1e6 in
  let traps (u : Work.result) = float_of_int u.Work.traps in
  let ops (u : Work.result) = float_of_int u.Work.ops in
  let trap_host (u : Work.result) = u.Work.trap_host_ns in
  outcome units ~bad
    [
      ("setup_s", setup, "s");
      ("sim_mips", rate instrs host, "Minstr/s");
      ("traps_per_s", rate traps trap_host, "1/s");
      ("ops_per_s", rate ops host, "1/s");
      ("peak_heap_mb", peak_heap_mb (), "MiB");
      ("sim_cycles", float_of_int first.Work.sim_cycles, "cycles");
    ]

(* ------------------------------------------------------------------ *)
(* Traced: per-layer metrics                                           *)
(* ------------------------------------------------------------------ *)

let p v q = if Vec.length v = 0 then 0. else Stats.percentile (Vec.stats v) q
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* GC counters summed over the untraced units. *)
type gc_sums = {
  mutable minor_words : float;
  mutable major_words : float;
  mutable minor_collections : int;
  mutable major_collections : int;
}

(* Alternate untraced and traced units until [seconds] have passed, so
   both sides see the same heap and host conditions. Returns both unit
   lists, the traced wall time (the traced runner's start included) and
   the GC counters of the untraced units. *)
let alternate ~seconds (plain : Work.runner) ~traced_start =
  let g = { minor_words = 0.; major_words = 0.; minor_collections = 0;
            major_collections = 0 } in
  let s0 = Probe.now_ns () in
  let traced : Work.runner = traced_start () in
  let start_ns = Probe.now_ns () - s0 in
  let deadline = Probe.now_ns () + int_of_float (seconds *. 1e9) in
  let timed (r : Work.runner) =
    let t0 = Probe.now_ns () in
    let u = r.Work.step () in
    (u, Probe.now_ns () - t0)
  in
  let untraced () =
    let a = Gc.quick_stat () in
    let p = timed plain in
    let b = Gc.quick_stat () in
    g.minor_words <- g.minor_words +. b.Gc.minor_words -. a.Gc.minor_words;
    g.major_words <- g.major_words +. b.Gc.major_words -. a.Gc.major_words;
    g.minor_collections <-
      g.minor_collections + b.Gc.minor_collections - a.Gc.minor_collections;
    g.major_collections <-
      g.major_collections + b.Gc.major_collections - a.Gc.major_collections;
    p
  in
  (* which side goes first alternates, so neither always inherits the
     other's garbage *)
  let rec go i ps ts =
    let p, t =
      if i land 1 = 0 then
        let p = untraced () in
        (p, timed traced)
      else
        let t = timed traced in
        (untraced (), t)
    in
    if Probe.now_ns () >= deadline then (List.rev (p :: ps), List.rev (t :: ts))
    else go (i + 1) (p :: ps) (t :: ts)
  in
  let plain_units, traced_units = go 0 [] [] in
  plain.Work.finish ();
  traced.Work.finish ();
  let wall = List.fold_left (fun a (_, ns) -> a + ns) start_ns traced_units in
  (plain_units, traced_units, wall, g)

let per_layer (w : Work.t) ~seed ~seconds size =
  (* construction probes: Setup.create's steps, each timed *)
  let pre = Probe.create () in
  for _ = 1 to size.Work.builds do
    ignore (Probe.build pre w.Work.platform Mir_harness.Setup.Virtualized)
  done;
  let tr = Probe.create () in
  let plain, traced, wall, g =
    alternate ~seconds (w.Work.start ~seed size) ~traced_start:(fun () ->
        w.Work.start ~tr ~seed size)
  in
  let bad =
    mismatches w ~reference:plain plain + mismatches w ~reference:plain traced
  in
  let n = float_of_int (List.length traced) in
  let per_unit x = float_of_int x /. n in
  let self l = secs tr.Probe.self_ns.(Probe.layer_index l) /. n in
  let gc x = x /. float_of_int (List.length plain) in
  (* wall time per unit, less the time spent timing the speed reference *)
  let unit_wall units =
    median
      (List.map
         (fun ((u : Work.result), ns) -> float_of_int (ns - u.Work.calib_ns))
         units)
  in
  let attributed =
    List.fold_left
      (fun a l ->
        if l = Probe.Other then a else a + tr.Probe.self_ns.(Probe.layer_index l))
      0 Probe.layers
  in
  let base = wall * w.Work.parallelism in
  List.iter
    (fun v ->
      Vec.append ~into:(v pre) (v tr))
    [ (fun t -> t.Probe.create_ns); (fun t -> t.Probe.load_ns);
      (fun t -> t.Probe.boot_ns); (fun t -> t.Probe.build_alloc) ];
  let us v q = p v q /. 1e3 and s v q = p v q *. 1e-9 in
  let results = List.map fst traced in
  let machine_ns = Vec.create () in
  List.iter
    (fun (u : Work.result) -> Array.iter (Vec.push machine_ns) u.Work.machine_ns)
    results;
  let total f = List.fold_left (fun a u -> a + f u) 0 results in
  let busy = total (fun u -> Array.fold_left ( + ) 0 u.Work.machine_ns) in
  let scenario_build_total = Vec.sum tr.Probe.scenario_build_ns in
  let first = List.hd results in
  let trap_rows =
    List.concat_map
      (fun k ->
        let i = Probe.kind_index k in
        let v = tr.Probe.trap_ns.(i) in
        let name m = Printf.sprintf "core.trap.%s.%s" (Probe.kind_name k) m in
        [
          (name "count", per_unit (Vec.length v), "count");
          (name "host_us_p50", us v 50., "us");
          (name "host_us_p90", us v 90., "us");
          (name "sim_cycles", ratio tr.Probe.trap_cycles.(i) (Vec.length v), "cycles");
        ])
      Probe.kinds
  in
  outcome (plain @ traced) ~bad
    ([
       ("trace_overhead", unit_wall traced /. unit_wall plain, "ratio");
       ("trace.units", n, "count");
       ("unattributed_s", secs (base - attributed) /. n, "s");
       ("harness.self_s", self Probe.Harness, "s");
       ("harness.build_alloc_mb", p pre.Probe.build_alloc 50. /. 1048576., "MiB");
       ("rv.machine.create_s", s pre.Probe.create_ns 50., "s");
       ("rv.machine.load_program_s", s pre.Probe.load_ns 50., "s");
       ("core.monitor.boot_s", s pre.Probe.boot_ns 50., "s");
       ("rv.exec.self_s", self Probe.Exec, "s");
       ("rv.exec.instrs", per_unit tr.Probe.instrs, "count");
       ("rv.block.hit_rate",
        ratio tr.Probe.blk_instrs (tr.Probe.blk_instrs + tr.Probe.blk_interp),
        "ratio");
       ("rv.block.compiled", per_unit tr.Probe.blk_compiled, "count");
       ("rv.block.invalidated", per_unit tr.Probe.blk_invalidated, "count");
       ("rv.block.interp_instrs", per_unit tr.Probe.blk_interp, "count");
       ("rv.tlb.hit_rate",
        ratio tr.Probe.tlb_hits (tr.Probe.tlb_hits + tr.Probe.tlb_misses),
        "ratio");
       ("rv.tlb.misses", per_unit tr.Probe.tlb_misses, "count");
       ("rv.tlb.flushes", per_unit tr.Probe.tlb_flushes, "count");
     ]
    @ trap_rows
    @ [
        ("core.self_s", self Probe.Core, "s");
        ("core.world_switches", per_unit tr.Probe.world_switches, "count");
        ("core.offload_ratio", ratio tr.Probe.offload_hits tr.Probe.os_traps,
         "ratio");
        ("core.emulated_instrs", per_unit tr.Probe.emulated, "count");
        ("core.pmp_remote_reinstalls", per_unit tr.Probe.remote_reinstalls,
         "count");
        ("core.ace_steals", per_unit tr.Probe.ace_steals, "count");
        ("core.ace_returns", per_unit tr.Probe.ace_returns, "count");
        ("firmware.instrs", per_unit tr.Probe.fw_instrs, "count");
        ("firmware.self_s", self Probe.Firmware, "s");
        ("policies.calls", per_unit tr.Probe.policy_calls, "count");
        ("policies.self_s", self Probe.Policies, "s");
        ("explore.build_s", s tr.Probe.scenario_build_ns 50., "s");
        ("explore.run_s",
         (if Vec.length tr.Probe.scenario_build_ns = 0 then 0.
          else secs (total (fun u -> u.Work.host_ns) - scenario_build_total) /. n),
         "s");
        ("explore.oracle_s", self Probe.Oracle, "s");
        ("explore.oracle_checks", per_unit tr.Probe.oracle_checks, "count");
        ("explore.steps",
         (if Vec.length tr.Probe.scenario_build_ns = 0 then 0.
          else per_unit (total (fun u -> u.Work.instrs))),
         "count");
        ("fleet.machine_s_p50", s machine_ns 50., "s");
        ("fleet.machine_s_p90", s machine_ns 90., "s");
        ("fleet.busy_frac",
         (if busy = 0 then 0. else ratio busy base),
         "ratio");
        ("fleet.req_p99_cycles", first.Work.p99_cycles, "cycles");
        ("trace.snapshot_hash_s", self Probe.Hash, "s");
        ("sim_overhead", first.Work.overhead, "ratio");
        ("gc.minor_words", gc g.minor_words, "words");
        ("gc.major_words", gc g.major_words, "words");
        ("gc.minor_collections", gc (float_of_int g.minor_collections), "count");
        ("gc.major_collections", gc (float_of_int g.major_collections), "count");
      ])

let measure w ~seed ~seconds ~trace size =
  if trace then per_layer w ~seed ~seconds size
  else end_to_end w ~seed ~seconds size

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let print o =
  List.iter
    (fun (name, v, u) -> Printf.printf "  %-34s %16.6g %s\n" name v u)
    o.metrics;
  Printf.printf "  correct=%b attempted=%d failed=%d\n" o.correct o.attempted
    o.failed

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let json ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun (name, v, u) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) u)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " m)
