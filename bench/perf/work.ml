(* The benchmark's four closed-loop workloads.

   Each workload is a unit of work that a single client repeats, the
   next unit starting only once the previous one has finished:

   - boot: one Native and one Miralis boot of the 4-hart VisionFive 2
     under the paper's Fig. 3 script, each system built before its
     boot is timed;
   - compute: one fixed instruction budget of the Sv39 [bench ips]
     script on a 1-hart Miralis system built once, before timing;
   - fleet: one [Fleet.run] of the [mix] profile on 2 domains;
   - explore: Random and PCT campaigns over every explorer scenario.

   A unit run untraced calls only the public entry points that
   production code calls. A unit run traced ([~tr]) builds through
   [Probe.build] and runs through the [Probe] wrappers; its [sim]
   signature must equal the untraced one, which shows the wrappers do
   not perturb the simulation. *)

module Setup = Mir_harness.Setup
module Machine = Mir_rv.Machine
module Hart = Mir_rv.Hart
module Platform = Mir_platform.Platform
module Script = Mir_kernel.Script
module Monitor = Miralis.Monitor
module Vfm_stats = Miralis.Vfm_stats
module Fleet = Mir_fleet.Fleet
module Pool = Mir_fleet.Pool
module Load = Mir_fleet.Load
module Explore = Mir_explore.Explore
module Scenario = Mir_explore.Scenario
module Boot_trace = Mir_workloads.Boot_trace

type size = {
  fleet_machines : int;  (** machines per fleet unit *)
  explore_schedules : int;  (** schedules per scenario and family *)
  compute_chunk : int;  (** instructions per compute unit *)
  builds : int;  (** timed builds behind [setup_s] *)
}

let full =
  { fleet_machines = 128; explore_schedules = 4; compute_chunk = 4_000_000;
    builds = 7 }

let small =
  { fleet_machines = 2; explore_schedules = 1; compute_chunk = 200_000;
    builds = 1 }

let fleet_domains = 2

(* One finished unit of work. *)
type result = {
  sim : int list;  (** deterministic signature: repeats exactly *)
  sim_cycles : int;  (** simulated cycles of the unit's fixed work *)
  instrs : int;  (** guest instructions (machine steps) retired *)
  traps : int;  (** M-mode traps handled by the monitor *)
  trap_host_ns : int;  (** host time of the runs those traps came from *)
  ops : int;  (** boots, chunks, machines or schedules *)
  failed : int;  (** of [ops], those whose output check failed *)
  host_ns : int;  (** host time of the measured part *)
  build_ns : int list;  (** system builds timed inside the unit *)
  overhead : float;  (** Miralis / Native simulated boot cycles (boot) *)
  p99_cycles : float;  (** per-request p99 latency (fleet) *)
  machine_ns : int array;  (** per-machine host time (traced fleet) *)
  calib_ns : int;  (** host time spent timing the speed reference *)
}

type runner = {
  step : unit -> result;
  finish : unit -> unit;  (** fold end-of-loop counters into the tracer *)
}

type t = {
  name : string;
  why : string;
  platform : Platform.t;  (** the system kind [setup_s] builds *)
  repeats : bool;  (** every unit redoes the same work *)
  parallelism : int;  (** domains the unit runs on *)
  build_once : seed:int -> int -> unit;
      (** the [i]-th build of one ready-to-run system (timed by the
          caller for [setup_s]) *)
  start : ?tr:Probe.t -> seed:int -> size -> runner;
}

let traps_of (s : Vfm_stats.t) =
  s.Vfm_stats.traps_from_os + s.Vfm_stats.traps_from_fw

let cycles_of (m : Machine.t) =
  Array.fold_left (fun a h -> a + h.Hart.cycles) 0 m.Machine.harts

let build tr platform mode =
  match tr with
  | None -> Setup.create platform mode
  | Some t -> Probe.build t platform mode

let state_hash tr sys =
  Int64.to_int
    (match tr with
    | None -> Setup.state_hash sys
    | Some t -> Probe.state_hash t sys)

let no_finish () = ()

(* ------------------------------------------------------------------ *)
(* boot                                                                *)
(* ------------------------------------------------------------------ *)

let vf2 = Platform.visionfive2
let boot_budget = 400_000_000

let boot_start ?tr ~seed:_ _size =
  let script = Boot_trace.script () in
  (* build, then boot. Untraced: [Setup.run_scripts]'s steps with the
     run cut into calibrated segments (reference seconds). Traced: one
     [Setup.run_scripts] through the tracer (plain host time). *)
  let one mode =
    let t0 = Probe.now_ns () in
    let sys = build tr vf2 mode in
    let build_ns = Probe.now_ns () - t0 in
    let m = sys.Setup.machine in
    let run_ns, calib_ns =
      match tr with
      | None ->
          Array.iteri
            (fun h _ ->
              Script.write m ~hart:h
                (Option.value (List.nth_opt script h) ~default:[ Script.Halt ]))
            m.Machine.harts;
          Calib.run_machine ~budget:boot_budget m
      | Some t ->
          let t1 = Probe.now_ns () in
          Probe.run_scripts t ~max_instrs:(Int64.of_int boot_budget) sys script;
          let run_ns = Probe.now_ns () - t1 in
          Probe.absorb t m sys.Setup.miralis;
          (run_ns, 0)
    in
    (sys, build_ns, run_ns, calib_ns)
  in
  let step () =
    let n, n_build, n_run, n_calib = one Setup.Native in
    let v, v_build, v_run, v_calib = one Setup.Virtualized in
    let calib_ns = n_calib + v_calib in
    let mir = Option.get v.Setup.miralis in
    let traps = traps_of mir.Monitor.stats in
    let powered sys = if sys.Setup.machine.Machine.poweroff then 0 else 1 in
    let uart_differs = Setup.uart_output n <> Setup.uart_output v in
    let failed =
      powered n + powered v
      + Bool.to_int (uart_differs || mir.Monitor.violation <> None)
    in
    let nc = Setup.hart0_cycles n and vc = Setup.hart0_cycles v in
    let ni = n.Setup.machine.Machine.instr_count
    and vi = v.Setup.machine.Machine.instr_count in
    {
      sim =
        [ nc; vc; ni; vi; traps; mir.Monitor.stats.Vfm_stats.world_switches;
          state_hash tr n; state_hash tr v ];
      sim_cycles = vc;
      instrs = ni + vi;
      traps;
      trap_host_ns = v_run;
      ops = 2;
      failed = min 2 failed;
      host_ns = n_run + v_run;
      build_ns = [ n_build; v_build ];
      overhead = float_of_int vc /. float_of_int nc;
      p99_cycles = 0.;
      machine_ns = [||];
      calib_ns;
    }
  in
  { step; finish = no_finish }

let boot =
  {
    name = "boot";
    platform = vf2;
    repeats = true;
    parallelism = 1;
    why =
      "the paper's Fig. 3 boot, Native then Miralis on 4 harts: the only \
       workload with remote fences and multi-hart IPIs";
    build_once =
      (fun ~seed:_ i ->
        let mode = if i mod 2 = 0 then Setup.Virtualized else Setup.Native in
        ignore (Setup.create vf2 mode));
    start = boot_start;
  }

(* ------------------------------------------------------------------ *)
(* compute                                                             *)
(* ------------------------------------------------------------------ *)

let compute_platform =
  { vf2 with
    Platform.machine = { vf2.Platform.machine with Machine.nharts = 1 } }

(* The [bench ips] script: Sv39 on, then a loop of compute, rdtime,
   set_timer, misaligned accesses, a wfi tick and console output; the
   loop rewrites satp every iteration. *)
let compute_script sys =
  Script.
    [
      Enable_paging (Mir_kernel.Paging.identity_satp sys.Setup.machine);
      Compute 3000L;
      Rdtime;
      Set_timer 400L;
      Misaligned_load;
      Compute 3000L;
      Misaligned_store;
      Tick_wfi 150L;
      Putchar '.';
      Loop 1_000_000_000L;
      End;
    ]

let compute_start ?tr ~seed:_ size =
  let sys = build tr compute_platform Setup.Virtualized in
  let m = sys.Setup.machine in
  let mir = Option.get sys.Setup.miralis in
  Script.write m ~hart:0 (compute_script sys);
  let step () =
    let i0 = m.Machine.instr_count
    and c0 = Setup.hart0_cycles sys
    and tr0 = traps_of mir.Monitor.stats in
    let chunk = size.compute_chunk in
    (* untraced in reference seconds, traced in plain host time *)
    let host_ns, calib_ns =
      match tr with
      | None -> Calib.run_machine ~segment:chunk ~budget:chunk m
      | Some t ->
          let t0 = Probe.now_ns () in
          Probe.run t ~max_instrs:(Int64.of_int chunk) sys;
          (Probe.now_ns () - t0, 0)
    in
    let instrs = m.Machine.instr_count - i0 in
    let cycles = Setup.hart0_cycles sys - c0 in
    let traps = traps_of mir.Monitor.stats - tr0 in
    let uart = Setup.uart_output sys in
    (* [Machine.run] ends on a 32-step hart-slice boundary *)
    let ok =
      instrs >= size.compute_chunk
      && instrs < size.compute_chunk + 32
      && (not m.Machine.poweroff)
      && mir.Monitor.violation = None
      && String.for_all (fun c -> c = '.') uart
    in
    {
      sim = [ cycles; instrs; traps; String.length uart; state_hash tr sys ];
      sim_cycles = cycles;
      instrs;
      traps;
      trap_host_ns = host_ns;
      ops = 1;
      failed = Bool.to_int (not ok);
      host_ns;
      build_ns = [];
      overhead = 0.;
      p99_cycles = 0.;
      machine_ns = [||];
      calib_ns;
    }
  in
  let finish () =
    match tr with Some t -> Probe.absorb t m sys.Setup.miralis | None -> ()
  in
  { step; finish }

let compute =
  {
    name = "compute";
    platform = compute_platform;
    repeats = false;
    parallelism = 1;
    why =
      "a fixed instruction budget of the Sv39 ips script on one Miralis \
       hart: the execute tier does nearly all the work, at a low trap rate";
    build_once =
      (fun ~seed:_ _ -> ignore (Setup.create compute_platform Setup.Virtualized));
    start = compute_start;
  }

(* ------------------------------------------------------------------ *)
(* fleet                                                               *)
(* ------------------------------------------------------------------ *)

let fleet_spec ~seed size =
  { Fleet.default_spec with
    Fleet.machines = size.fleet_machines;
    domains = fleet_domains;
    seed = Int64.of_int seed }

(* [Fleet.run_one] through the traced build and run: the same plan,
   build, trap counter, script, latency stamps and digest, so the
   aggregate must equal the untraced fleet's bit for bit. *)
let traced_run_one tr (spec : Fleet.spec) id =
  let mseed, stream = Fleet.plan spec id in
  let sys = Probe.build tr Fleet.platform Setup.Virtualized in
  let m = sys.Setup.machine in
  Machine.set_block_engine m spec.Fleet.block_engine;
  let traps = ref 0 in
  m.Machine.on_trap <-
    Some (fun _ _ _ ~from_priv:_ ~to_m -> if to_m then incr traps);
  Probe.run_scripts tr ~max_instrs:spec.Fleet.max_instrs sys
    [ stream.Load.script ];
  let completed = m.Machine.poweroff in
  let requests = stream.Load.requests in
  let stamps = Script.stamps m ~hart:0 ~count:(requests + 1) in
  let latencies =
    if completed then
      Array.init requests (fun i ->
          Int64.to_float (Int64.sub stamps.(i + 1) stamps.(i)))
    else [||]
  in
  let mir = Option.get sys.Setup.miralis in
  let s = mir.Monitor.stats in
  Probe.absorb tr m sys.Setup.miralis;
  {
    Fleet.id;
    mseed;
    profile = stream.Load.profile.Load.name;
    requests;
    completed;
    digest = Probe.state_hash tr sys;
    instrs = Int64.of_int m.Machine.instr_count;
    sim_seconds = Setup.seconds sys;
    traps = !traps;
    world_switches = s.Vfm_stats.world_switches;
    offload_hits = Vfm_stats.offload_hits s;
    latencies;
    log = "";
    events = [];
  }

let fleet_run_traced tr (spec : Fleet.spec) =
  let n = spec.Fleet.machines in
  let slots = Array.init n (fun _ -> Atomic.make None) in
  let t0 = Probe.now_ns () in
  Pool.run ~domains:spec.Fleet.domains ~tasks:n (fun id ->
      let task = Probe.create () in
      let s0 = Probe.now_ns () in
      let r = traced_run_one task spec id in
      Atomic.set slots.(id) (Some (r, task, Probe.now_ns () - s0)));
  let wall_ns = Probe.now_ns () - t0 in
  let got = Array.map (fun a -> Option.get (Atomic.get a)) slots in
  Array.iter (fun (_, task, _) -> Probe.merge ~into:tr task) got;
  let results = Array.map (fun (r, _, _) -> r) got in
  ( { Fleet.spec; results; wall_seconds = Probe.seconds_of_ns wall_ns },
    Array.map (fun (_, _, ns) -> ns) got )

let fleet_cycles (r : Fleet.result) =
  let hz = float_of_int Fleet.platform.Platform.freq_mhz *. 1e6 in
  Array.fold_left
    (fun a m -> a + int_of_float (Float.round (m.Fleet.sim_seconds *. hz)))
    0 r.Fleet.results

let fleet_start ?tr ~seed size =
  let spec = fleet_spec ~seed size in
  let step () =
    let t0 = Probe.now_ns () in
    let r, machine_ns =
      match tr with
      | None -> (Fleet.run spec, [||])
      | Some t -> fleet_run_traced t spec
    in
    let host_ns = Probe.now_ns () - t0 in
    let a = Fleet.aggregate r in
    let incomplete =
      Array.fold_left
        (fun n m -> if m.Fleet.completed then n else n + 1)
        0 r.Fleet.results
    in
    {
      sim =
        [ Int64.to_int a.Fleet.fleet_digest; a.Fleet.requests; a.Fleet.traps;
          Int64.to_int a.Fleet.instrs; a.Fleet.world_switches;
          a.Fleet.offload_hits; Int64.to_int (Int64.bits_of_float a.Fleet.p99_cycles) ];
      sim_cycles = fleet_cycles r;
      instrs = Int64.to_int a.Fleet.instrs;
      traps = a.Fleet.traps;
      trap_host_ns = host_ns;
      ops = a.Fleet.machines;
      failed = incomplete;
      host_ns;
      build_ns = [];
      overhead = 0.;
      p99_cycles = a.Fleet.p99_cycles;
      machine_ns;
      calib_ns = 0;
    }
  in
  { step; finish = no_finish }

let fleet =
  {
    name = "fleet";
    platform = Fleet.platform;
    repeats = true;
    parallelism = fleet_domains;
    why =
      "many short-lived 8 MiB machines of the mix profile on 2 domains: \
       construction plus block-engine execution, and the only Pool workload";
    build_once =
      (fun ~seed:_ _ -> ignore (Setup.create Fleet.platform Setup.Virtualized));
    start = fleet_start;
  }

(* ------------------------------------------------------------------ *)
(* explore                                                             *)
(* ------------------------------------------------------------------ *)

let explore_harts = 2

(* [Scenario]'s system: the VisionFive 2 cut to [explore_harts]. *)
let explore_platform =
  { vf2 with
    Platform.machine =
      { vf2.Platform.machine with Machine.nharts = explore_harts } }
let families = [ Explore.Random; Explore.Pct ]

(* Counters of the instances [run_family] builds internally. The
   previous instance is folded in when the next one is built, and
   dropped then, so it lives no longer than it would untraced. *)
type collector = {
  ctr : Probe.t option;
  mutable pending : (Machine.t * Monitor.t) option;
  mutable cycles : int;
  mutable traps : int;
}

let flush c =
  match c.pending with
  | None -> ()
  | Some (m, mir) ->
      c.pending <- None;
      c.cycles <- c.cycles + cycles_of m;
      c.traps <- c.traps + traps_of mir.Monitor.stats;
      Option.iter (fun t -> Probe.absorb t m (Some mir)) c.ctr

let observed c (scn : Scenario.t) =
  let build ~nharts ~seed =
    flush c;
    let inst =
      match c.ctr with
      | None -> scn.Scenario.build ~nharts ~seed
      | Some t ->
          Probe.span t Probe.Harness (fun () ->
              let inst =
                Probe.timed_into t.Probe.scenario_build_ns (fun () ->
                    scn.Scenario.build ~nharts ~seed)
              in
              let mir = inst.Scenario.mir in
              Probe.instrument t mir;
              Probe.attach t inst.Scenario.system.Setup.machine (Some mir);
              { inst with
                Scenario.oracles =
                  List.map (Probe.wrap_oracle t) inst.Scenario.oracles })
    in
    c.pending <- Some (inst.Scenario.system.Setup.machine, inst.Scenario.mir);
    inst
  in
  { scn with Scenario.build }

let explore_start ?tr ~seed size =
  let seed = Int64.of_int seed in
  let step () =
    let c = { ctr = tr; pending = None; cycles = 0; traps = 0 } in
    let campaigns () =
      List.concat_map
        (fun scn ->
          let scn = observed c scn in
          List.map
            (fun family ->
              Explore.run_family scn ~family ~seed
                ~max_schedules:size.explore_schedules ~nharts:explore_harts ())
            families)
        Scenario.all
    in
    let t0 = Probe.now_ns () in
    let cs =
      match tr with
      | None -> campaigns ()
      | Some t ->
          let cs = Probe.span t Probe.Exec campaigns in
          Probe.detach t;
          cs
    in
    let host_ns = Probe.now_ns () - t0 in
    flush c;
    let sum f = List.fold_left (fun a x -> a + f x) 0 cs in
    let schedules = sum (fun x -> x.Explore.schedules_run) in
    let steps = sum (fun x -> x.Explore.steps_total) in
    let caught = sum (fun x -> Bool.to_int (x.Explore.caught <> None)) in
    let switches = sum (fun x -> List.fold_left ( + ) 0 x.Explore.switch_counts) in
    {
      sim =
        [ c.cycles; c.traps; schedules; steps;
          sum (fun x -> x.Explore.trap_points_total); switches ];
      sim_cycles = c.cycles;
      instrs = steps;
      traps = c.traps;
      trap_host_ns = host_ns;
      ops = schedules;
      failed = caught;
      host_ns;
      build_ns = [];
      overhead = 0.;
      p99_cycles = 0.;
      machine_ns = [||];
      calib_ns = 0;
    }
  in
  { step; finish = no_finish }

let explore =
  {
    name = "explore";
    platform = explore_platform;
    repeats = true;
    parallelism = 1;
    why =
      "Random and PCT schedules over the ipi, sfence, keystone and ace \
       scenarios on 2 harts: construction-bound, interpreted stepping, \
       oracles and policy hooks";
    build_once =
      (fun ~seed i ->
        let scn = List.nth Scenario.all (i mod List.length Scenario.all) in
        ignore
          (Explore.build scn ~nharts:explore_harts ~seed:(Int64.of_int seed) ()));
    start = explore_start;
  }

let all = [ boot; compute; fleet; explore ]
let find name = List.find_opt (fun w -> w.name = name) all
