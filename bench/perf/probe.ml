(* Host-time layer accounting for the traced benchmark run.

   Everything here observes the simulator from outside: it wraps the
   public hooks ([Machine.t.mmode_hook] as installed by
   [Monitor.create], the [Monitor.t.policy] record, explorer oracles)
   and times calls into public entry points. Nothing under lib/ knows
   it is being traced.

   Self time: the tracer keeps a stack of layers. At every boundary the
   time since the previous boundary is charged to the layer on top of
   the stack, so a layer's self time excludes the layers nested inside
   it, and the self times of all layers (the base layer included) sum
   to the traced wall time.

   Guest execution (the [Exec] layer) is split between the virtual
   firmware and everything else by retired instructions: at each
   boundary, every hart's [instret] delta since the previous boundary
   is charged to [Firmware] when that hart's virtual hart is in the
   firmware world (worlds only change inside the monitor hook, which
   is itself a boundary), and the interval's host time is divided in
   the same proportion. With one hart the split is exact. *)

module Machine = Mir_rv.Machine
module Hart = Mir_rv.Hart
module Cause = Mir_rv.Cause
module Monitor = Miralis.Monitor
module Vfm_stats = Miralis.Vfm_stats
module Vhart = Miralis.Vhart
module Policy = Miralis.Policy
module Stats = Mir_util.Stats

(* Monotonic nanoseconds; the external is unboxed and allocation-free. *)
let now_ns () = Int64.to_int (Monotonic_clock.clock_linux_get_time ())

let seconds_of_ns ns = float_of_int ns *. 1e-9

(* Growable int sample vector. *)
module Vec = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 64 0; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let b = Array.make (2 * v.n) 0 in
      Array.blit v.a 0 b 0 v.n;
      v.a <- b
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let length v = v.n

  let sum v =
    let s = ref 0 in
    for i = 0 to v.n - 1 do
      s := !s + v.a.(i)
    done;
    !s

  let append ~into v =
    for i = 0 to v.n - 1 do
      push into v.a.(i)
    done

  let stats v =
    let s = Stats.create () in
    for i = 0 to v.n - 1 do
      Stats.add s (float_of_int v.a.(i))
    done;
    s
end

(* ------------------------------------------------------------------ *)
(* Layers                                                              *)
(* ------------------------------------------------------------------ *)

type layer =
  | Other  (** the benchmark loop itself: unattributed *)
  | Harness  (** system construction *)
  | Exec  (** guest execution in the run loops, outside the hook *)
  | Firmware  (** guest execution while the hart is in the firmware world *)
  | Core  (** the monitor's M-mode trap hook, minus policy hooks *)
  | Policies  (** policy hooks called by the monitor *)
  | Oracle  (** explorer oracle checks *)
  | Hash  (** [Snapshot.hash] digests *)

let layers = [ Other; Harness; Exec; Firmware; Core; Policies; Oracle; Hash ]

let layer_index = function
  | Other -> 0
  | Harness -> 1
  | Exec -> 2
  | Firmware -> 3
  | Core -> 4
  | Policies -> 5
  | Oracle -> 6
  | Hash -> 7

let nlayers = List.length layers

(* ------------------------------------------------------------------ *)
(* Trap kinds                                                          *)
(* ------------------------------------------------------------------ *)

type kind =
  | Time_read
  | Set_timer
  | Ipi
  | Rfence
  | Msip
  | Misaligned
  | Fw_emul  (** any trap from the firmware world *)
  | Fw_forward  (** an OS trap no offload handled *)
  | Mtimer

let kinds =
  [ Time_read; Set_timer; Ipi; Rfence; Msip; Misaligned; Fw_emul; Fw_forward;
    Mtimer ]

let kind_name = function
  | Time_read -> "time_read"
  | Set_timer -> "set_timer"
  | Ipi -> "ipi"
  | Rfence -> "rfence"
  | Msip -> "msip"
  | Misaligned -> "misaligned"
  | Fw_emul -> "fw_emul"
  | Fw_forward -> "fw_forward"
  | Mtimer -> "mtimer"

let kind_index = function
  | Time_read -> 0
  | Set_timer -> 1
  | Ipi -> 2
  | Rfence -> 3
  | Msip -> 4
  | Misaligned -> 5
  | Fw_emul -> 6
  | Fw_forward -> 7
  | Mtimer -> 8

let nkinds = List.length kinds

(* ------------------------------------------------------------------ *)
(* The tracer                                                          *)
(* ------------------------------------------------------------------ *)

type t = {
  self_ns : int array;  (** per layer *)
  stack : int array;
  mutable depth : int;
  mutable last : int;
  (* the system whose harts the exec split reads *)
  mutable harts : Hart.t array;
  mutable vharts : Vhart.t array;  (** empty for a Native system *)
  mutable snap : int array;  (** per-hart instret at the last boundary *)
  mutable fw_instrs : int;
  (* per trap kind *)
  trap_ns : Vec.t array;
  trap_cycles : int array;
  (* construction *)
  create_ns : Vec.t;
  load_ns : Vec.t;
  boot_ns : Vec.t;
  build_alloc : Vec.t;  (** bytes allocated per build *)
  mutable policy_calls : int;
  mutable oracle_checks : int;
  mutable world_switches : int;
  mutable emulated : int;
  mutable remote_reinstalls : int;
  mutable ace_steals : int;
  mutable ace_returns : int;
  mutable os_traps : int;
  mutable offload_hits : int;
  (* execute tier, folded from finished systems *)
  mutable instrs : int;
  mutable tlb_hits : int;
  mutable tlb_misses : int;
  mutable tlb_flushes : int;
  mutable blk_compiled : int;
  mutable blk_invalidated : int;
  mutable blk_instrs : int;
  mutable blk_interp : int;
  scenario_build_ns : Vec.t;
}

let create () =
  {
    self_ns = Array.make nlayers 0;
    stack = Array.make 32 (layer_index Other);
    depth = 1;
    last = now_ns ();
    harts = [||];
    vharts = [||];
    snap = [||];
    fw_instrs = 0;
    trap_ns = Array.init nkinds (fun _ -> Vec.create ());
    trap_cycles = Array.make nkinds 0;
    create_ns = Vec.create ();
    load_ns = Vec.create ();
    boot_ns = Vec.create ();
    build_alloc = Vec.create ();
    policy_calls = 0;
    oracle_checks = 0;
    world_switches = 0;
    emulated = 0;
    remote_reinstalls = 0;
    ace_steals = 0;
    ace_returns = 0;
    os_traps = 0;
    offload_hits = 0;
    instrs = 0;
    tlb_hits = 0;
    tlb_misses = 0;
    tlb_flushes = 0;
    blk_compiled = 0;
    blk_invalidated = 0;
    blk_instrs = 0;
    blk_interp = 0;
    scenario_build_ns = Vec.create ();
  }

let resnap t =
  for h = 0 to Array.length t.harts - 1 do
    t.snap.(h) <- t.harts.(h).Hart.instret
  done

(* Charge the interval since the last boundary to the top layer. *)
let mark t =
  let now = now_ns () in
  let dt = now - t.last in
  t.last <- now;
  let top = t.stack.(t.depth - 1) in
  if top = layer_index Exec && Array.length t.vharts > 0 then begin
    let fw = ref 0 and all = ref 0 in
    for h = 0 to Array.length t.harts - 1 do
      let d = t.harts.(h).Hart.instret - t.snap.(h) in
      all := !all + d;
      if t.vharts.(h).Vhart.world = Vhart.Firmware then fw := !fw + d
    done;
    resnap t;
    let fw_ns = if !all > 0 then dt * !fw / !all else 0 in
    t.fw_instrs <- t.fw_instrs + !fw;
    t.self_ns.(top) <- t.self_ns.(top) + dt - fw_ns;
    let f = layer_index Firmware in
    t.self_ns.(f) <- t.self_ns.(f) + fw_ns
  end
  else t.self_ns.(top) <- t.self_ns.(top) + dt

let enter t l =
  mark t;
  t.stack.(t.depth) <- layer_index l;
  t.depth <- t.depth + 1

let leave t =
  mark t;
  t.depth <- t.depth - 1;
  if t.stack.(t.depth - 1) = layer_index Exec then resnap t

let span t l f =
  enter t l;
  Fun.protect ~finally:(fun () -> leave t) f

(* Point the exec split at a system's harts (and virtual harts, when
   it runs under the monitor). *)
let attach t (m : Machine.t) (mir : Monitor.t option) =
  t.harts <- m.Machine.harts;
  t.vharts <- (match mir with Some mir -> mir.Monitor.vharts | None -> [||]);
  t.snap <- Array.make (Array.length t.harts) 0;
  resnap t

let detach t =
  t.harts <- [||];
  t.vharts <- [||];
  t.snap <- [||]

(* Fold the counters of one finished system: machine-lifetime
   execute-tier counters, and the monitor's when there is one. *)
let absorb t (m : Machine.t) (mir : Monitor.t option) =
  t.instrs <- t.instrs + m.Machine.instr_count;
  let hits, misses, flushes = Machine.tlb_totals m in
  t.tlb_hits <- t.tlb_hits + hits;
  t.tlb_misses <- t.tlb_misses + misses;
  t.tlb_flushes <- t.tlb_flushes + flushes;
  let b = Machine.block_stats m in
  t.blk_compiled <- t.blk_compiled + b.Mir_rv.Block.compiled;
  t.blk_invalidated <- t.blk_invalidated + b.Mir_rv.Block.invalidated;
  t.blk_instrs <- t.blk_instrs + b.Mir_rv.Block.block_instrs;
  t.blk_interp <- t.blk_interp + b.Mir_rv.Block.interp_instrs;
  match mir with
  | None -> ()
  | Some mir ->
      let s = mir.Monitor.stats in
      t.world_switches <- t.world_switches + s.Vfm_stats.world_switches;
      t.emulated <- t.emulated + s.Vfm_stats.emulated_instrs;
      t.remote_reinstalls <-
        t.remote_reinstalls + s.Vfm_stats.pmp_remote_reinstalls;
      t.ace_steals <- t.ace_steals + s.Vfm_stats.ace_steals;
      t.ace_returns <- t.ace_returns + s.Vfm_stats.ace_returns;
      t.os_traps <- t.os_traps + s.Vfm_stats.traps_from_os;
      t.offload_hits <- t.offload_hits + Vfm_stats.offload_hits s

(* ------------------------------------------------------------------ *)
(* Wrappers                                                            *)
(* ------------------------------------------------------------------ *)

(* Wrap the monitor's M-mode hook: time it, classify the trap and
   record the simulated cycles it charged to the trapping hart. The
   kind of an OS exception is read off whichever offload counter the
   handler bumped; no counter means the trap went to the firmware (or
   a policy). *)
let wrap_monitor t (mir : Monitor.t) =
  let m = mir.Monitor.machine in
  match m.Machine.mmode_hook with
  | None -> ()
  | Some hook ->
      let s = mir.Monitor.stats in
      m.Machine.mmode_hook <-
        Some
          (fun m hart cause ->
            let tr0 = s.Vfm_stats.offload_time_read
            and st0 = s.Vfm_stats.offload_set_timer
            and ipi0 = s.Vfm_stats.offload_ipi
            and rf0 = s.Vfm_stats.offload_rfence
            and mis0 = s.Vfm_stats.offload_misaligned in
            let from_fw =
              mir.Monitor.vharts.(hart.Hart.id).Vhart.world = Vhart.Firmware
            in
            let c0 = hart.Hart.cycles in
            enter t Core;
            let t0 = t.last in
            hook m hart cause;
            leave t;
            let kind =
              match cause with
              | Cause.Interrupt Cause.Machine_software -> Msip
              | Cause.Interrupt Cause.Machine_timer -> Mtimer
              | Cause.Interrupt _ -> Fw_forward
              | Cause.Exception _ when from_fw -> Fw_emul
              | Cause.Exception _ ->
                  if s.Vfm_stats.offload_time_read > tr0 then Time_read
                  else if s.Vfm_stats.offload_set_timer > st0 then Set_timer
                  else if s.Vfm_stats.offload_ipi > ipi0 then Ipi
                  else if s.Vfm_stats.offload_rfence > rf0 then Rfence
                  else if s.Vfm_stats.offload_misaligned > mis0 then Misaligned
                  else Fw_forward
            in
            let k = kind_index kind in
            Vec.push t.trap_ns.(k) (t.last - t0);
            t.trap_cycles.(k) <- t.trap_cycles.(k) + hart.Hart.cycles - c0)

let wrap_policy t (p : Policy.t) =
  let timed f =
    t.policy_calls <- t.policy_calls + 1;
    span t Policies f
  in
  {
    p with
    Policy.on_ecall_from_os =
      (fun ctx -> timed (fun () -> p.Policy.on_ecall_from_os ctx));
    on_trap_from_os =
      (fun ctx c -> timed (fun () -> p.Policy.on_trap_from_os ctx c));
    on_switch_to_fw = (fun ctx -> timed (fun () -> p.Policy.on_switch_to_fw ctx));
    on_ecall_from_fw =
      (fun ctx -> timed (fun () -> p.Policy.on_ecall_from_fw ctx));
    on_trap_from_fw =
      (fun ctx c -> timed (fun () -> p.Policy.on_trap_from_fw ctx c));
    on_switch_to_os = (fun ctx -> timed (fun () -> p.Policy.on_switch_to_os ctx));
    on_interrupt = (fun ctx i -> timed (fun () -> p.Policy.on_interrupt ctx i));
    pmp_entries = (fun ctx -> timed (fun () -> p.Policy.pmp_entries ctx));
  }

(* Install every wrapper on a freshly built monitor. *)
let instrument t (mir : Monitor.t) =
  wrap_monitor t mir;
  mir.Monitor.policy <- wrap_policy t mir.Monitor.policy

let wrap_oracle t (o : Mir_explore.Oracle.t) =
  {
    o with
    Mir_explore.Oracle.check =
      (fun () ->
        t.oracle_checks <- t.oracle_checks + 1;
        span t Oracle o.Mir_explore.Oracle.check);
  }

(* ------------------------------------------------------------------ *)
(* Traced system construction                                          *)
(* ------------------------------------------------------------------ *)

module Setup = Mir_harness.Setup
module Platform = Mir_platform.Platform

let timed_into v f =
  let t0 = now_ns () in
  let r = f () in
  Vec.push v (now_ns () - t0);
  r

(* [Setup.create] step by step, timing each public call. The result is
   bit-identical to [Setup.create platform mode] (the benchmark's tests
   compare state hashes), with the monitor instrumented after boot. *)
let build t (platform : Platform.t) mode =
  span t Harness (fun () ->
      let a0 = Gc.allocated_bytes () in
      let m = timed_into t.create_ns (fun () -> Machine.create platform.Platform.machine) in
      ignore (Machine.attach_blockdev m ~capacity_sectors:4096 ~latency_ticks:200L);
      ignore (Machine.attach_nic m);
      let nharts = platform.Platform.machine.Machine.nharts in
      let kernel_entry = Mir_kernel.Interp_kernel.entry in
      let fw_image, _ = Mir_firmware.Minisbi.image ~nharts ~kernel_entry in
      let kimage, _ = Mir_kernel.Interp_kernel.image () in
      timed_into t.load_ns (fun () ->
          Machine.load_program m Mir_firmware.Layout.fw_base fw_image;
          Machine.load_program m kernel_entry kimage);
      let sys =
        match mode with
        | Setup.Native ->
            Array.iter
              (fun h ->
                Hart.reset h ~pc:Mir_firmware.Layout.fw_base;
                Hart.set h 10 (Int64.of_int h.Hart.id);
                Hart.set h 11 0L)
              m.Machine.harts;
            { Setup.platform; mode; machine = m; miralis = None }
        | Setup.Virtualized | Setup.Virtualized_no_offload ->
            let config =
              Miralis.Config.make
                ~offload:(mode = Setup.Virtualized)
                ~allowed_custom_csrs:platform.Platform.custom_csrs
                ~cost:platform.Platform.cost ~machine:platform.Platform.machine
                ()
            in
            let mir =
              timed_into t.boot_ns (fun () ->
                  let mir = Monitor.create config m in
                  Monitor.boot mir ~fw_entry:Mir_firmware.Layout.fw_base;
                  mir)
            in
            instrument t mir;
            { Setup.platform; mode; machine = m; miralis = Some mir }
      in
      Vec.push t.build_alloc (int_of_float (Gc.allocated_bytes () -. a0));
      sys)

(* Run a system's scripts with its guest execution charged to [Exec]. *)
let run_scripts t ?max_instrs (sys : Setup.system) scripts =
  attach t sys.Setup.machine sys.Setup.miralis;
  span t Exec (fun () -> Setup.run_scripts ?max_instrs sys scripts);
  detach t

let run t ?max_instrs (sys : Setup.system) =
  attach t sys.Setup.machine sys.Setup.miralis;
  span t Exec (fun () -> Machine.run ?max_instrs sys.Setup.machine);
  detach t

let state_hash t sys = span t Hash (fun () -> Setup.state_hash sys)

(* ------------------------------------------------------------------ *)
(* Merging (one tracer per fleet task)                                 *)
(* ------------------------------------------------------------------ *)

let merge ~into t =
  Array.iteri (fun i v -> into.self_ns.(i) <- into.self_ns.(i) + v) t.self_ns;
  into.fw_instrs <- into.fw_instrs + t.fw_instrs;
  Array.iteri (fun i v -> Vec.append ~into:into.trap_ns.(i) v) t.trap_ns;
  Array.iteri
    (fun i v -> into.trap_cycles.(i) <- into.trap_cycles.(i) + v)
    t.trap_cycles;
  Vec.append ~into:into.create_ns t.create_ns;
  Vec.append ~into:into.load_ns t.load_ns;
  Vec.append ~into:into.boot_ns t.boot_ns;
  Vec.append ~into:into.build_alloc t.build_alloc;
  into.policy_calls <- into.policy_calls + t.policy_calls;
  into.oracle_checks <- into.oracle_checks + t.oracle_checks;
  into.world_switches <- into.world_switches + t.world_switches;
  into.emulated <- into.emulated + t.emulated;
  into.remote_reinstalls <- into.remote_reinstalls + t.remote_reinstalls;
  into.ace_steals <- into.ace_steals + t.ace_steals;
  into.ace_returns <- into.ace_returns + t.ace_returns;
  into.os_traps <- into.os_traps + t.os_traps;
  into.offload_hits <- into.offload_hits + t.offload_hits;
  into.instrs <- into.instrs + t.instrs;
  into.tlb_hits <- into.tlb_hits + t.tlb_hits;
  into.tlb_misses <- into.tlb_misses + t.tlb_misses;
  into.tlb_flushes <- into.tlb_flushes + t.tlb_flushes;
  into.blk_compiled <- into.blk_compiled + t.blk_compiled;
  into.blk_invalidated <- into.blk_invalidated + t.blk_invalidated;
  into.blk_instrs <- into.blk_instrs + t.blk_instrs;
  into.blk_interp <- into.blk_interp + t.blk_interp;
  Vec.append ~into:into.scenario_build_ns t.scenario_build_ns
