(* Record–replay and checkpoint subsystem (lib/trace).

   Covers: JSONL round-trips for every event kind, ring-buffer drop
   semantics, dirty-page tracking, full record → fresh-system replay
   with bit-identical final state, checkpoint/restore straight-line
   equivalence plus rewind-replay from a mid-run checkpoint,
   divergence detection of a single mutated CSR, and cross-driver
   equivalence: [Machine.run], a round-robin [run_scheduled], trace
   replay and the fleet's own path end in the same state. *)

module Setup = Mir_harness.Setup
module Script = Mir_kernel.Script
module Platform = Mir_platform.Platform
module Machine = Mir_rv.Machine
module Hart = Mir_rv.Hart
module Memory = Mir_rv.Memory
module Event = Mir_trace.Event
module Ring = Mir_trace.Ring
module Recorder = Mir_trace.Recorder
module Tracer = Mir_trace.Tracer
module Snapshot = Mir_trace.Snapshot
module Replay = Mir_trace.Replay

let vf2 = Platform.visionfive2

(* ------------------------------------------------------------------ *)
(* Event serialization                                                 *)
(* ------------------------------------------------------------------ *)

let sample_events =
  let mk seq kind =
    {
      Event.seq;
      hart = seq mod 4;
      instrs = Int64.of_int (1000 * seq);
      pc = Int64.add 0x8000_0000L (Int64.of_int (4 * seq));
      digest = Int64.mul 0x9E3779B97F4A7C15L (Int64.of_int (seq + 1));
      kind;
    }
  in
  [
    mk 0
      (Event.Trap
         {
           cause = Mir_rv.Cause.Exception Mir_rv.Cause.Illegal_instr;
           from_priv = Mir_rv.Priv.U;
           to_m = true;
           tval = 0x30200073L;
         });
    mk 1
      (Event.Trap
         {
           cause = Mir_rv.Cause.Interrupt Mir_rv.Cause.Supervisor_timer;
           from_priv = Mir_rv.Priv.S;
           to_m = false;
           tval = 0L;
         });
    mk 2
      (Event.Vtrap
         {
           cause = Mir_rv.Cause.Interrupt Mir_rv.Cause.Machine_timer;
           tval = 0L;
         });
    mk 3 (Event.Csr_write { addr = 0x340; value = 0xDEAD_BEEFL });
    mk 4
      (Event.Mmio
         { write = true; addr = 0x0200_4000L; size = 8; value = -1L });
    mk 5 (Event.Mmio { write = false; addr = 0x1000_0005L; size = 1; value = 0x60L });
    mk 6 (Event.World_switch { to_fw = true });
    mk 7 (Event.World_switch { to_fw = false });
    mk 8 Event.Pmp_reinstall;
    mk 9 (Event.Sbi_call { ext = 0x54494D45L; fid = 0L; offloaded = true });
  ]

let test_event_roundtrip () =
  List.iter
    (fun ev ->
      let js = Event.to_json ev in
      match Event.of_json js with
      | Error e -> Alcotest.failf "%s: parse error %s" (Event.kind_name ev.Event.kind) e
      | Ok ev' ->
          Alcotest.(check bool)
            (Event.kind_name ev.Event.kind ^ ": round-trips")
            true (Event.equal ev ev');
          Helpers.check_int
            (Event.kind_name ev.Event.kind ^ ": seq preserved")
            ev.Event.seq ev'.Event.seq)
    sample_events

let test_event_parse_errors () =
  List.iter
    (fun bad ->
      match Event.of_json bad with
      | Ok _ -> Alcotest.failf "accepted malformed input %S" bad
      | Error _ -> ())
    [ ""; "{"; "{\"kind\":\"nope\"}"; "{\"seq\":\"0x1\"}" ]

let test_recorder_jsonl_roundtrip () =
  let r = Recorder.create () in
  List.iter (Recorder.push r) sample_events;
  let text = Recorder.to_jsonl r in
  match Recorder.of_jsonl text with
  | Error e -> Alcotest.failf "of_jsonl: %s" e
  | Ok evs ->
      Helpers.check_int "count" (List.length sample_events) (List.length evs);
      List.iter2
        (fun a b ->
          Alcotest.(check bool) "event equal" true (Event.equal a b))
        sample_events evs

(* ------------------------------------------------------------------ *)
(* Ring buffer                                                         *)
(* ------------------------------------------------------------------ *)

let test_ring_drops_oldest () =
  let r = Ring.create ~capacity:4 in
  for i = 1 to 10 do
    Ring.push r i
  done;
  Helpers.check_int "length" 4 (Ring.length r);
  Helpers.check_int "dropped" 6 (Ring.dropped r);
  Helpers.check_int "total" 10 (Ring.total r);
  Alcotest.(check (list int)) "keeps newest" [ 7; 8; 9; 10 ] (Ring.to_list r);
  Helpers.check_int "get 0 = oldest retained" 7 (Ring.get r 0);
  Ring.clear r;
  Helpers.check_int "clear resets length" 0 (Ring.length r);
  Helpers.check_int "clear resets dropped" 0 (Ring.dropped r)

(* ------------------------------------------------------------------ *)
(* Dirty-page tracking                                                 *)
(* ------------------------------------------------------------------ *)

let test_dirty_pages () =
  let mem = Memory.create ~base:0x8000_0000L ~size:(64 * 1024) in
  Memory.clear_dirty mem;
  Alcotest.(check (list int)) "clean after clear" [] (Memory.dirty_pages mem);
  Memory.store mem 0x8000_0008L 8 1L;
  Memory.store mem 0x8000_2000L 4 2L;
  (* straddles the page-1/page-2 boundary *)
  Memory.store_bytes mem 0x8000_1FFEL (Bytes.make 4 'x');
  Alcotest.(check (list int))
    "pages 0,1,2 dirty" [ 0; 1; 2 ] (Memory.dirty_pages mem);
  Memory.clear_dirty mem;
  Alcotest.(check (list int)) "cleared" [] (Memory.dirty_pages mem);
  (* loads do not dirty *)
  ignore (Memory.load mem 0x8000_0008L 8);
  Alcotest.(check (list int)) "loads are clean" [] (Memory.dirty_pages mem)

(* ------------------------------------------------------------------ *)
(* Record → fresh-system replay                                        *)
(* ------------------------------------------------------------------ *)

(* trap-heavy scripts across two harts so the log interleaves *)
let scripts =
  [
    Script.
      [
        Putchar 'r'; Rdtime; Set_timer 300L; Tick_wfi 100L; Ipi_self;
        Rfence; Misaligned_load; Misaligned_store; Compute 400L;
        Disk_io { write = true; sector = 7 };
        Disk_io { write = false; sector = 7 };
        Loop 6L; Putchar '!'; End;
      ];
    Script.[ Rdtime; Set_timer 200L; Tick_wfi 80L; Compute 300L; Loop 4L; Halt ];
  ]

let record_run () =
  let sys = Setup.create vf2 Setup.Virtualized in
  let recorder, tracer = Setup.attach_recorder sys in
  Setup.run_scripts sys scripts;
  (sys, recorder, tracer)

let test_record_replay_fresh () =
  let sys1, recorder, _ = record_run () in
  let h1 = Setup.state_hash sys1 in
  let events = Recorder.events recorder in
  Helpers.check_int "no drops" 0 (Recorder.dropped recorder);
  Alcotest.(check bool) "recorded something" true (List.length events > 100);
  (* both harts contribute *)
  Alcotest.(check bool)
    "hart 1 in the log" true
    (List.exists (fun e -> e.Event.hart = 1) events);
  let sys2 = Setup.create vf2 Setup.Virtualized in
  let replay, _ = Setup.attach_replay sys2 ~events in
  Setup.run_scripts sys2 scripts;
  (match Replay.finish replay with
  | Replay.Match { verified } ->
      Helpers.check_int "all events verified" (List.length events) verified
  | o -> Alcotest.failf "replay: %s" (Format.asprintf "%a" Replay.pp_outcome o));
  Helpers.check_i64 "bit-identical final state" h1 (Setup.state_hash sys2)

let test_jsonl_file_roundtrip_replay () =
  let sys1, recorder, _ = record_run () in
  let path = Filename.temp_file "mir_trace" ".jsonl" in
  Recorder.save recorder ~path;
  let events =
    match Recorder.load ~path with
    | Ok e -> e
    | Error e -> Alcotest.failf "load: %s" e
  in
  Sys.remove path;
  let sys2 = Setup.create vf2 Setup.Virtualized in
  let replay, _ = Setup.attach_replay sys2 ~events in
  Setup.run_scripts sys2 scripts;
  (match Replay.finish replay with
  | Replay.Match _ -> ()
  | o -> Alcotest.failf "replay: %s" (Format.asprintf "%a" Replay.pp_outcome o));
  Helpers.check_i64 "same final state" (Setup.state_hash sys1)
    (Setup.state_hash sys2)

(* ------------------------------------------------------------------ *)
(* Checkpoints                                                         *)
(* ------------------------------------------------------------------ *)

let drop n l =
  let rec go n l = if n <= 0 then l else match l with [] -> [] | _ :: t -> go (n - 1) t in
  go n l

let test_checkpoint_restore_and_rewind_replay () =
  let sys = Setup.create vf2 Setup.Virtualized in
  let recorder, tracer = Setup.attach_recorder sys in
  let mgr =
    Setup.checkpoint_manager sys ~every:8_000L ~events_seen:(fun () ->
        Recorder.count recorder)
  in
  Setup.run_scripts sys scripts;
  let h1 = Setup.state_hash sys in
  let events = Recorder.events recorder in
  let cps = Snapshot.checkpoints mgr in
  Alcotest.(check bool) "several checkpoints" true (List.length cps >= 3);
  (* a mid-run checkpoint, not the root *)
  let mid = List.nth cps (List.length cps / 2) in
  Alcotest.(check bool) "mid is mid-run" true (Snapshot.instrs mid > 0L);
  (* restore and re-run to completion: must converge to the same state *)
  Snapshot.restore sys.Setup.machine mid;
  let replay =
    Replay.create ~machine:sys.Setup.machine
      ~events:(drop (Snapshot.events_before mid) events)
      ()
  in
  Tracer.set_sink tracer (Replay.feed replay);
  Machine.run ~max_instrs:500_000_000L sys.Setup.machine;
  Helpers.check_i64 "restored re-run matches straight-line" h1
    (Setup.state_hash sys);
  match Replay.finish replay with
  | Replay.Match { verified } ->
      Helpers.check_int "log suffix fully verified"
        (List.length events - Snapshot.events_before mid)
        verified
  | o ->
      Alcotest.failf "rewind replay: %s"
        (Format.asprintf "%a" Replay.pp_outcome o)

let test_checkpoint_paging_workload () =
  (* Checkpoint in the middle of an Sv39 workload, then rewind-replay:
     restore must drop the TLB and fetch-page cache along with the
     decode cache, or the resumed run serves translations for the restored
     page tables from the pre-restore address space and diverges. *)
  let paging_scripts sys =
    [
      Script.
        [
          Enable_paging (Mir_kernel.Paging.identity_satp sys.Setup.machine);
          Putchar 'p'; Rdtime; Set_timer 300L; Misaligned_load;
          Misaligned_store; Compute 600L; Tick_wfi 100L; Loop 8L;
          Putchar '!'; End;
        ];
    ]
  in
  let sys = Setup.create vf2 Setup.Virtualized in
  let recorder, tracer = Setup.attach_recorder sys in
  let mgr =
    Setup.checkpoint_manager sys ~every:8_000L ~events_seen:(fun () ->
        Recorder.count recorder)
  in
  Setup.run_scripts sys (paging_scripts sys);
  let h1 = Setup.state_hash sys in
  let events = Recorder.events recorder in
  let cps = Snapshot.checkpoints mgr in
  Alcotest.(check bool) "several checkpoints" true (List.length cps >= 3);
  let mid = List.nth cps (List.length cps / 2) in
  Alcotest.(check bool) "mid is mid-run" true (Snapshot.instrs mid > 0L);
  Snapshot.restore sys.Setup.machine mid;
  let replay =
    Replay.create ~machine:sys.Setup.machine
      ~events:(drop (Snapshot.events_before mid) events)
      ()
  in
  Tracer.set_sink tracer (Replay.feed replay);
  Machine.run ~max_instrs:500_000_000L sys.Setup.machine;
  Helpers.check_i64 "paged restored re-run matches straight-line" h1
    (Setup.state_hash sys);
  match Replay.finish replay with
  | Replay.Match _ -> ()
  | o ->
      Alcotest.failf "paging rewind replay: %s"
        (Format.asprintf "%a" Replay.pp_outcome o)

(* ------------------------------------------------------------------ *)
(* Divergence detection                                                *)
(* ------------------------------------------------------------------ *)

let test_divergence_detects_mutated_csr () =
  let _, recorder, _ = record_run () in
  let events = Recorder.events recorder in
  let n = List.length events / 3 in
  let sys = Setup.create vf2 Setup.Virtualized in
  let replay, _ = Setup.attach_replay sys ~events in
  (* once n events have verified, silently corrupt hart 0's mscratch —
     the digest of hart 0's next event must flag it *)
  let m = sys.Setup.machine in
  let injected = ref false in
  let prev = m.Machine.on_chunk in
  m.Machine.on_chunk <-
    Some
      (fun mm ->
        (match prev with Some f -> f mm | None -> ());
        if (not !injected) && Replay.verified replay >= n then begin
          injected := true;
          Mir_rv.Csr_file.write_raw
            mm.Machine.harts.(0).Hart.csr
            Mir_rv.Csr_addr.mscratch 0xDEAD_BEEFL
        end);
  Setup.run_scripts sys scripts;
  Alcotest.(check bool) "mutation injected" true !injected;
  match Replay.finish replay with
  | Replay.Diverged d ->
      Helpers.check_int "on the mutated hart" 0 d.Replay.hart;
      Alcotest.(check bool) "caught past the injection point" true (d.Replay.seq >= n);
      let delta =
        List.find_opt (fun dl -> dl.Replay.name = "mscratch") d.Replay.deltas
      in
      (match delta with
      | None ->
          Alcotest.failf "mscratch not in deltas: %s"
            (Format.asprintf "%a" Replay.pp_divergence d)
      | Some dl -> Helpers.check_i64 "live value" 0xDEAD_BEEFL dl.Replay.live)
  | o ->
      Alcotest.failf "expected divergence, got %s"
        (Format.asprintf "%a" Replay.pp_outcome o)

(* ------------------------------------------------------------------ *)
(* Cross-driver equivalence                                            *)
(* ------------------------------------------------------------------ *)

(* The final state hash of [scripts] on a fresh [platform] system under
   each driver: [Machine.run] (via [Setup.run_scripts]), [run_scheduled]
   under a 32-step round-robin [Sched], and replay of the [Machine.run]
   recording. *)
let driver_hashes platform scripts =
  let fresh () = Setup.create platform Setup.Virtualized in
  let run =
    let sys = fresh () in
    let recorder, _ = Setup.attach_recorder sys in
    Setup.run_scripts sys scripts;
    (Setup.state_hash sys, Recorder.events recorder)
  in
  let scheduled =
    let sys = fresh () in
    let m = sys.Setup.machine in
    let nharts = Array.length m.Machine.harts in
    List.iteri (fun h s -> Script.write m ~hart:h s) scripts;
    let rr = Mir_explore.Sched.round_robin ~slice:32 ~nharts () in
    ignore (Machine.run_scheduled m ~next:rr.Mir_explore.Sched.next);
    Setup.state_hash sys
  in
  let replayed =
    let sys = fresh () in
    let replay, _ = Setup.attach_replay sys ~events:(snd run) in
    Setup.run_scripts sys scripts;
    (match Replay.finish replay with
    | Replay.Match _ -> ()
    | o ->
        Alcotest.failf "replay: %s" (Format.asprintf "%a" Replay.pp_outcome o));
    Setup.state_hash sys
  in
  (fst run, scheduled, replayed)

let test_cross_driver_boot () =
  let scripts = Mir_workloads.Boot_trace.script () in
  let run, scheduled, replayed = driver_hashes vf2 scripts in
  Helpers.check_i64 "run_scheduled (round-robin 32)" run scheduled;
  Helpers.check_i64 "trace replay" run replayed

let test_cross_driver_fleet () =
  let module Fleet = Mir_fleet.Fleet in
  let spec = { Fleet.default_spec with Fleet.machines = 4 } in
  List.iter
    (fun id ->
      let _, stream = Fleet.plan spec id in
      let run, scheduled, replayed =
        driver_hashes Fleet.platform [ stream.Mir_fleet.Load.script ]
      in
      let label what = Printf.sprintf "machine %d: %s" id what in
      Helpers.check_i64 (label "run_scheduled (round-robin 32)") run
        scheduled;
      Helpers.check_i64 (label "trace replay") run replayed;
      Helpers.check_i64 (label "Fleet.run_one") run
        (Fleet.run_one spec id).Fleet.digest)
    [ 0; 1; 2; 3 ]

(* ------------------------------------------------------------------ *)
(* Seeded PRNG plumbing                                                *)
(* ------------------------------------------------------------------ *)

let test_config_prng () =
  let stream seed label =
    let p = Miralis.Config.derive seed label in
    List.init 8 (fun _ -> Mir_util.Prng.next p)
  in
  Alcotest.(check (list int64))
    "same seed+label is deterministic"
    (stream 42L "verif:mret") (stream 42L "verif:mret");
  Alcotest.(check bool)
    "different labels decorrelate" true
    (stream 42L "verif:mret" <> stream 42L "verif:sret");
  Alcotest.(check bool)
    "different seeds decorrelate" true
    (stream 42L "verif:mret" <> stream 43L "verif:mret")

let () =
  Alcotest.run "trace"
    [
      ( "events",
        [
          Alcotest.test_case "json round-trip all kinds" `Quick
            test_event_roundtrip;
          Alcotest.test_case "malformed json rejected" `Quick
            test_event_parse_errors;
          Alcotest.test_case "recorder jsonl round-trip" `Quick
            test_recorder_jsonl_roundtrip;
        ] );
      ( "ring",
        [ Alcotest.test_case "drops oldest on overflow" `Quick test_ring_drops_oldest ] );
      ( "memory",
        [ Alcotest.test_case "dirty-page tracking" `Quick test_dirty_pages ] );
      ( "replay",
        [
          Alcotest.test_case "record then replay fresh system" `Slow
            test_record_replay_fresh;
          Alcotest.test_case "jsonl file round-trip replay" `Slow
            test_jsonl_file_roundtrip_replay;
          Alcotest.test_case "divergence: one mutated CSR" `Slow
            test_divergence_detects_mutated_csr;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "restore + rewind-replay converge" `Slow
            test_checkpoint_restore_and_rewind_replay;
          Alcotest.test_case "checkpoint mid-paging workload" `Quick
            test_checkpoint_paging_workload;
        ] );
      ( "cross-driver",
        [
          Alcotest.test_case "boot script" `Slow test_cross_driver_boot;
          Alcotest.test_case "fleet mix script" `Slow test_cross_driver_fleet;
        ] );
      ( "prng",
        [ Alcotest.test_case "config-rooted determinism" `Quick test_config_prng ] );
    ]
