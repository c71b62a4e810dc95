(* Isolation-policy tests: the firmware sandbox against the malicious
   firmware suite, Keystone enclaves, and ACE confidential VMs. *)

module Setup = Mir_harness.Setup
module Script = Mir_kernel.Script
module Uapp = Mir_kernel.Uapp
module Platform = Mir_platform.Platform
module Machine = Mir_rv.Machine
module Hart = Mir_rv.Hart
module Sandbox = Mir_policies.Policy_sandbox
module Keystone = Mir_policies.Policy_keystone
module Ace = Mir_policies.Policy_ace
module Monitor = Miralis.Monitor
module Vhart = Miralis.Vhart

let vf2 = Platform.visionfive2

let create_sandboxed ?firmware () =
  let policy, state = Sandbox.create () in
  (* the sandbox needs 3 policy PMP slots; rebuild the config through
     Setup by adjusting the platform's default of 1 *)
  let sys =
    let m = Machine.create vf2.Platform.machine in
    let fw =
      (Option.value firmware ~default:Mir_firmware.Minisbi.image)
        ~nharts:4 ~kernel_entry:Mir_kernel.Interp_kernel.entry
    in
    Machine.load_program m Mir_firmware.Layout.fw_base (fst fw);
    Machine.load_program m Mir_kernel.Interp_kernel.entry
      (fst (Mir_kernel.Interp_kernel.image ()));
    let config =
      Miralis.Config.make ~policy_pmp_slots:Sandbox.pmp_slots
        ~cost:vf2.Platform.cost ~machine:vf2.Platform.machine ()
    in
    let mir = Monitor.create ~policy config m in
    Monitor.boot mir ~fw_entry:Mir_firmware.Layout.fw_base;
    {
      Setup.platform = vf2;
      mode = Setup.Virtualized;
      machine = m;
      miralis = Some mir;
    }
  in
  (sys, state)

let test_sandbox_honest_firmware () =
  let sys, state = create_sandboxed () in
  Setup.run_scripts sys
    [
      [
        Script.Putchar 'A';
        Script.Rdtime;
        Script.Set_timer 100L;
        Script.Tick_wfi 50L;
        Script.Misaligned_load;
        Script.Putchar 'Z';
        Script.End;
      ];
    ];
  Helpers.check_str "uart" "AZ" (Setup.uart_output sys);
  Alcotest.(check bool)
    "no violation" true
    ((Option.get sys.Setup.miralis).Monitor.violation = None);
  Alcotest.(check bool) "sandbox locked" true state.Sandbox.locked;
  Alcotest.(check bool)
    "boot image hashed" true
    (state.Sandbox.boot_image_hash <> 0L)

let test_sandbox_blocks_attack attack () =
  let sys, _state =
    create_sandboxed ~firmware:(Mir_firmware.Evil.image attack) ()
  in
  (* Any SBI call from the kernel triggers the attack. *)
  Setup.run_scripts sys ~max_instrs:2_000_000L
    [ [ Script.Putchar 'A'; Script.End ] ];
  let mir = Option.get sys.Setup.miralis in
  Alcotest.(check bool)
    (Mir_firmware.Evil.attack_name attack ^ " detected")
    true
    (mir.Monitor.violation <> None);
  Alcotest.(check bool)
    "attack did not succeed" false
    (String.contains (Setup.uart_output sys) 'X')

let test_sandbox_scrubs_registers () =
  let sys, state = create_sandboxed () in
  state.Sandbox.locked <- true;
  let mir = Option.get sys.Setup.miralis in
  let hart = sys.Setup.machine.Machine.harts.(0) in
  let vh = mir.Monitor.vharts.(0) in
  vh.Vhart.world <- Vhart.Os;
  (* Pretend the OS performs a set_timer SBI call with secrets in
     callee-saved registers. *)
  for r = 1 to 31 do
    Hart.set hart r (Int64.of_int (0x1000 + r))
  done;
  Hart.set hart 17 Mir_sbi.Sbi.ext_time;
  Hart.set hart 16 0L;
  Hart.set hart 10 999L;
  let ctx = Monitor.policy_ctx mir hart in
  ignore (mir.Monitor.policy.Miralis.Policy.on_ecall_from_os ctx);
  Monitor.switch_to_fw mir hart vh;
  (* allow-list for set_timer: a0, a6, a7 *)
  Helpers.check_i64 "a0 passes" 999L (Hart.get hart 10);
  Helpers.check_i64 "a7 passes" Mir_sbi.Sbi.ext_time (Hart.get hart 17);
  Helpers.check_i64 "t0 scrubbed" 0L (Hart.get hart 5);
  Helpers.check_i64 "s3 scrubbed" 0L (Hart.get hart 19);
  Helpers.check_i64 "sp scrubbed" 0L (Hart.get hart 2);
  (* Firmware computes a return value; everything else must come back. *)
  Hart.set hart 10 0L;
  Hart.set hart 11 7L;
  Monitor.switch_to_os mir hart vh;
  Helpers.check_i64 "a0 is return" 0L (Hart.get hart 10);
  Helpers.check_i64 "a1 is return" 7L (Hart.get hart 11);
  Helpers.check_i64 "t0 restored" 0x1005L (Hart.get hart 5);
  Helpers.check_i64 "sp restored" 0x1002L (Hart.get hart 2)

(* ------------------------------------------------------------------ *)
(* Keystone                                                            *)
(* ------------------------------------------------------------------ *)

let enclave_base = 0x80800000L
let enclave_size = 4096L

let create_keystone () =
  let policy, state = Keystone.create () in
  let m = Machine.create vf2.Platform.machine in
  Machine.load_program m Mir_firmware.Layout.fw_base
    (fst
       (Mir_firmware.Minisbi.image ~nharts:4
          ~kernel_entry:Mir_kernel.Interp_kernel.entry));
  Machine.load_program m Mir_kernel.Interp_kernel.entry
    (fst (Mir_kernel.Interp_kernel.image ()));
  let config =
    Miralis.Config.make ~policy_pmp_slots:Keystone.pmp_slots
      ~cost:vf2.Platform.cost ~machine:vf2.Platform.machine ()
  in
  let mir = Monitor.create ~policy config m in
  Monitor.boot mir ~fw_entry:Mir_firmware.Layout.fw_base;
  let sys =
    {
      Setup.platform = vf2;
      mode = Setup.Virtualized;
      machine = m;
      miralis = Some mir;
    }
  in
  (sys, state)

let stage_enclave sys ~iters =
  Machine.load_program sys.Setup.machine enclave_base
    (Uapp.image ~base:enclave_base ~iters);
  Script.write_descriptor sys.Setup.machine ~index:0 ~base:enclave_base
    ~size:enclave_size ~entry:enclave_base

let test_keystone_enclave_runs () =
  let sys, state = create_keystone () in
  stage_enclave sys ~iters:50L;
  Setup.run_scripts sys
    [ [ Script.Enclave_round 0L; Script.Putchar 'K'; Script.End ] ];
  Helpers.check_str "uart" "K" (Setup.uart_output sys);
  Alcotest.(check bool) "entered" true (state.Keystone.entries_count >= 1);
  Alcotest.(check int) "exited" 1 state.Keystone.exits_count;
  Helpers.check_i64 "checksum"
    (Uapp.expected_checksum ~iters:50L)
    (Script.result_value sys.Setup.machine ~hart:0)

let test_keystone_os_cannot_read_enclave () =
  let sys, _ = create_keystone () in
  stage_enclave sys ~iters:10L;
  (* Pre-create the enclave via one round... instead, probe while an
     enclave exists: create it white-box and let the kernel probe. *)
  let mir = Option.get sys.Setup.miralis in
  ignore mir;
  (* Mark probe cell with a sentinel first. *)
  Setup.run_scripts sys ~max_instrs:3_000_000L
    [
      [
        (* Create an enclave (round runs it to completion and destroys
           it), then create another and probe while it exists: the
           simplest observable variant is to probe enclave memory
           after staging but before any round — no enclave exists, so
           the probe succeeds; then run a round and probe after
           destroy: memory must be scrubbed to zero. *)
        Script.Load_probe enclave_base;
        Script.Enclave_round 0L;
        Script.Load_probe enclave_base;
        Script.End;
      ];
    ];
  (* After destroy, the enclave image was scrubbed: the second probe
     must read zero (the first read the app's first instruction). *)
  Helpers.check_i64 "enclave memory scrubbed on destroy" 0L
    (Script.probe_value sys.Setup.machine ~hart:0)

let test_keystone_isolation_while_enclave_exists () =
  let sys, state = create_keystone () in
  stage_enclave sys ~iters:10L;
  (* Create an enclave white-box (as if previously created) and verify
     an OS read of its memory faults. *)
  let e =
    {
      Keystone.eid = 99;
      base = enclave_base;
      size = enclave_size;
      entry = enclave_base;
      state = Keystone.Created;
    }
  in
  state.Keystone.enclaves <- [ e ];
  let mir = Option.get sys.Setup.miralis in
  Monitor.reinstall_pmp mir sys.Setup.machine.Machine.harts.(0);
  ignore
    (Machine.phys_store sys.Setup.machine
       (Int64.add (Script.region_base ~hart:0) Script.counter_probe)
       8 0x5AFEL);
  Setup.run_scripts sys ~max_instrs:3_000_000L
    [ [ Script.Load_probe enclave_base; Script.Putchar 'N'; Script.End ] ];
  (* The load faults; MiniSBI reports the unhandled trap ('!') and
     stops. The probe value must not have been overwritten with
     enclave memory. *)
  Helpers.check_i64 "probe blocked" 0x5AFEL
    (Script.probe_value sys.Setup.machine ~hart:0);
  Alcotest.(check bool)
    "kernel did not continue" false
    (String.contains (Setup.uart_output sys) 'N')

let test_keystone_interrupted_and_resumed () =
  let sys, state = create_keystone () in
  (* A long enclave: the armed timer interrupts it at least once. *)
  stage_enclave sys ~iters:40_000L;
  Setup.run_scripts sys
    [ [ Script.Set_timer 300L; Script.Enclave_round 0L; Script.End ] ];
  Alcotest.(check bool)
    "timer interrupted the enclave" true
    (state.Keystone.entries_count >= 2);
  Alcotest.(check int) "eventually completed" 1 state.Keystone.exits_count;
  Helpers.check_i64 "checksum correct despite interruption"
    (Uapp.expected_checksum ~iters:40_000L)
    (Script.result_value sys.Setup.machine ~hart:0);
  Alcotest.(check bool)
    "OS observed its timer tick" true
    (Script.sti_count sys.Setup.machine ~hart:0 >= 1L)

(* ------------------------------------------------------------------ *)
(* ACE                                                                 *)
(* ------------------------------------------------------------------ *)

let create_ace () =
  let policy, state = Ace.create () in
  let platform = Platform.qemu_virt in
  let m = Machine.create platform.Platform.machine in
  Machine.load_program m Mir_firmware.Layout.fw_base
    (fst
       (Mir_firmware.Minisbi.image ~nharts:4
          ~kernel_entry:Mir_kernel.Interp_kernel.entry));
  Machine.load_program m Mir_kernel.Interp_kernel.entry
    (fst (Mir_kernel.Interp_kernel.image ()));
  let config =
    Miralis.Config.make ~policy_pmp_slots:Ace.pmp_slots
      ~cost:platform.Platform.cost ~machine:platform.Platform.machine ()
  in
  let mir = Monitor.create ~policy config m in
  Monitor.boot mir ~fw_entry:Mir_firmware.Layout.fw_base;
  let sys =
    {
      Setup.platform;
      mode = Setup.Virtualized;
      machine = m;
      miralis = Some mir;
    }
  in
  (sys, state)

let test_ace_cvm_lifecycle () =
  let sys, state = create_ace () in
  Machine.load_program sys.Setup.machine enclave_base
    (Uapp.image ~base:enclave_base ~iters:80L);
  Script.write_descriptor sys.Setup.machine ~index:0 ~base:enclave_base
    ~size:enclave_size ~entry:enclave_base;
  Setup.run_scripts sys
    [ [ Script.Cvm_round 0L; Script.Putchar 'C'; Script.End ] ];
  Helpers.check_str "uart" "C" (Setup.uart_output sys);
  Alcotest.(check bool) "vcpu entered" true (state.Ace.vcpu_entries >= 1);
  Alcotest.(check bool) "vm exited" true (state.Ace.vm_exits >= 1);
  Helpers.check_i64 "checksum"
    (Uapp.expected_checksum ~iters:80L)
    (Script.result_value sys.Setup.machine ~hart:0);
  (* destroyed memory is scrubbed *)
  Helpers.check_i64 "scrubbed" 0L
    (Option.get (Machine.phys_load sys.Setup.machine enclave_base 8))

let test_ace_firmware_cannot_read_cvm () =
  (* The paper's headline for the ACE policy: the firmware is excluded
     from the CVM's TCB. A malicious firmware trying to read CVM
     memory faults on the policy PMP. *)
  let policy, state = Ace.create () in
  let m = Machine.create vf2.Platform.machine in
  Machine.load_program m Mir_firmware.Layout.fw_base
    (fst
       (Mir_firmware.Evil.image Mir_firmware.Evil.Read_os_memory ~nharts:4
          ~kernel_entry:Mir_kernel.Interp_kernel.entry));
  Machine.load_program m Mir_kernel.Interp_kernel.entry
    (fst (Mir_kernel.Interp_kernel.image ()));
  let config =
    Miralis.Config.make ~policy_pmp_slots:Ace.pmp_slots
      ~cost:vf2.Platform.cost ~machine:vf2.Platform.machine ()
  in
  let mir = Monitor.create ~policy config m in
  Monitor.boot mir ~fw_entry:Mir_firmware.Layout.fw_base;
  (* Stage a CVM over the kernel image area the evil firmware reads. *)
  state.Ace.cvms <-
    [
      {
        Ace.id = 1;
        base = Mir_kernel.Interp_kernel.entry;
        size = 4096L;
        entry = Mir_kernel.Interp_kernel.entry;
        state = Ace.Ready;
        owner = None;
        leaked = false;
      };
    ];
  Array.iter (fun h -> Monitor.reinstall_pmp mir h) m.Machine.harts;
  let sys =
    { Setup.platform = vf2; mode = Setup.Virtualized; machine = m;
      miralis = Some mir }
  in
  (* The kernel's first instruction fetch... the kernel itself is
     inside the CVM region now, so use a script-free run: the evil
     firmware attacks on the first trap from the OS; the kernel's
     first fetch faults on the CVM PMP, reinjects to the firmware,
     which then attacks and faults itself. Either way the attack's
     success marker must not appear. *)
  Machine.run ~max_instrs:2_000_000L m;
  Alcotest.(check bool)
    "attack did not succeed" false
    (String.contains (Setup.uart_output sys) 'X')

(* ------------------------------------------------------------------ *)
(* ACE white-box: stage COVH ecalls exactly the way a trap-from-S      *)
(* would and call the policy hooks directly, mirroring the             *)
(* differential fuzzer's harness. This pins the steal/return contract  *)
(* at the unit level: argument validation, overlap/slot accounting,    *)
(* ownership transfer, VS-context shadowing and scrub-on-destroy.      *)
(* ------------------------------------------------------------------ *)

module Csr_file = Mir_rv.Csr_file
module Csr_addr = Mir_rv.Csr_addr
module Priv = Mir_rv.Priv
module Pmp = Mir_rv.Pmp
module Cause = Mir_rv.Cause
module Ms = Mir_rv.Csr_spec.Mstatus
module Policy = Miralis.Policy
module Vfm_stats = Miralis.Vfm_stats

let ace_host_pc = 0x8020_0000L
let ace_host_medeleg = 0xB109L

let ace_harness ?(nharts = 2) () =
  let p = Platform.qemu_virt in
  let mc = { p.Platform.machine with Machine.nharts } in
  let m = Machine.create mc in
  let policy, astate = Ace.create () in
  let config =
    Miralis.Config.make ~policy_pmp_slots:Ace.pmp_slots
      ~cost:p.Platform.cost ~machine:mc ()
  in
  let mir = Monitor.create ~policy config m in
  Monitor.boot mir ~fw_entry:Mir_firmware.Layout.fw_base;
  Array.iter
    (fun hart ->
      let ctx = Monitor.policy_ctx mir hart in
      let vh = ctx.Policy.vhart in
      vh.Vhart.world <- Vhart.Os;
      (* MiniSBI's boot-time vPMP: entry 0 all-allow for S/U, so the
         policy's per-CVM deny entries are load-bearing *)
      Csr_file.write_raw vh.Vhart.csr (Csr_addr.pmpaddr 0) (-1L);
      Csr_file.write_raw vh.Vhart.csr (Csr_addr.pmpcfg 0) 0x1FL;
      Csr_file.write_raw hart.Hart.csr Csr_addr.medeleg ace_host_medeleg;
      Monitor.reinstall_pmp mir hart)
    m.Machine.harts;
  (m, mir, astate)

(* Issue one COVH ecall from hart [h] and return the (a0, a1) pair the
   host observes afterwards. *)
let covh (m, mir, _) ~h fid a0 a1 a2 =
  let hart = m.Machine.harts.(h) in
  let ctx = Monitor.policy_ctx mir hart in
  Hart.set hart 17 Ace.ext_covh;
  Hart.set hart 16 fid;
  Hart.set hart 10 a0;
  Hart.set hart 11 a1;
  Hart.set hart 12 a2;
  Csr_file.write_raw hart.Hart.csr Csr_addr.mepc ace_host_pc;
  let ms = Csr_file.read_raw hart.Hart.csr Csr_addr.mstatus in
  Csr_file.write_raw hart.Hart.csr Csr_addr.mstatus (Ms.set_mpp ms Priv.S);
  ignore (mir.Monitor.policy.Policy.on_ecall_from_os ctx);
  (Hart.get hart 10, Hart.get hart 11)

let ace_promote t ~h ~base ~size ~entry =
  covh t ~h Ace.fid_promote base size entry

let ace_run t ~h id = covh t ~h Ace.fid_run_vcpu (Int64.of_int id) 0L 0L

let ace_destroy t ~h id = covh t ~h Ace.fid_destroy (Int64.of_int id) 0L 0L

(* Deliver a machine timer interrupt while hart [h] runs a CVM whose
   current pc is [pc]; the policy suspends the vcpu and returns the
   hart to the host. *)
let ace_interrupt (m, mir, _) ~h ~pc =
  let hart = m.Machine.harts.(h) in
  let ctx = Monitor.policy_ctx mir hart in
  Csr_file.write_raw hart.Hart.csr Csr_addr.mepc pc;
  ignore (mir.Monitor.policy.Policy.on_interrupt ctx Cause.Machine_timer);
  (Hart.get hart 10, Hart.get hart 11)

let s_readable (m, _, _) ~h ~addr =
  let hart = m.Machine.harts.(h) in
  Pmp.check_ranges
    (Csr_file.pmp_ranges hart.Hart.csr)
    ~priv:Priv.S Pmp.Read ~addr ~size:8

let ace_b0 = 0x8080_0000L

let check_pair name (ea, eb) (oa, ob) =
  Helpers.check_i64 (name ^ " a0") ea oa;
  Helpers.check_i64 (name ^ " a1") eb ob

let test_ace_promote_rejects_bad_geometry () =
  let t = ace_harness () in
  check_pair "sub-page size" (-3L, 0L)
    (ace_promote t ~h:0 ~base:ace_b0 ~size:2048L ~entry:ace_b0);
  check_pair "non-power-of-two size" (-3L, 0L)
    (ace_promote t ~h:0 ~base:ace_b0 ~size:12288L ~entry:ace_b0);
  check_pair "base misaligned to size" (-3L, 0L)
    (ace_promote t ~h:0
       ~base:(Int64.add ace_b0 4096L)
       ~size:8192L
       ~entry:(Int64.add ace_b0 4096L));
  check_pair "zero size" (-3L, 0L)
    (ace_promote t ~h:0 ~base:ace_b0 ~size:0L ~entry:ace_b0);
  (* nothing was created *)
  check_pair "tsm_info sees no cvm" (0L, 0L)
    (covh t ~h:0 Ace.fid_tsm_info 0L 0L 0L)

let test_ace_promote_overlap_regression () =
  let t = ace_harness () in
  check_pair "first region" (0L, 1L)
    (ace_promote t ~h:0 ~base:ace_b0 ~size:8192L ~entry:ace_b0);
  (* adjacent is fine... *)
  let adj = Int64.add ace_b0 8192L in
  check_pair "adjacent region" (0L, 2L)
    (ace_promote t ~h:0 ~base:adj ~size:4096L ~entry:adj);
  check_pair "destroy adjacent" (0L, 0L) (ace_destroy t ~h:0 2);
  (* ... but sharing any page is not *)
  let straddle = Int64.add ace_b0 4096L in
  check_pair "straddling page rejected" (-3L, 0L)
    (ace_promote t ~h:0 ~base:straddle ~size:4096L ~entry:straddle);
  check_pair "exact alias rejected" (-3L, 0L)
    (ace_promote t ~h:0 ~base:ace_b0 ~size:8192L ~entry:ace_b0)

let test_ace_slot_exhaustion () =
  let t = ace_harness () in
  (* pmp_slots - 1 live CVMs fit (one slot is the deny-all floor) *)
  let limit = Ace.pmp_slots - 1 in
  for i = 0 to limit - 1 do
    let base = Int64.add ace_b0 (Int64.mul (Int64.of_int i) 4096L) in
    check_pair
      (Printf.sprintf "cvm %d fits" (i + 1))
      (0L, Int64.of_int (i + 1))
      (ace_promote t ~h:0 ~base ~size:4096L ~entry:base)
  done;
  let over = Int64.add ace_b0 0x10000L in
  check_pair "one past the slot limit" (-3L, 0L)
    (ace_promote t ~h:0 ~base:over ~size:4096L ~entry:over);
  (* destroying one frees a slot *)
  check_pair "destroy frees a slot" (0L, 0L) (ace_destroy t ~h:0 1);
  check_pair "retry fits" (0L, Int64.of_int (limit + 1))
    (ace_promote t ~h:0 ~base:over ~size:4096L ~entry:over)

let test_ace_running_refuses_run_and_destroy () =
  let t = ace_harness () in
  let m, _, _ = t in
  check_pair "promote" (0L, 1L)
    (ace_promote t ~h:0 ~base:ace_b0 ~size:4096L ~entry:ace_b0);
  ignore (ace_run t ~h:0 1);
  let h0 = m.Machine.harts.(0) in
  Helpers.check_i64 "stolen hart enters at cvm entry" ace_b0 h0.Hart.pc;
  Alcotest.(check bool) "stolen hart runs in U" true (h0.Hart.priv = Priv.U);
  (* ownership is the synchronization point: a Running CVM refuses a
     second steal and refuses destruction *)
  check_pair "second run_vcpu rejected" (-3L, 0L) (ace_run t ~h:1 1);
  check_pair "destroy-while-running rejected" (-3L, 0L)
    (ace_destroy t ~h:1 1);
  (* voluntary teecall exit: err 0, value = a0 at the call *)
  check_pair "teecall exit" (0L, 0x77L) (covh t ~h:0 0L 0x77L 0L 0L);
  Alcotest.(check bool) "host resumes in S" true (h0.Hart.priv = Priv.S);
  Helpers.check_i64 "host resumes past the run_vcpu ecall"
    (Int64.add ace_host_pc 4L) h0.Hart.pc;
  (* back to Ready: both steal and destroy work again *)
  check_pair "re-run after exit" (0L, 0L) (ace_run t ~h:1 1);
  check_pair "teecall on second hart" (0L, 0L) (covh t ~h:1 0L 0L 0L 0L);
  check_pair "destroy once idle" (0L, 0L) (ace_destroy t ~h:0 1)

let test_ace_suspend_resume_preserves_vs_context () =
  let t = ace_harness () in
  let m, _, _ = t in
  let h0 = m.Machine.harts.(0) in
  (* distinctive host S-context *)
  let host_val i = Int64.of_int (0x51000 + i) in
  List.iteri
    (fun i a -> Csr_file.write_raw h0.Hart.csr a (host_val i))
    Ace.vs_context_csrs;
  check_pair "promote" (0L, 1L)
    (ace_promote t ~h:0 ~base:ace_b0 ~size:4096L ~entry:ace_b0);
  ignore (ace_run t ~h:0 1);
  (* a fresh vcpu starts with a zeroed VS-context *)
  List.iter
    (fun a ->
      Helpers.check_i64 "fresh vcpu csr" 0L (Csr_file.read_raw h0.Hart.csr a))
    Ace.vs_context_csrs;
  (* the guest dirties its VS-context and some registers *)
  let cvm_val i = Int64.of_int (0xC0000 + i) in
  List.iteri
    (fun i a -> Csr_file.write_raw h0.Hart.csr a (cvm_val i))
    Ace.vs_context_csrs;
  Hart.set h0 9 0xDEADL;
  let cvm_pc = Int64.add ace_b0 0x40L in
  check_pair "interrupt suspends" (Ace.err_interrupted, 0L)
    (ace_interrupt t ~h:0 ~pc:cvm_pc);
  (* host context restored exactly *)
  List.iteri
    (fun i a ->
      Helpers.check_i64 "host csr restored" (host_val i)
        (Csr_file.read_raw h0.Hart.csr a))
    Ace.vs_context_csrs;
  Alcotest.(check bool) "host back in S (mpp)" true
    (Ms.get_mpp (Csr_file.read_raw h0.Hart.csr Csr_addr.mstatus) = Priv.S);
  (* resume from hart 1: the suspended VS-context and regs come back,
     execution continues at the interrupted pc *)
  ignore (ace_run t ~h:1 1);
  let h1 = m.Machine.harts.(1) in
  Helpers.check_i64 "resumes at interrupted pc" cvm_pc h1.Hart.pc;
  Helpers.check_i64 "guest reg preserved" 0xDEADL (Hart.get h1 9);
  List.iteri
    (fun i a ->
      Helpers.check_i64 "guest csr preserved" (cvm_val i)
        (Csr_file.read_raw h1.Hart.csr a))
    Ace.vs_context_csrs;
  check_pair "teecall out" (0L, 0L) (covh t ~h:1 0L 0L 0L 0L)

let test_ace_destroy_scrubs_and_releases () =
  let t = ace_harness () in
  let m, _, _ = t in
  check_pair "promote two pages" (0L, 1L)
    (ace_promote t ~h:0 ~base:ace_b0 ~size:8192L ~entry:ace_b0);
  ignore (Machine.phys_store m ace_b0 8 0x5EC7E7L);
  ignore (Machine.phys_store m (Int64.add ace_b0 4112L) 8 0x5EC7E8L);
  check_pair "destroy" (0L, 0L) (ace_destroy t ~h:0 1);
  Helpers.check_i64 "first page scrubbed" 0L
    (Option.get (Machine.phys_load m ace_b0 8));
  Helpers.check_i64 "second page scrubbed" 0L
    (Option.get (Machine.phys_load m (Int64.add ace_b0 4112L) 8));
  (* the pages are released: the exact same region promotes again *)
  check_pair "region reusable" (0L, 2L)
    (ace_promote t ~h:0 ~base:ace_b0 ~size:8192L ~entry:ace_b0)

let test_ace_sibling_pmp_deny_propagates () =
  let t = ace_harness () in
  check_pair "promote" (0L, 1L)
    (ace_promote t ~h:0 ~base:ace_b0 ~size:4096L ~entry:ace_b0);
  (* promotion on hart 0 re-protects every hart *)
  Alcotest.(check bool) "hart 0 denied after promote" false
    (s_readable t ~h:0 ~addr:ace_b0);
  Alcotest.(check bool) "hart 1 denied after promote" false
    (s_readable t ~h:1 ~addr:ace_b0);
  (* the stolen hart sees its CVM; the sibling still must not *)
  ignore (ace_run t ~h:0 1);
  Alcotest.(check bool) "owner reads its cvm" true
    (s_readable t ~h:0 ~addr:ace_b0);
  Alcotest.(check bool) "sibling still denied" false
    (s_readable t ~h:1 ~addr:ace_b0);
  (* after the return both are excluded again *)
  ignore (covh t ~h:0 0L 0L 0L 0L);
  Alcotest.(check bool) "owner denied after exit" false
    (s_readable t ~h:0 ~addr:ace_b0);
  Alcotest.(check bool) "sibling denied after exit" false
    (s_readable t ~h:1 ~addr:ace_b0)

let test_ace_medeleg_swapped_on_steal () =
  let t = ace_harness () in
  let m, _, _ = t in
  let h0 = m.Machine.harts.(0) in
  let rd () = Csr_file.read_raw h0.Hart.csr Csr_addr.medeleg in
  check_pair "promote" (0L, 1L)
    (ace_promote t ~h:0 ~base:ace_b0 ~size:4096L ~entry:ace_b0);
  Helpers.check_i64 "host delegation before steal" ace_host_medeleg (rd ());
  ignore (ace_run t ~h:0 1);
  (* ecall-from-U must reach the monitor while the CVM runs *)
  Helpers.check_i64 "bit 8 stripped while stolen" 0L
    (Int64.logand (rd ()) 0x100L);
  ignore (covh t ~h:0 0L 0L 0L 0L);
  Helpers.check_i64 "host delegation restored" ace_host_medeleg (rd ())

let test_ace_steal_return_counters () =
  let t = ace_harness () in
  let _, mir, astate = t in
  check_pair "promote" (0L, 1L)
    (ace_promote t ~h:0 ~base:ace_b0 ~size:4096L ~entry:ace_b0);
  ignore (ace_run t ~h:0 1);
  ignore (covh t ~h:0 0L 0L 0L 0L);
  ignore (ace_run t ~h:1 1);
  ignore (ace_interrupt t ~h:1 ~pc:(Int64.add ace_b0 8L));
  let s = mir.Monitor.stats in
  Alcotest.(check int) "two steals" 2 s.Vfm_stats.ace_steals;
  Alcotest.(check int) "two returns" 2 s.Vfm_stats.ace_returns;
  Alcotest.(check int) "policy vcpu entries" 2 astate.Ace.vcpu_entries;
  Alcotest.(check int) "policy vm exits" 2 astate.Ace.vm_exits

let test_ace_tsm_info_tracks_live_count () =
  let t = ace_harness () in
  let info () = snd (covh t ~h:0 Ace.fid_tsm_info 0L 0L 0L) in
  Helpers.check_i64 "empty" 0L (info ());
  ignore (ace_promote t ~h:0 ~base:ace_b0 ~size:4096L ~entry:ace_b0);
  Helpers.check_i64 "one live" 1L (info ());
  let b2 = Int64.add ace_b0 4096L in
  ignore (ace_promote t ~h:0 ~base:b2 ~size:4096L ~entry:b2);
  Helpers.check_i64 "two live" 2L (info ());
  check_pair "destroy unknown id" (-3L, 0L) (ace_destroy t ~h:0 9);
  ignore (ace_destroy t ~h:0 1);
  Helpers.check_i64 "one after destroy" 1L (info ());
  check_pair "double destroy rejected" (-3L, 0L) (ace_destroy t ~h:0 1)

(* ------------------------------------------------------------------ *)
(* Schedule independence: an isolation verdict must not depend on how  *)
(* harts interleave. Honest firmware stays clean and evil firmware is  *)
(* caught under every seeded random schedule, and the explorer's       *)
(* keystone oracles hold across schedules when no bug is injected.     *)
(* ------------------------------------------------------------------ *)

module Explore = Mir_explore.Explore
module ExpScenario = Mir_explore.Scenario
module Sched = Mir_explore.Sched
module Config = Miralis.Config

let schedule_seeds = [ 0; 1; 2 ]

(* Run a system to completion under a seeded random schedule through
   the explorer's wrapper (halted harts remapped to the next runnable
   one), stopping at the first switch point after the policy has
   flagged a violation. *)
let run_random_schedule sys ~label ~max_steps =
  let mir = Option.get sys.Setup.miralis in
  let inst =
    {
      ExpScenario.system = sys;
      mir;
      oracles = [ Mir_explore.Oracle.policy_flag mir ];
      on_switch = (fun ~step:_ -> ());
      max_steps;
    }
  in
  let prng = Config.derive Config.default_seed label in
  let nharts = Array.length sys.Setup.machine.Machine.harts in
  ignore (Explore.run_once inst ~sched:(Sched.random ~prng ~nharts ()) ())

let test_sandbox_honest_schedule_independent () =
  List.iter
    (fun i ->
      let sys, _ = create_sandboxed () in
      Array.iter
        (fun h ->
          Script.write sys.Setup.machine ~hart:h.Hart.id
            (if h.Hart.id = 0 then
               [
                 Script.Putchar 'A';
                 Script.Rdtime;
                 Script.Set_timer 100L;
                 Script.Misaligned_load;
                 Script.Putchar 'Z';
                 Script.End;
               ]
             else [ Script.Halt ]))
        sys.Setup.machine.Machine.harts;
      run_random_schedule sys
        ~label:(Printf.sprintf "policies:sandbox:honest:%d" i)
        ~max_steps:2_000_000;
      Alcotest.(check bool)
        (Printf.sprintf "no violation under schedule %d" i)
        true
        ((Option.get sys.Setup.miralis).Monitor.violation = None);
      Helpers.check_str
        (Printf.sprintf "uart under schedule %d" i)
        "AZ" (Setup.uart_output sys))
    schedule_seeds

let test_sandbox_evil_schedule_independent () =
  List.iter
    (fun i ->
      let sys, _ =
        create_sandboxed
          ~firmware:(Mir_firmware.Evil.image Mir_firmware.Evil.Read_os_memory)
          ()
      in
      Array.iter
        (fun h ->
          Script.write sys.Setup.machine ~hart:h.Hart.id
            (if h.Hart.id = 0 then [ Script.Putchar 'A'; Script.End ]
             else [ Script.Halt ]))
        sys.Setup.machine.Machine.harts;
      run_random_schedule sys
        ~label:(Printf.sprintf "policies:sandbox:evil:%d" i)
        ~max_steps:2_000_000;
      Alcotest.(check bool)
        (Printf.sprintf "attack detected under schedule %d" i)
        true
        ((Option.get sys.Setup.miralis).Monitor.violation <> None);
      Alcotest.(check bool)
        (Printf.sprintf "attack failed under schedule %d" i)
        false
        (String.contains (Setup.uart_output sys) 'X'))
    schedule_seeds

let test_keystone_oracles_schedule_independent () =
  let scn = Option.get (ExpScenario.find "keystone") in
  List.iter
    (fun i ->
      let inst =
        scn.ExpScenario.build ~nharts:2 ~seed:Config.default_seed
      in
      let prng =
        Config.derive Config.default_seed
          (Printf.sprintf "policies:keystone:%d" i)
      in
      let o =
        Explore.run_once inst ~sched:(Sched.random ~prng ~nharts:2 ()) ()
      in
      match o.Explore.violation with
      | None -> ()
      | Some v ->
          Alcotest.failf "schedule %d: spurious %s violation (%s)" i
            v.Mir_explore.Oracle.oracle v.Mir_explore.Oracle.detail)
    schedule_seeds

let () =
  Alcotest.run "policies"
    ([
       Alcotest.test_case "sandbox: honest firmware" `Quick
         test_sandbox_honest_firmware;
       Alcotest.test_case "sandbox: register scrubbing" `Quick
         test_sandbox_scrubs_registers;
     ]
     @ List.map
         (fun a ->
           Alcotest.test_case
             ("sandbox blocks: " ^ Mir_firmware.Evil.attack_name a)
             `Quick
             (test_sandbox_blocks_attack a))
         Mir_firmware.Evil.all_attacks
     @ [
         Alcotest.test_case "keystone: enclave runs" `Quick
           test_keystone_enclave_runs;
         Alcotest.test_case "keystone: scrub on destroy" `Quick
           test_keystone_os_cannot_read_enclave;
         Alcotest.test_case "keystone: OS blocked from enclave" `Quick
           test_keystone_isolation_while_enclave_exists;
         Alcotest.test_case "keystone: interrupt & resume" `Quick
           test_keystone_interrupted_and_resumed;
         Alcotest.test_case "ace: cvm lifecycle" `Quick test_ace_cvm_lifecycle;
         Alcotest.test_case "ace: firmware blocked from cvm" `Quick
           test_ace_firmware_cannot_read_cvm;
         Alcotest.test_case "ace: promote rejects bad geometry" `Quick
           test_ace_promote_rejects_bad_geometry;
         Alcotest.test_case "ace: promote overlap regression" `Quick
           test_ace_promote_overlap_regression;
         Alcotest.test_case "ace: slot exhaustion" `Quick
           test_ace_slot_exhaustion;
         Alcotest.test_case "ace: running refuses run & destroy" `Quick
           test_ace_running_refuses_run_and_destroy;
         Alcotest.test_case "ace: suspend/resume preserves VS-context" `Quick
           test_ace_suspend_resume_preserves_vs_context;
         Alcotest.test_case "ace: destroy scrubs and releases" `Quick
           test_ace_destroy_scrubs_and_releases;
         Alcotest.test_case "ace: sibling PMP deny propagates" `Quick
           test_ace_sibling_pmp_deny_propagates;
         Alcotest.test_case "ace: medeleg swapped on steal" `Quick
           test_ace_medeleg_swapped_on_steal;
         Alcotest.test_case "ace: steal/return counters" `Quick
           test_ace_steal_return_counters;
         Alcotest.test_case "ace: tsm_info tracks live count" `Quick
           test_ace_tsm_info_tracks_live_count;
         Alcotest.test_case "sandbox honest: schedule independent" `Slow
           test_sandbox_honest_schedule_independent;
         Alcotest.test_case "sandbox evil: schedule independent" `Slow
           test_sandbox_evil_schedule_independent;
         Alcotest.test_case "keystone oracles: schedule independent" `Slow
           test_keystone_oracles_schedule_independent;
       ]
    |> fun tests -> [ ("policies", tests) ])
