(* Explorer workload scenarios.

   Each scenario is a small multi-hart system (MiniSBI + interpreter
   kernel under Miralis, visionfive2 cost model) whose
   workload keeps one class of cross-hart invariant under pressure,
   plus the oracles that watch it. A scenario build is a pure function
   of (nharts, seed), so a schedule replayed against the same pair
   reproduces bit-identically.

   Each scenario also names the race bug (Race.bug) it is
   designed to surface — the explorer arms the bug on the built
   machine when injection is requested. *)

module Machine = Mir_rv.Machine
module Hart = Mir_rv.Hart
module Vmem = Mir_rv.Vmem
module Platform = Mir_platform.Platform
module Script = Mir_kernel.Script
module Paging = Mir_kernel.Paging
module Interp_kernel = Mir_kernel.Interp_kernel
module Uapp = Mir_kernel.Uapp
module Layout = Mir_firmware.Layout
module Minisbi = Mir_firmware.Minisbi
module Setup = Mir_harness.Setup
module Keystone = Mir_policies.Policy_keystone
module Ace = Mir_policies.Policy_ace
module Monitor = Miralis.Monitor
module Config = Miralis.Config

type instance = {
  system : Setup.system;
  mir : Monitor.t;
  oracles : Oracle.t list;
  on_switch : step:int -> unit;
      (** scenario action at a hart-switch point (e.g. the sfence
          scenario's fenced PTE flip); runs after the oracles *)
  max_steps : int;  (** default step budget for one schedule *)
}

type t = {
  name : string;
  descr : string;
  bug : Race.bug option;
      (** the injected race this scenario is designed to surface *)
  build : nharts:int -> seed:int64 -> instance;
}

let vf2 = Platform.visionfive2

let platform ~nharts =
  { vf2 with Platform.machine = { vf2.Platform.machine with Machine.nharts } }

(* Same assembly as the policy tests: machine + MiniSBI + interpreter
   kernel, booted under Miralis in the virtualized mode. *)
let build_system ?policy ?policy_pmp_slots ~nharts ~seed () =
  let p = platform ~nharts in
  let mc = p.Platform.machine in
  let m = Machine.create mc in
  Machine.load_program m Layout.fw_base
    (fst (Minisbi.image ~nharts ~kernel_entry:Interp_kernel.entry));
  Machine.load_program m Interp_kernel.entry (fst (Interp_kernel.image ()));
  let config =
    Config.make ?policy_pmp_slots ~cost:p.Platform.cost ~seed ~machine:mc ()
  in
  let mir = Monitor.create ?policy config m in
  Monitor.boot mir ~fw_entry:Layout.fw_base;
  ( {
      Setup.platform = p;
      mode = Setup.Virtualized;
      machine = m;
      miralis = Some mir;
    },
    mir )

let write_scripts m scripts =
  Array.iter
    (fun h ->
      let ops =
        match List.nth_opt scripts h.Hart.id with
        | Some s -> s
        | None -> [ Script.Halt ]
      in
      Script.write m ~hart:h.Hart.id ops)
    m.Machine.harts

(* ------------------------------------------------------------------ *)
(* ipi: hart 0 broadcasts IPIs while hart 1 takes offloaded rdtime     *)
(* traps — the workload for the MSIP delivery-ordering oracle. A       *)
(* dropped kick needs the send to land exactly while the target sits   *)
(* on a fresh trap entry, which only a preemption mid-emulation        *)
(* produces.                                                           *)
(* ------------------------------------------------------------------ *)

let ipi =
  let build ~nharts ~seed =
    let system, mir = build_system ~nharts ~seed () in
    let m = system.Setup.machine in
    write_scripts m
      [
        [ Script.Ipi_all; Script.Compute 40L; Script.Loop 400L ];
        [ Script.Rdtime; Script.Compute 25L; Script.Loop 600L ];
      ];
    {
      system;
      mir;
      oracles =
        [
          Oracle.policy_flag mir;
          Oracle.msip_delivery mir;
          Oracle.pmp_owner mir;
        ];
      on_switch = (fun ~step:_ -> ());
      max_steps = 6000;
    }
  in
  {
    name = "ipi";
    descr = "IPI broadcast vs offloaded traps (MSIP delivery ordering)";
    bug = Some Race.Dropped_msip;
    build;
  }

(* ------------------------------------------------------------------ *)
(* sfence: hart 1 runs with Sv39 paging on and probes one virtual      *)
(* page whose PTE hart 0's kernel keeps flipping between two frames,   *)
(* each flip fenced with a cross-hart sfence.vma. The coherence        *)
(* oracle re-walks every TLB entry; a fence that fails to reach a      *)
(* preempted hart leaves a stale translation it can see.               *)
(* ------------------------------------------------------------------ *)

let probe_vaddr = 0xC000_0000L (* Sv39 VPN2 = 3: above the identity maps *)
let l1_base = 0x8075_0000L
let l0_base = 0x8075_1000L
let page_a = 0x8075_2000L
let page_b = 0x8075_3000L

let sfence =
  let build ~nharts ~seed =
    let system, mir = build_system ~nharts ~seed () in
    let m = system.Setup.machine in
    let satp_v = Paging.identity_satp m in
    let store at v = assert (Machine.phys_store m at 8 v) in
    let nonleaf target =
      Int64.logor
        (Int64.shift_left (Int64.shift_right_logical target 12) 10)
        Vmem.pte_v
    in
    let leaf target =
      Int64.logor
        (Int64.shift_left (Int64.shift_right_logical target 12) 10)
        (List.fold_left Int64.logor 0L
           [ Vmem.pte_v; Vmem.pte_r; Vmem.pte_w; Vmem.pte_a; Vmem.pte_d ])
    in
    store (Int64.add Paging.root 24L) (nonleaf l1_base);
    store l1_base (nonleaf l0_base);
    store l0_base (leaf page_a);
    store page_a 0xAAAA_AAAA_AAAA_AAAAL;
    store page_b 0xBBBB_BBBB_BBBB_BBBBL;
    write_scripts m
      [
        [ Script.Rdtime; Script.Compute 30L; Script.Loop 500L ];
        [
          Script.Enable_paging satp_v;
          Script.Load_probe probe_vaddr;
          Script.Compute 20L;
          Script.Loop 400L;
        ];
      ];
    let cur = ref page_a in
    let last_flip = ref 0 in
    (* hart 0's kernel edits the shared PTE and fences, modeled as one
       atomic action at a switch boundary (edit-then-sfence with no
       intervening steps, as the real sequence would retire). *)
    let on_switch ~step =
      if step - !last_flip >= 64 then begin
        last_flip := step;
        cur := (if !cur = page_a then page_b else page_a);
        store l0_base (leaf !cur);
        Machine.sfence_vma m ~from:0 ()
      end
    in
    {
      system;
      mir;
      oracles =
        [
          Oracle.policy_flag mir;
          Oracle.sfence_coherence m;
          Oracle.msip_delivery mir;
        ];
      on_switch;
      max_steps = 6000;
    }
  in
  {
    name = "sfence";
    descr = "concurrent PTE flip + remote fence (TLB epoch coherence)";
    bug = Some Race.Delayed_vm_epoch;
    build;
  }

(* ------------------------------------------------------------------ *)
(* keystone: hart 0 cycles Keystone enclave rounds while hart 1 runs   *)
(* an ordinary OS workload. Creation and destruction change every      *)
(* sibling's PMP view; the isolation oracle demands that no hart       *)
(* outside the enclave can read its memory at any switch point.        *)
(* ------------------------------------------------------------------ *)

let enclave_base = 0x8080_0000L
let enclave_size = 4096L

let keystone =
  let build ~nharts ~seed =
    let policy, kstate = Keystone.create () in
    let system, mir =
      build_system ~policy ~policy_pmp_slots:Keystone.pmp_slots ~nharts ~seed
        ()
    in
    let m = system.Setup.machine in
    Machine.load_program m enclave_base
      (Uapp.image ~base:enclave_base ~iters:25L);
    Script.write_descriptor m ~index:0 ~base:enclave_base ~size:enclave_size
      ~entry:enclave_base;
    write_scripts m
      [
        [ Script.Enclave_round 0L; Script.Compute 60L; Script.Loop 8L ];
        [ Script.Rdtime; Script.Compute 35L; Script.Loop 200L ];
      ];
    let regions () =
      List.filter_map
        (fun e ->
          if e.Keystone.state = Keystone.Destroyed then None
          else Some (e.Keystone.base, e.Keystone.size))
        kstate.Keystone.enclaves
    in
    {
      system;
      mir;
      oracles =
        [
          Oracle.policy_flag mir;
          Oracle.isolation ~regions m;
          Oracle.pmp_owner mir;
          Oracle.msip_delivery mir;
        ];
      on_switch = (fun ~step:_ -> ());
      max_steps = 8000;
    }
  in
  {
    name = "keystone";
    descr = "enclave lifecycle vs OS sibling (PMP handoff isolation)";
    bug = Some Race.Pmp_handoff_window;
    build;
  }

(* ------------------------------------------------------------------ *)
(* ace: hart 0 cycles confidential-VM rounds over the COVH interface   *)
(* while hart 1 runs an ordinary OS workload. Every run_vcpu steals    *)
(* the hart, every exit returns it; the confidentiality oracle         *)
(* demands the CVM's pages stay unreadable from every non-owning hart  *)
(* at every switch point — the window the Ace_stale_ownership bug's    *)
(* delayed re-protection opens.                                        *)
(* ------------------------------------------------------------------ *)

let cvm_base = 0x8088_0000L
let cvm_size = 4096L

let ace =
  let build ~nharts ~seed =
    let policy, astate = Ace.create () in
    let system, mir =
      build_system ~policy ~policy_pmp_slots:Ace.pmp_slots ~nharts ~seed ()
    in
    let m = system.Setup.machine in
    Machine.load_program m cvm_base (Uapp.image ~base:cvm_base ~iters:25L);
    Script.write_descriptor m ~index:0 ~base:cvm_base ~size:cvm_size
      ~entry:cvm_base;
    write_scripts m
      [
        [ Script.Cvm_round 0L; Script.Compute 55L; Script.Loop 12L ];
        [ Script.Rdtime; Script.Compute 35L; Script.Loop 200L ];
      ];
    let cvms () =
      List.filter_map
        (fun c ->
          if c.Ace.state = Ace.Destroyed then None
          else Some (c.Ace.base, c.Ace.size, c.Ace.owner))
        astate.Ace.cvms
    in
    {
      system;
      mir;
      oracles =
        [
          Oracle.policy_flag mir;
          Oracle.cvm_confidential ~cvms m;
          Oracle.cvm_ownership ~cvms m;
          Oracle.pmp_owner mir;
          Oracle.msip_delivery mir;
        ];
      on_switch = (fun ~step:_ -> ());
      max_steps = 8000;
    }
  in
  {
    name = "ace";
    descr = "confidential-VM steal/return vs OS sibling (ownership isolation)";
    bug = Some Race.Ace_stale_ownership;
    build;
  }

let all = [ ipi; sfence; keystone; ace ]
let find name = List.find_opt (fun s -> s.name = name) all
