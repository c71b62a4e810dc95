module Bits = Mir_util.Bits
module Ms = Csr_spec.Mstatus

type config = {
  csr_config : Csr_spec.config;
  nharts : int;
  ram_base : int64;
  ram_size : int;
  cycles_per_tick : int;
  hw_misaligned : bool;
  trap_penalty : int;
  xret_penalty : int;
  mmio_penalty : int;
  tlb_entries : int;
      (* per-hart software-TLB slots (rounded up to a power of two);
         0 disables the TLB and the fetch-page cache, leaving the raw
         walker — the configuration the differential fuzzer and the
         ips benchmark use as oracle/baseline *)
}

let default_config =
  {
    csr_config = Csr_spec.default_config;
    nharts = 1;
    ram_base = 0x80000000L;
    ram_size = 16 * 1024 * 1024;
    cycles_per_tick = 100;
    hw_misaligned = false;
    trap_penalty = 140;
    xret_penalty = 100;
    mmio_penalty = 60;
    tlb_entries = 256;
  }

(* Injectable cross-hart race windows, driven by the schedule explorer
   (lib/explore). Each defect delays one cross-hart propagation step
   (a remote TLB shootdown, a physical MSIP kick, a sibling PMP
   reinstall, the re-protection of a returned confidential VM) by
   [race_window] global machine steps, opening a short inconsistency
   window that only a preemptive schedule can observe: under the stock
   round-robin [run], the window opens and closes inside one hart's
   slice, before the next hart-switch point. *)
type race_bug =
  | Delayed_vm_epoch
  | Dropped_msip
  | Pmp_handoff_window
  | Ace_stale_ownership

type t = {
  config : config;
  harts : Hart.t array;
  bus : Bus.t;
  clint : Clint.t;
  plic : Plic.t;
  uart : Uart.t;
  mutable blockdev : Blockdev.t option;
  mutable nic : Nic.t option;
  blocks : Block.cache;
  mutable block_engine : bool;
  mutable mmode_hook : (t -> Hart.t -> Cause.t -> unit) option;
  mutable on_trap :
    (t -> Hart.t -> Cause.t -> from_priv:Priv.t -> to_m:bool -> unit) option;
  mutable on_csr_write : (t -> Hart.t -> int -> int64 -> unit) option;
  mutable on_mmio :
    (t -> Hart.t -> write:bool -> addr:int64 -> size:int -> value:int64 ->
     unit)
    option;
  mutable on_chunk : (t -> unit) option;
  mutable poweroff : bool;
  mutable instr_count : int;
  mutable race_bug : race_bug option;
  mutable deferred : deferred list;
}

and deferred = { mutable ticks : int; action : t -> unit }

let syscon_base = 0x100000L

let create config =
  let ram = Memory.create ~base:config.ram_base ~size:config.ram_size in
  let bus = Bus.create ~ram in
  let clint = Clint.create ~nharts:config.nharts in
  let plic = Plic.create ~nharts:config.nharts ~nsources:8 in
  let uart = Uart.create () in
  Bus.add_device bus (Clint.device clint ~base:Clint.default_base);
  Bus.add_device bus (Plic.device plic ~base:Plic.default_base);
  Bus.add_device bus (Uart.device uart ~base:Uart.default_base);
  let m =
    {
      config;
      harts =
        Array.init config.nharts (fun id ->
            Hart.create ~tlb_entries:config.tlb_entries config.csr_config
              ~id);
      bus;
      clint;
      plic;
      uart;
      blockdev = None;
      nic = None;
      blocks = Block.create ~words:(config.ram_size / 4);
      block_engine = true;
      mmode_hook = None;
      on_trap = None;
      on_csr_write = None;
      on_mmio = None;
      on_chunk = None;
      poweroff = false;
      instr_count = 0;
      race_bug = None;
      deferred = [];
    }
  in
  (* Test-finisher ("syscon"): a word write of 0x5555 powers off. *)
  Bus.add_device bus
    {
      Device.name = "syscon";
      base = syscon_base;
      size = 0x1000L;
      load = (fun _ _ -> 0L);
      store =
        (fun off _ v ->
          if off = 0L && Int64.logand v 0xFFFFL = 0x5555L then
            m.poweroff <- true);
    };
  m

let attach_blockdev t ~capacity_sectors ~latency_ticks =
  let dev =
    Blockdev.create ~ram:(Bus.ram t.bus) ~capacity_sectors ~latency_ticks
      ~irq:1
  in
  Bus.add_device t.bus (Blockdev.device dev ~base:Blockdev.default_base);
  t.blockdev <- Some dev;
  dev

let attach_nic t =
  let dev = Nic.create ~ram:(Bus.ram t.bus) ~irq:2 in
  Bus.add_device t.bus (Nic.device dev ~base:Nic.default_base);
  t.nic <- Some dev;
  dev

let phys_load t addr size = Bus.load t.bus addr size
let phys_store t addr size v = Bus.store t.bus addr size v

let word_index t addr =
  let off = Int64.sub addr t.config.ram_base in
  if off >= 0L && off < Int64.of_int t.config.ram_size then
    Some (Int64.to_int off / 4)
  else None

(* The one invalidation path for decoded state: [size] bytes at
   physical [addr] were written, so drop the decoded words they cover
   and every block on those words' pages. Writes outside RAM, and
   writes to pages nothing was ever decoded from, cost a compare. *)
let invalidate_icache t addr size =
  let off = Int64.sub addr t.config.ram_base in
  if off >= 0L && off < Int64.of_int t.config.ram_size then begin
    let words = t.config.ram_size / 4 in
    let last = (Int64.to_int off + size - 1) lsr 2 in
    let last = if last < words then last else words - 1 in
    for i = Int64.to_int off lsr 2 to last do
      Block.invalidate_word t.blocks i
    done
  end

let flush_icache t = Block.flush t.blocks

(* Deferred cross-hart actions for the injected race windows: the
   countdown ticks once per global machine step (any hart), so a
   deferral of [race_window] models a propagation delay of a few
   instructions of wall-clock. The queue is almost always empty, and
   only [advance] ticks it, so neither engine's per-step path looks at
   it. *)
let race_window = 6
let defer t ~ticks action = t.deferred <- t.deferred @ [ { ticks; action } ]

let tick_deferred t =
  List.iter (fun d -> d.ticks <- d.ticks - 1) t.deferred;
  let due, rest = List.partition (fun d -> d.ticks <= 0) t.deferred in
  t.deferred <- rest;
  List.iter (fun d -> d.action t) due

(* sfence.vma semantics over the software TLBs.  All harts are flushed
   on any hart's fence: over-invalidation is always architecturally
   safe, and it makes the counted-but-unfenced SBI remote-fence
   offload conservative too.  [from] names the fencing hart; it only
   matters under the Delayed_vm_epoch injected bug, where the fencing
   hart's own TLB stays coherent but the cross-hart shootdown lands
   [race_window] steps late. *)
let sfence_vma t ?from ?vaddr () =
  let flush h =
    match vaddr with
    | None -> Tlb.flush h.Hart.tlb
    | Some va -> Tlb.flush_page h.Hart.tlb va
  in
  match (t.race_bug, from) with
  | Some Delayed_vm_epoch, Some f ->
      Array.iter (fun h -> if h.Hart.id = f then flush h) t.harts;
      defer t ~ticks:race_window (fun t ->
          Array.iter (fun h -> if h.Hart.id <> f then flush h) t.harts)
  | _ -> Array.iter flush t.harts

let flush_tlbs t = Array.iter (fun h -> Tlb.flush h.Hart.tlb) t.harts

(* Aggregate TLB counters over the harts: (hits, misses, flushes). *)
let tlb_totals t =
  Array.fold_left
    (fun (h, m, f) hart ->
      let tlb = hart.Hart.tlb in
      (h + Tlb.hits tlb, m + Tlb.misses tlb, f + Tlb.flushes tlb))
    (0, 0, 0) t.harts

let load_program t addr bytes =
  Memory.store_bytes (Bus.ram t.bus) addr bytes;
  flush_icache t

let pmp_check t hart ~priv access ~addr ~size =
  ignore t;
  Pmp.check_ranges (Csr_file.pmp_ranges hart.Hart.csr) ~priv access ~addr
    ~size

let mstatus hart = Csr_file.read_raw hart.Hart.csr Csr_addr.mstatus

let translate t hart ~priv access vaddr =
  let satp = Csr_file.read_raw hart.Hart.csr Csr_addr.satp in
  let ms = mstatus hart in
  Vmem.translate
    ~read:(fun a -> phys_load t a 8)
    ~write:(fun a v -> ignore (phys_store t a 8 v))
    ~satp ~priv ~sum:(Bits.test ms Ms.sum) ~mxr:(Bits.test ms Ms.mxr) access
    vaddr

let charge hart n = hart.Hart.cycles <- hart.Hart.cycles + n

let resume hart ~pc ~priv =
  hart.Hart.pc <- pc;
  hart.Hart.priv <- priv

(* ------------------------------------------------------------------ *)
(* Interrupt lines and pending-interrupt selection                     *)
(* ------------------------------------------------------------------ *)

let update_irq_lines t hart =
  let csr = hart.Hart.csr in
  let h = hart.Hart.id in
  Csr_file.set_mip_bits csr Csr_spec.Irq.mtip (Clint.mtip t.clint h);
  Csr_file.set_mip_bits csr Csr_spec.Irq.msip (Clint.msip t.clint h);
  Csr_file.set_mip_bits csr Csr_spec.Irq.meip (Plic.meip t.plic h);
  Csr_file.set_mip_bits csr Csr_spec.Irq.seip (Plic.seip t.plic h);
  (* Sstc: stimecmp drives STIP when menvcfg.STCE is set. *)
  if t.config.csr_config.Csr_spec.has_sstc then begin
    let menvcfg = Csr_file.read_raw csr Csr_addr.menvcfg in
    if Bits.test menvcfg 63 then
      let stimecmp = Csr_file.read_raw csr Csr_addr.stimecmp in
      Csr_file.set_mip_bits csr Csr_spec.Irq.stip
        (Bits.ule stimecmp (Clint.mtime t.clint))
  end

(* Standard priority: MEI, MSI, MTI, SEI, SSI, STI. *)
let intr_priority =
  Cause.
    [
      (Machine_external, 11);
      (Machine_software, 3);
      (Machine_timer, 7);
      (Supervisor_external, 9);
      (Supervisor_software, 1);
      (Supervisor_timer, 5);
    ]

let pending_interrupt t hart =
  ignore t;
  let csr = hart.Hart.csr in
  let mip = Csr_file.read_raw csr Csr_addr.mip in
  let mie = Csr_file.read_raw csr Csr_addr.mie in
  (* fast path: the common every-step case allocates nothing *)
  if Int64.logand mip mie = 0L then None
  else
    Hart.Xfer_c.pending_interrupt ~order:intr_priority ~priv:hart.Hart.priv
      ~mstatus:(mstatus hart) ~mip ~mie
      ~mideleg:(Csr_file.read_raw csr Csr_addr.mideleg)

(* ------------------------------------------------------------------ *)
(* Trap entry                                                          *)
(* ------------------------------------------------------------------ *)

let tvec_target tvec cause =
  let base = Int64.logand tvec (Int64.lognot 3L) in
  match cause with
  | Cause.Interrupt i when Int64.logand tvec 3L = 1L ->
      Int64.add base (Int64.of_int (4 * Cause.intr_code i))
  | _ -> base

let take_trap t hart cause ~tval =
  charge hart t.config.trap_penalty;
  hart.Hart.just_trapped <- true;
  let csr = hart.Hart.csr in
  let from_priv = hart.Hart.priv in
  let delegated =
    from_priv <> Priv.M
    &&
    match cause with
    | Cause.Exception e ->
        Bits.test (Csr_file.read_raw csr Csr_addr.medeleg) (Cause.exc_code e)
    | Cause.Interrupt i ->
        Bits.test (Csr_file.read_raw csr Csr_addr.mideleg) (Cause.intr_code i)
  in
  let to_m = not delegated in
  if to_m then begin
    Csr_file.write_raw csr Csr_addr.mepc hart.Hart.pc;
    Csr_file.write_raw csr Csr_addr.mcause (Cause.to_xcause cause);
    Csr_file.write_raw csr Csr_addr.mtval tval;
    (match t.on_trap with
    | Some f -> f t hart cause ~from_priv ~to_m
    | None -> ());
    Csr_file.write_raw csr Csr_addr.mstatus
      (Hart.Xfer_c.trap_entry_m ~mstatus:(mstatus hart) ~from_priv);
    hart.Hart.priv <- Priv.M;
    (match t.mmode_hook with
    | Some hook -> hook t hart cause
    | None ->
        hart.Hart.pc <-
          tvec_target (Csr_file.read_raw csr Csr_addr.mtvec) cause);
    (* the handler (hook or firmware-to-be) may retire device state:
       refresh the lines before the next interrupt decision *)
    update_irq_lines t hart
  end
  else begin
    Csr_file.write_raw csr Csr_addr.sepc hart.Hart.pc;
    Csr_file.write_raw csr Csr_addr.scause (Cause.to_xcause cause);
    Csr_file.write_raw csr Csr_addr.stval tval;
    (match t.on_trap with
    | Some f -> f t hart cause ~from_priv ~to_m
    | None -> ());
    Csr_file.write_raw csr Csr_addr.mstatus
      (Hart.Xfer_c.trap_entry_s ~mstatus:(mstatus hart) ~from_priv);
    hart.Hart.priv <- Priv.S;
    hart.Hart.pc <- tvec_target (Csr_file.read_raw csr Csr_addr.stvec) cause
  end

(* ------------------------------------------------------------------ *)
(* Memory access from the interpreter                                  *)
(* ------------------------------------------------------------------ *)

let effective_priv hart =
  let ms = mstatus hart in
  if Bits.test ms Ms.mprv then Ms.get_mpp ms else hart.Hart.priv

let access_fault (access : Vmem.access) =
  match access with
  | Vmem.Fetch -> Cause.Instr_access_fault
  | Vmem.Load -> Cause.Load_access_fault
  | Vmem.Store -> Cause.Store_access_fault

let pmp_access (access : Vmem.access) =
  match access with
  | Vmem.Fetch -> Pmp.Exec
  | Vmem.Load -> Pmp.Read
  | Vmem.Store -> Pmp.Write

let page_mask = Int64.lognot 0xFFFL

(* Translate + PMP-check one access of [size] bytes at [vaddr];
   raises Cause.Trap on fault.

   Translated accesses go through the per-hart software TLB: a hit
   answers translation, leaf permission, and PMP in a few integer
   compares with zero allocation.  A miss runs the bus-backed walker
   (no per-call closures), PMP-checks the result, and installs the
   page together with page-wide PMP verdicts so subsequent hits can
   skip the range scan.  Accesses never straddle a page here: aligned
   accesses of size <= 8 cannot cross a 4 KiB boundary, and misaligned
   ones are resolved byte by byte. *)
let resolve t hart ~priv access vaddr size =
  let csr = hart.Hart.csr in
  if priv = Priv.M || Csr_file.read_raw csr Csr_addr.satp = 0L then begin
    (* bare addressing / M-mode: no walk, PMP only *)
    if not (pmp_check t hart ~priv (pmp_access access) ~addr:vaddr ~size)
    then raise (Cause.Trap (access_fault access, vaddr));
    vaddr
  end
  else begin
    let tlb = hart.Hart.tlb in
    Tlb.sync_epoch tlb (Csr_file.vm_epoch csr);
    let pbase = Tlb.lookup tlb ~priv access vaddr in
    if pbase >= 0 then
      Int64.logor (Int64.of_int pbase) (Int64.logand vaddr 0xFFFL)
    else begin
      let satp = Csr_file.read_raw csr Csr_addr.satp in
      let ms = mstatus hart in
      let sum = Bits.test ms Ms.sum and mxr = Bits.test ms Ms.mxr in
      match
        Vmem.On_bus.translate_leaf t.bus ~satp ~priv ~sum ~mxr access vaddr
      with
      | Error e -> raise (Cause.Trap (e, vaddr))
      | Ok leaf ->
          let phys = leaf.Vmem.phys in
          if
            not (pmp_check t hart ~priv (pmp_access access) ~addr:phys ~size)
          then raise (Cause.Trap (access_fault access, vaddr));
          let ranges = Csr_file.pmp_ranges csr in
          let pg = Int64.logand phys page_mask in
          let pmp_page k =
            Pmp.check_ranges ranges ~priv k ~addr:pg ~size:4096
          in
          Tlb.install tlb ~priv ~vaddr ~phys ~pte:leaf.Vmem.pte ~sum ~mxr
            ~pmp_r:(pmp_page Pmp.Read) ~pmp_w:(pmp_page Pmp.Write)
            ~pmp_x:(pmp_page Pmp.Exec);
          phys
    end
  end

let vload t hart vaddr size ~signed =
  let priv = effective_priv hart in
  if not (Bits.is_aligned vaddr ~size) then begin
    if not t.config.hw_misaligned then
      raise (Cause.Trap (Cause.Load_misaligned, vaddr));
    (* Slow byte-wise path for hardware-handled misaligned loads.
       MMIO bytes pay the same penalty and fire the same hook as the
       aligned path, so costs and trace recording agree. *)
    let v = ref 0L in
    for i = size - 1 downto 0 do
      let a = Int64.add vaddr (Int64.of_int i) in
      let phys = resolve t hart ~priv Vmem.Load a 1 in
      let is_mmio = not (Memory.in_range (Bus.ram t.bus) phys 1) in
      if is_mmio then charge hart t.config.mmio_penalty;
      match phys_load t phys 1 with
      | Some b ->
          (if is_mmio then
             match t.on_mmio with
             | Some f -> f t hart ~write:false ~addr:phys ~size:1 ~value:b
             | None -> ());
          v := Int64.logor (Int64.shift_left !v 8) b
      | None -> raise (Cause.Trap (Cause.Load_access_fault, vaddr))
    done;
    if signed then Bits.sext !v ~width:(8 * size) else !v
  end
  else begin
    let phys = resolve t hart ~priv Vmem.Load vaddr size in
    let is_mmio = not (Memory.in_range (Bus.ram t.bus) phys size) in
    if is_mmio then charge hart t.config.mmio_penalty;
    match phys_load t phys size with
    | Some v ->
        (if is_mmio then
           match t.on_mmio with
           | Some f -> f t hart ~write:false ~addr:phys ~size ~value:v
           | None -> ());
        if signed then Bits.sext v ~width:(8 * size) else v
    | None -> raise (Cause.Trap (Cause.Load_access_fault, vaddr))
  end

let vstore t hart vaddr size v =
  let priv = effective_priv hart in
  if not (Bits.is_aligned vaddr ~size) then begin
    if not t.config.hw_misaligned then
      raise (Cause.Trap (Cause.Store_misaligned, vaddr));
    for i = 0 to size - 1 do
      let a = Int64.add vaddr (Int64.of_int i) in
      let phys = resolve t hart ~priv Vmem.Store a 1 in
      let byte = Bits.extract v ~lo:(8 * i) ~hi:((8 * i) + 7) in
      let is_mmio = not (Memory.in_range (Bus.ram t.bus) phys 1) in
      if is_mmio then begin
        charge hart t.config.mmio_penalty;
        (* as on the aligned path: a device store may change interrupt
           lines, so force a refresh on every hart's next step *)
        Array.iter (fun h -> h.Hart.irq_stale <- 16) t.harts
      end;
      if not (phys_store t phys 1 byte) then
        raise (Cause.Trap (Cause.Store_access_fault, vaddr));
      (if is_mmio then
         match t.on_mmio with
         | Some f -> f t hart ~write:true ~addr:phys ~size:1 ~value:byte
         | None -> ());
      invalidate_icache t phys 1
    done
  end
  else begin
    let phys = resolve t hart ~priv Vmem.Store vaddr size in
    let is_mmio = not (Memory.in_range (Bus.ram t.bus) phys size) in
    if is_mmio then begin
      charge hart t.config.mmio_penalty;
      (* a device store may change interrupt lines (CLINT msip /
         mtimecmp): force a refresh on every hart's next step *)
      Array.iter (fun h -> h.Hart.irq_stale <- 16) t.harts
    end;
    if not (phys_store t phys size v) then
      raise (Cause.Trap (Cause.Store_access_fault, vaddr));
    (if is_mmio then
       match t.on_mmio with
       | Some f -> f t hart ~write:true ~addr:phys ~size ~value:v
       | None -> ());
    (* stores break reservations overlapping the written bytes *)
    Array.iter
      (fun h ->
        match h.Hart.reservation with
        | Some r
          when Bits.ult r (Int64.add phys (Int64.of_int size))
               && Bits.ule phys r ->
            h.Hart.reservation <- None
        | _ -> ())
      t.harts;
    invalidate_icache t phys size
  end

(* Decode one RAM word into the cache; [idx] is a word index inside
   RAM. *)
let fetch_fill t idx ~pc =
  let phys = Int64.add t.config.ram_base (Int64.of_int (idx lsl 2)) in
  match phys_load t phys 4 with
  | None -> raise (Cause.Trap (Cause.Instr_access_fault, pc))
  | Some word -> begin
      let bits = Int64.to_int word in
      match Decode.decode bits with
      | Some i ->
          Block.set_word t.blocks idx (i, bits);
          (i, bits)
      | None -> raise (Cause.Trap (Cause.Illegal_instr, word))
    end

let fetch t hart =
  let pc = hart.Hart.pc in
  if Int64.logand pc 3L <> 0L then
    raise (Cause.Trap (Cause.Instr_misaligned, pc));
  let tlb = hart.Hart.tlb in
  Tlb.sync_epoch tlb (Csr_file.vm_epoch hart.Hart.csr);
  (* fetch fast path: the current fetch page's RAM word base is
     cached, so straight-line fetches cost two compares and a
     decode-cache read *)
  let base = Tlb.fetch_lookup tlb ~priv:hart.Hart.priv pc in
  let idx =
    if base >= 0 then base + ((Int64.to_int pc land 0xFFF) lsr 2)
    else begin
      let phys = resolve t hart ~priv:hart.Hart.priv Vmem.Fetch pc 4 in
      match word_index t phys with
      | None ->
          (* Fetches must target RAM. *)
          raise (Cause.Trap (Cause.Instr_access_fault, pc))
      | Some idx ->
          (* cache the page when it lies wholly in RAM and PMP grants
             execute over all of it (so hits can skip the range scan) *)
          let pg = Int64.logand phys page_mask in
          let off = Int64.sub pg t.config.ram_base in
          if
            off >= 0L
            && Int64.add off 4096L <= Int64.of_int t.config.ram_size
            && Pmp.check_ranges
                 (Csr_file.pmp_ranges hart.Hart.csr)
                 ~priv:hart.Hart.priv Pmp.Exec ~addr:pg ~size:4096
          then
            Tlb.fetch_install tlb ~priv:hart.Hart.priv pc
              ~base:(Int64.to_int off lsr 2);
          idx
    end
  in
  match Block.word t.blocks idx with
  | Some entry -> entry
  | None -> fetch_fill t idx ~pc

(* ------------------------------------------------------------------ *)
(* CSR instruction semantics                                           *)
(* ------------------------------------------------------------------ *)

let illegal bits = raise (Cause.Trap (Cause.Illegal_instr, Int64.of_int bits))

let counter_enabled t hart csr_addr =
  (* cycle/time/instret gating by mcounteren (from S/U) and scounteren
     (from U). *)
  ignore t;
  let bit = csr_addr land 0x1F in
  let csr = hart.Hart.csr in
  let ok_m =
    hart.Hart.priv = Priv.M
    || Bits.test (Csr_file.read_raw csr Csr_addr.mcounteren) bit
  in
  let ok_s =
    hart.Hart.priv <> Priv.U
    || Bits.test (Csr_file.read_raw csr Csr_addr.scounteren) bit
  in
  ok_m && ok_s

let exec_csr t hart bits op rd src csr_addr =
  let csr = hart.Hart.csr in
  let priv = hart.Hart.priv in
  if Priv.compare priv (Csr_addr.min_priv csr_addr) < 0 then illegal bits;
  let write_needed =
    match (op, src) with
    | Instr.Csrrw, _ -> true
    | (Instr.Csrrs | Instr.Csrrc), Instr.Reg 0 -> false
    | (Instr.Csrrs | Instr.Csrrc), Instr.Imm 0 -> false
    | (Instr.Csrrs | Instr.Csrrc), _ -> true
  in
  if write_needed && Csr_addr.is_read_only csr_addr then illegal bits;
  (* TVM traps satp accesses from S-mode. *)
  if
    csr_addr = Csr_addr.satp && priv = Priv.S
    && Bits.test (mstatus hart) Ms.tvm
  then illegal bits;
  let src_val =
    match src with
    | Instr.Reg r -> Hart.get hart r
    | Instr.Imm z -> Int64.of_int z
  in
  let finish ?(storage = true) old =
    (if write_needed && storage then begin
       let value = Hart.Xfer_c.csr_rmw op ~old ~src:src_val in
       Csr_file.write csr csr_addr value;
       match t.on_csr_write with
       | Some f -> f t hart csr_addr (Csr_file.read_raw csr csr_addr)
       | None -> ()
     end);
    Hart.set hart rd old;
    hart.Hart.pc <- Int64.add hart.Hart.pc 4L
  in
  (* Dynamic counters are not backed by CSR storage. *)
  if csr_addr = Csr_addr.cycle then begin
    if not (counter_enabled t hart csr_addr) then illegal bits;
    finish (Int64.of_int hart.Hart.cycles)
  end
  else if csr_addr = Csr_addr.time then begin
    if not t.config.csr_config.Csr_spec.has_time_csr then illegal bits;
    if not (counter_enabled t hart csr_addr) then illegal bits;
    finish (Clint.mtime t.clint)
  end
  else if csr_addr = Csr_addr.instret then begin
    if not (counter_enabled t hart csr_addr) then illegal bits;
    finish (Int64.of_int hart.Hart.instret)
  end
  else if csr_addr = Csr_addr.mcycle then
    (* counter writes are dropped in this model *)
    finish ~storage:false (Int64.of_int hart.Hart.cycles)
  else if csr_addr = Csr_addr.minstret then
    finish ~storage:false (Int64.of_int hart.Hart.instret)
  else if not (Csr_file.exists csr csr_addr) then illegal bits
  else finish (Csr_file.read csr csr_addr)

(* ------------------------------------------------------------------ *)
(* Instruction execution                                               *)
(* ------------------------------------------------------------------ *)

let jump t hart target =
  ignore t;
  if Int64.logand target 3L <> 0L then
    raise (Cause.Trap (Cause.Instr_misaligned, target));
  hart.Hart.pc <- target

let exec t hart instr bits =
  let next () = hart.Hart.pc <- Int64.add hart.Hart.pc 4L in
  let ms () = mstatus hart in
  match instr with
  | Instr.Lui (rd, imm) ->
      Hart.set hart rd imm;
      next ()
  | Instr.Auipc (rd, imm) ->
      Hart.set hart rd (Int64.add hart.Hart.pc imm);
      next ()
  | Instr.Jal (rd, off) ->
      let target = Int64.add hart.Hart.pc off in
      let link = Int64.add hart.Hart.pc 4L in
      jump t hart target;
      Hart.set hart rd link
  | Instr.Jalr (rd, rs1, off) ->
      let target =
        Int64.logand (Int64.add (Hart.get hart rs1) off) (Int64.lognot 1L)
      in
      let link = Int64.add hart.Hart.pc 4L in
      jump t hart target;
      Hart.set hart rd link
  | Instr.Branch (op, rs1, rs2, off) ->
      if Alu.branch_taken op (Hart.get hart rs1) (Hart.get hart rs2) then
        jump t hart (Int64.add hart.Hart.pc off)
      else next ()
  | Instr.Load { width; unsigned; rd; rs1; imm } ->
      let addr = Int64.add (Hart.get hart rs1) imm in
      let size = match width with Instr.B -> 1 | H -> 2 | W -> 4 | D -> 8 in
      let v = vload t hart addr size ~signed:(not unsigned) in
      Hart.set hart rd v;
      next ()
  | Instr.Store { width; rs2; rs1; imm } ->
      let addr = Int64.add (Hart.get hart rs1) imm in
      let size = match width with Instr.B -> 1 | H -> 2 | W -> 4 | D -> 8 in
      vstore t hart addr size (Hart.get hart rs2);
      next ()
  | Instr.Op_imm (op, rd, rs1, imm) ->
      Hart.set hart rd (Alu.op_imm op (Hart.get hart rs1) imm);
      next ()
  | Instr.Op_imm32 (op, rd, rs1, imm) ->
      Hart.set hart rd (Alu.op_imm32 op (Hart.get hart rs1) imm);
      next ()
  | Instr.Op (op, rd, rs1, rs2) ->
      Hart.set hart rd (Alu.op op (Hart.get hart rs1) (Hart.get hart rs2));
      next ()
  | Instr.Op32 (op, rd, rs1, rs2) ->
      Hart.set hart rd (Alu.op32 op (Hart.get hart rs1) (Hart.get hart rs2));
      next ()
  | Instr.Fence -> next ()
  | Instr.Fence_i ->
      (* synchronize the instruction stream: drop decoded words and
         blocks so later fetches re-read RAM (required after writes
         that bypass the store-side invalidation, e.g. device DMA) *)
      flush_icache t;
      next ()
  | Instr.Ecall ->
      let cause =
        match hart.Hart.priv with
        | Priv.U -> Cause.Ecall_from_u
        | Priv.S -> Cause.Ecall_from_s
        | Priv.M -> Cause.Ecall_from_m
      in
      raise (Cause.Trap (cause, 0L))
  | Instr.Ebreak -> raise (Cause.Trap (Cause.Breakpoint, hart.Hart.pc))
  | Instr.Csr { op; rd; src; csr } -> exec_csr t hart bits op rd src csr
  | Instr.Mret ->
      if hart.Hart.priv <> Priv.M then illegal bits;
      charge hart t.config.xret_penalty;
      let csr = hart.Hart.csr in
      let m = ms () in
      let new_priv = Hart.Xfer_c.mret_target_priv m in
      Csr_file.write_raw csr Csr_addr.mstatus (Hart.Xfer_c.mret_mstatus m);
      hart.Hart.priv <- new_priv;
      hart.Hart.pc <- Csr_file.read_raw csr Csr_addr.mepc
  | Instr.Sret ->
      if hart.Hart.priv = Priv.U then illegal bits;
      if hart.Hart.priv = Priv.S && Bits.test (ms ()) Ms.tsr then illegal bits;
      charge hart t.config.xret_penalty;
      let csr = hart.Hart.csr in
      let m = ms () in
      let new_priv = Hart.Xfer_c.sret_target_priv m in
      Csr_file.write_raw csr Csr_addr.mstatus (Hart.Xfer_c.sret_mstatus m);
      hart.Hart.priv <- new_priv;
      hart.Hart.pc <- Csr_file.read_raw csr Csr_addr.sepc
  | Instr.Wfi ->
      if hart.Hart.priv = Priv.U then illegal bits;
      if hart.Hart.priv = Priv.S && Bits.test (ms ()) Ms.tw then illegal bits;
      hart.Hart.wfi <- true;
      next ()
  | Instr.Sfence_vma (rs1, _) ->
      if hart.Hart.priv = Priv.U then illegal bits;
      if hart.Hart.priv = Priv.S && Bits.test (ms ()) Ms.tvm then illegal bits;
      (* rs1 = x0: global fence; otherwise fence the named vpage.  ASID
         (rs2) is ignored: the TLB is not ASID-tagged, so over-flushing
         is the conservative, correct reading. *)
      if rs1 = 0 then sfence_vma t ~from:hart.Hart.id ()
      else sfence_vma t ~from:hart.Hart.id ~vaddr:(Hart.get hart rs1) ();
      next ()
  | Instr.Amo { op; wide; rd; rs1; rs2; _ } -> begin
      let size = if wide then 8 else 4 in
      let addr = Hart.get hart rs1 in
      (* AMOs always require natural alignment *)
      if not (Bits.is_aligned addr ~size) then
        raise (Cause.Trap (Cause.Store_misaligned, addr));
      let priv = effective_priv hart in
      let sx v = if wide then v else Bits.sext32 v in
      match op with
      | Instr.Lr ->
          let phys = resolve t hart ~priv Vmem.Load addr size in
          (match phys_load t phys size with
          | Some v ->
              Hart.set hart rd (sx v);
              hart.Hart.reservation <- Some phys;
              next ()
          | None -> raise (Cause.Trap (Cause.Load_access_fault, addr)))
      | Instr.Sc ->
          let phys = resolve t hart ~priv Vmem.Store addr size in
          (match hart.Hart.reservation with
          | Some r when r = phys ->
              hart.Hart.reservation <- None;
              if not (phys_store t phys size (Hart.get hart rs2)) then
                raise (Cause.Trap (Cause.Store_access_fault, addr));
              invalidate_icache t phys size;
              Hart.set hart rd 0L;
              next ()
          | _ ->
              hart.Hart.reservation <- None;
              Hart.set hart rd 1L;
              next ())
      | Instr.Swap | Instr.Amoadd | Instr.Amoxor | Instr.Amoand
      | Instr.Amoor | Instr.Amomin | Instr.Amomax | Instr.Amominu
      | Instr.Amomaxu ->
          (* read-modify-write; the write side is checked (AMOs need
             both permissions, and W implies the store check here) *)
          let phys = resolve t hart ~priv Vmem.Store addr size in
          if not (pmp_check t hart ~priv Pmp.Read ~addr:phys ~size) then
            raise (Cause.Trap (Cause.Store_access_fault, addr));
          (match phys_load t phys size with
          | None -> raise (Cause.Trap (Cause.Store_access_fault, addr))
          | Some raw ->
              let old = sx raw in
              let src = if wide then Hart.get hart rs2
                        else Bits.sext32 (Hart.get hart rs2) in
              let result =
                match op with
                | Instr.Swap -> src
                | Instr.Amoadd -> Int64.add old src
                | Instr.Amoxor -> Int64.logxor old src
                | Instr.Amoand -> Int64.logand old src
                | Instr.Amoor -> Int64.logor old src
                | Instr.Amomin -> if Int64.compare old src <= 0 then old else src
                | Instr.Amomax -> if Int64.compare old src >= 0 then old else src
                | Instr.Amominu -> if Bits.ule old src then old else src
                | Instr.Amomaxu -> if Bits.ule src old then old else src
                | Instr.Lr | Instr.Sc -> assert false
              in
              if not (phys_store t phys size result) then
                raise (Cause.Trap (Cause.Store_access_fault, addr));
              invalidate_icache t phys size;
              (* an atomic write breaks other harts' reservations *)
              Array.iter
                (fun h ->
                  if h != hart && h.Hart.reservation = Some phys then
                    h.Hart.reservation <- None)
                t.harts;
              Hart.set hart rd old;
              next ())
    end

(* ------------------------------------------------------------------ *)
(* Stepping and the run loop                                           *)
(* ------------------------------------------------------------------ *)

let wfi_quantum = 16

(* Per-step preamble shared by the interpreter and the block engine:
   interrupt-line refresh, interrupt delivery, wfi wake/idle. Returns
   true when the step must now fetch and execute one instruction;
   false when the step was consumed by trap entry, a wfi wake, or an
   idle wfi quantum. Keeping a single copy of this sequence is what
   makes the two engines bit-exact: every architectural step runs
   exactly one [pre_step], whichever engine drives it. *)
let pre_step t hart =
  hart.Hart.just_trapped <- false;
  (* interrupt lines change only with device state (time advances per
     chunk; msip/PLIC on MMIO stores): refreshing every 16th step
     keeps delivery latency tiny without paying the cost per
     instruction *)
  hart.Hart.irq_stale <- hart.Hart.irq_stale + 1;
  if hart.Hart.irq_stale >= 16 || hart.Hart.wfi then begin
    hart.Hart.irq_stale <- 0;
    update_irq_lines t hart
  end;
  match pending_interrupt t hart with
  | Some i ->
      hart.Hart.wfi <- false;
      take_trap t hart (Cause.Interrupt i) ~tval:0L;
      false
  | None ->
      if hart.Hart.wfi then begin
        (* Wake on any pending-and-enabled interrupt; otherwise idle. *)
        let csr = hart.Hart.csr in
        let pending =
          Int64.logand
            (Csr_file.read_raw csr Csr_addr.mip)
            (Csr_file.read_raw csr Csr_addr.mie)
        in
        if pending <> 0L then hart.Hart.wfi <- false
        else charge hart wfi_quantum;
        false
      end
      else true

(* Fetch and execute exactly one instruction ([pre_step] returned
   true). *)
let fetch_exec_one t hart =
  match fetch t hart with
  | exception Cause.Trap (e, tval) ->
      take_trap t hart (Cause.Exception e) ~tval
  | instr, bits -> begin
      hart.Hart.cycles <- hart.Hart.cycles + 1;
      hart.Hart.instret <- hart.Hart.instret + 1;
      t.instr_count <- t.instr_count + 1;
      try exec t hart instr bits
      with Cause.Trap (e, tval) -> take_trap t hart (Cause.Exception e) ~tval
    end

let step t hart =
  if hart.Hart.halted then ()
  else if pre_step t hart then fetch_exec_one t hart

(* ------------------------------------------------------------------ *)
(* Decoded basic-block engine                                          *)
(* ------------------------------------------------------------------ *)

(* Compile one instruction to a closure over the owning machine. The
   hot unprivileged forms are specialized — operands, immediates,
   access sizes and the ALU operation itself are split out at compile
   time, so the closure body is straight-line unboxed int64 arithmetic
   (ocamlopt's local unboxing applies within one closure; a call into
   [Alu] would box every operand and the result). Everything else
   delegates to [exec], keeping a single copy of the tricky
   semantics. A closure must advance the hart *exactly* as [exec]
   would, including the order of side effects around a potential trap
   (e.g. a misaligned jump faults before the link register is
   written).

   Closure ABI: [op h], with [off] — the instruction's byte offset
   from its block's entry — baked in at compile time. A closure that
   needs its own pc (auipc, jal/jalr links, branch targets) computes
   it as [h.bpc + off], where [h.bpc] is the block entry pc the
   executor maintains; [h.pc] itself may be stale at that point,
   because pure closures never write it and the executor only
   materializes [pc <- bpc + 4 i] when something can observe it (a
   memory/delegate op, a slow pre-step, a trap, the block boundary).
   Control closures write the successor pc absolutely; memory and
   delegate closures run with [pc] accurate and advance it
   themselves, exactly as the interpreter would. Closures take the
   hart as their only argument so the executor's calls are direct
   one-argument indirect calls (a two-argument unknown application
   would detour through caml_apply2 on every instruction). *)
let op_of_instr t instr bits ~off =
  (* relative-to-block-entry constants, folded at compile time *)
  let off64 = Int64.of_int off in
  let next_rel = Int64.of_int (off + 4) in
  match instr with
  | Instr.Lui (rd, imm) -> fun h -> Hart.set h rd imm
  | Instr.Auipc (rd, imm) ->
      let rel = Int64.add off64 imm in
      fun h -> Hart.set h rd (Int64.add h.Hart.bpc rel)
  | Instr.Jal (rd, joff) ->
      let tgt_rel = Int64.add off64 joff in
      fun h ->
        let bpc = h.Hart.bpc in
        let target = Int64.add bpc tgt_rel in
        let link = Int64.add bpc next_rel in
        jump t h target;
        Hart.set h rd link
  | Instr.Jalr (rd, rs1, joff) ->
      fun h ->
        let target =
          Int64.logand (Int64.add (Hart.get h rs1) joff) (Int64.lognot 1L)
        in
        let link = Int64.add h.Hart.bpc next_rel in
        jump t h target;
        Hart.set h rd link
  | Instr.Branch (op, rs1, rs2, boff) -> (
      let tgt_rel = Int64.add off64 boff in
      match op with
      | Instr.Beq ->
          fun h ->
            if Hart.get h rs1 = Hart.get h rs2 then
              jump t h (Int64.add h.Hart.bpc tgt_rel)
            else h.Hart.pc <- Int64.add h.Hart.bpc next_rel
      | Instr.Bne ->
          fun h ->
            if Hart.get h rs1 <> Hart.get h rs2 then
              jump t h (Int64.add h.Hart.bpc tgt_rel)
            else h.Hart.pc <- Int64.add h.Hart.bpc next_rel
      | Instr.Blt ->
          fun h ->
            if Hart.get h rs1 < Hart.get h rs2 then
              jump t h (Int64.add h.Hart.bpc tgt_rel)
            else h.Hart.pc <- Int64.add h.Hart.bpc next_rel
      | Instr.Bge ->
          fun h ->
            if Hart.get h rs1 >= Hart.get h rs2 then
              jump t h (Int64.add h.Hart.bpc tgt_rel)
            else h.Hart.pc <- Int64.add h.Hart.bpc next_rel
      | Instr.Bltu ->
          fun h ->
            if Bits.ult (Hart.get h rs1) (Hart.get h rs2) then
              jump t h (Int64.add h.Hart.bpc tgt_rel)
            else h.Hart.pc <- Int64.add h.Hart.bpc next_rel
      | Instr.Bgeu ->
          fun h ->
            if not (Bits.ult (Hart.get h rs1) (Hart.get h rs2)) then
              jump t h (Int64.add h.Hart.bpc tgt_rel)
            else h.Hart.pc <- Int64.add h.Hart.bpc next_rel)
  | Instr.Load { width; unsigned; rd; rs1; imm } ->
      let size = match width with Instr.B -> 1 | H -> 2 | W -> 4 | D -> 8 in
      let signed = not unsigned in
      fun h ->
        let v = vload t h (Int64.add (Hart.get h rs1) imm) size ~signed in
        Hart.set h rd v;
        h.Hart.pc <- Int64.add h.Hart.pc 4L
  | Instr.Store { width; rs2; rs1; imm } ->
      let size = match width with Instr.B -> 1 | H -> 2 | W -> 4 | D -> 8 in
      fun h ->
        vstore t h (Int64.add (Hart.get h rs1) imm) size (Hart.get h rs2);
        h.Hart.pc <- Int64.add h.Hart.pc 4L
  | Instr.Op_imm (op, rd, rs1, imm) -> (
      match op with
      | Instr.Addi -> fun h -> Hart.set h rd (Int64.add (Hart.get h rs1) imm)
      | Instr.Xori ->
          fun h -> Hart.set h rd (Int64.logxor (Hart.get h rs1) imm)
      | Instr.Ori -> fun h -> Hart.set h rd (Int64.logor (Hart.get h rs1) imm)
      | Instr.Andi ->
          fun h -> Hart.set h rd (Int64.logand (Hart.get h rs1) imm)
      | Instr.Slli ->
          let sh = Int64.to_int (Int64.logand imm 0x3FL) in
          fun h -> Hart.set h rd (Int64.shift_left (Hart.get h rs1) sh)
      | Instr.Srli ->
          let sh = Int64.to_int (Int64.logand imm 0x3FL) in
          fun h ->
            Hart.set h rd (Int64.shift_right_logical (Hart.get h rs1) sh)
      | Instr.Srai ->
          let sh = Int64.to_int (Int64.logand imm 0x3FL) in
          fun h -> Hart.set h rd (Int64.shift_right (Hart.get h rs1) sh)
      | Instr.Slti | Instr.Sltiu ->
          fun h -> Hart.set h rd (Alu.op_imm op (Hart.get h rs1) imm))
  | Instr.Op_imm32 (op, rd, rs1, imm) -> (
      match op with
      | Instr.Addiw ->
          fun h ->
            Hart.set h rd (Bits.sext32 (Int64.add (Hart.get h rs1) imm))
      | Instr.Slliw | Instr.Srliw | Instr.Sraiw ->
          fun h -> Hart.set h rd (Alu.op_imm32 op (Hart.get h rs1) imm))
  | Instr.Op (op, rd, rs1, rs2) -> (
      match op with
      | Instr.Add ->
          fun h -> Hart.set h rd (Int64.add (Hart.get h rs1) (Hart.get h rs2))
      | Instr.Sub ->
          fun h -> Hart.set h rd (Int64.sub (Hart.get h rs1) (Hart.get h rs2))
      | Instr.Xor ->
          fun h ->
            Hart.set h rd (Int64.logxor (Hart.get h rs1) (Hart.get h rs2))
      | Instr.Or ->
          fun h ->
            Hart.set h rd (Int64.logor (Hart.get h rs1) (Hart.get h rs2))
      | Instr.And ->
          fun h ->
            Hart.set h rd (Int64.logand (Hart.get h rs1) (Hart.get h rs2))
      | Instr.Sltu ->
          fun h ->
            Hart.set h rd
              (if Bits.ult (Hart.get h rs1) (Hart.get h rs2) then 1L else 0L)
      | Instr.Slt | Instr.Sll | Instr.Srl | Instr.Sra | Instr.Mul | Instr.Mulh
      | Instr.Mulhsu | Instr.Mulhu | Instr.Div | Instr.Divu | Instr.Rem
      | Instr.Remu ->
          fun h ->
            Hart.set h rd (Alu.op op (Hart.get h rs1) (Hart.get h rs2)))
  | Instr.Op32 (op, rd, rs1, rs2) -> (
      match op with
      | Instr.Addw ->
          fun h ->
            Hart.set h rd
              (Bits.sext32 (Int64.add (Hart.get h rs1) (Hart.get h rs2)))
      | Instr.Subw ->
          fun h ->
            Hart.set h rd
              (Bits.sext32 (Int64.sub (Hart.get h rs1) (Hart.get h rs2)))
      | Instr.Sllw | Instr.Srlw | Instr.Sraw | Instr.Mulw | Instr.Divw
      | Instr.Divuw | Instr.Remw | Instr.Remuw ->
          fun h ->
            Hart.set h rd (Alu.op32 op (Hart.get h rs1) (Hart.get h rs2)))
  | Instr.Fence -> fun _ -> ()
  | Instr.Fence_i | Instr.Ecall | Instr.Ebreak | Instr.Csr _ | Instr.Mret
  | Instr.Sret | Instr.Wfi | Instr.Sfence_vma _ | Instr.Amo _ ->
      fun h -> exec t h instr bits

let max_block_len = 64

(* Executor class (see block.ml): 0 pure, 1 control, 2 memory,
   3 delegate. Class 0 must coincide exactly with [Instr.is_pure],
   which also drives [pure_run]. *)
let class_of_instr instr =
  if Instr.is_pure instr then 0
  else
    match instr with
    | Instr.Jal _ | Instr.Jalr _ | Instr.Branch _ -> 1
    | Instr.Load _ | Instr.Store _ | Instr.Amo _ -> 2
    | _ -> 3

(* Compile a block starting at RAM word [idx0], reading only
   already-decoded words: compilation must never touch RAM or the
   bus, because a cold fill here would change decode fill timing
   relative to the interpreter (observable through DMA, which
   bypasses store-side invalidation until the next fence.i). Returns
   None when the first word is cold — the dispatcher then interprets
   one step, which warms it. Blocks never cross a 4 KiB page, so the
   page-granular store invalidation is a complete kill and the
   dispatch-time fetch-page check covers every instruction. *)
let compile_block t idx0 =
  let word k = Block.word t.blocks (idx0 + k) in
  match word 0 with
  | None -> None
  | Some _ ->
      let page_end = ((idx0 lsr 10) + 1) lsl 10 in
      let limit = min page_end (idx0 + max_block_len) in
      (* length of the warm prefix, cut after the first terminator *)
      let n = ref 0 in
      let scanning = ref true in
      while !scanning && idx0 + !n < limit do
        match word !n with
        | None -> scanning := false
        | Some (i, _) ->
            incr n;
            if Instr.is_block_terminator i then scanning := false
      done;
      let n = !n in
      let ops =
        Array.init n (fun k ->
            match word k with
            | Some (i, bits) -> op_of_instr t i bits ~off:(k lsl 2)
            | None -> assert false)
      in
      let pure_run = Array.make n 0 in
      let cls = Bytes.make n '\000' in
      let run = ref 0 in
      for k = n - 1 downto 0 do
        (match word k with
        | Some (i, _) ->
            if Instr.is_pure i then incr run else run := 0;
            Bytes.set cls k (Char.chr (class_of_instr i))
        | None -> assert false);
        pure_run.(k) <- !run
      done;
      let term_inert = Char.code (Bytes.get cls (n - 1)) <= 2 in
      let whole =
        n <= 16
        && pure_run.(0) = n - 1
        && Char.code (Bytes.get cls (n - 1)) = 1
      in
      Some { Block.ops; pure_run; cls; term_inert; whole }

let get_or_compile t idx =
  match Block.lookup t.blocks idx with
  | Some _ as b -> b
  | None -> (
      match compile_block t idx with
      | Some b ->
          Block.insert t.blocks idx b;
          Some b
      | None -> None)

(* Execute [blk0] (cached at slot [start_idx0]); the caller has
   already run [pre_step] for the first instruction and it returned
   true. Returns the number of machine steps consumed, in
   [1, budget].

   Per-instruction equivalence with the interpreter: each retired
   instruction gets exactly one [pre_step] (the elided per-fetch work
   — alignment check, epoch sync, fetch-page lookup, decode-cache read —
   cannot change outcome mid-block: pcs stay sequential and aligned,
   nothing inside a block bumps the vm-epoch before its terminator,
   and any store that rewrites this page kills the block, which the
   identity check below catches before the next instruction).

   Pure runs additionally batch the bookkeeping itself: for
   register-only, non-trapping, hook-free instructions the only
   observables of the per-step preamble are the irq-stale counter
   (bounded so no refresh point is skipped) and interrupt delivery
   (provably absent while mip land mie = 0, since nothing in a pure
   run can change either side). The deferred-action queue is not one
   of them: [advance] enters the engine only with it empty and ticks
   it itself, and the engine hands control back right after any step
   that deferred an action (only a trap or a memory/delegate op can).
   Batched closures leave [pc] parked at the batch start (receiving
   their own position as a byte delta); the single [pc <- pc + 4b]
   store afterwards is the only boxed-int64 write of the whole batch.

   When a block ends and nothing stopped the hart, execution chains
   straight into the block at the new pc — same block for a tight
   loop, successor block across a direct branch — re-establishing
   virtual validity exactly as the dispatcher would. For a block
   whose final op is translation-inert (class <= 2), a chain target
   inside the same virtual page provably still maps to the same
   physical page as at dispatch, so the epoch sync and fetch-page
   lookup are skipped; a self-chain back to the block's own entry pc
   additionally skips the cache lookup (the block cannot have been
   invalidated: stores were identity-checked as they executed, and
   nothing else since dispatch writes memory). A chain target that is
   cold or unmapped falls back to one interpreted step and then tries
   again, so the loop only returns to [step_blocks] on budget
   exhaustion, trap, deferral, wfi, halt or power-off.

   Counter discipline: cycles/instret/instr_count updates for pure
   and control ops are accumulated in a local [pend] and flushed
   before anything that could observe them — a memory or delegate op
   (MMIO hooks, rdcycle), trap entry, a slow [pre_step], the
   interpreter fallback, and return. Pure adders ([charge]) commute
   with the flush, so only readers force one. *)
let exec_block t hart blk0 start_idx0 ~page_base:page_base0 ~budget =
  let blk = ref blk0 in
  let start_idx = ref start_idx0 in
  let ops = ref blk0.Block.ops in
  let pure = ref blk0.Block.pure_run in
  let cls = ref blk0.Block.cls in
  let n = ref (Array.length blk0.Block.ops) in
  (* virtual entry pc of the current block and the RAM word index
     of its page, valid while [have_page] (killed by the interpreter
     fallback, whose instruction may change anything) *)
  let entry_pc = ref hart.Hart.pc in
  hart.Hart.bpc <- hart.Hart.pc;
  let page_base = ref page_base0 in
  let have_page = ref true in
  let steps = ref 0 in
  let retired = ref 0 in
  (* block-engine-retired instrs, for stats *)
  let disp = ref 0 in
  (* chained dispatches, flushed to stats on return *)
  let pend = ref 0 in
  let i = ref 0 in
  let continue_ = ref true in
  (* [pc_ok] tracks whether [hart.pc] is authoritative. While false,
     the true pc is [bpc + 4 i]: staleness only arises from pure ops
     skipping their pc write, and those leave pc parked where the
     last writer put it. [materialize] restores authority before
     anything that can observe pc. *)
  let pc_ok = ref true in
  let materialize () =
    if not !pc_ok then begin
      hart.Hart.pc <- Int64.add hart.Hart.bpc (Int64.of_int (!i lsl 2));
      pc_ok := true
    end
  in
  let flush () =
    if !pend > 0 then begin
      hart.Hart.cycles <- hart.Hart.cycles + !pend;
      hart.Hart.instret <- hart.Hart.instret + !pend;
      t.instr_count <- t.instr_count + !pend;
      pend := 0
    end
  in
  (* cached "mip land mie = 0": pure and control ops cannot change
     either side, so it is recomputed only after memory/delegate ops,
     trap entry, a slow pre_step or the interpreter fallback *)
  let no_irq = ref false in
  let sync_no_irq () =
    let csr = hart.Hart.csr in
    no_irq :=
      Int64.logand
        (Csr_file.read_raw csr Csr_addr.mip)
        (Csr_file.read_raw csr Csr_addr.mie)
      = 0L
  in
  sync_no_irq ();
  (* [pre_step] for the next instruction, with the common case — not
     stalled in wfi (possible right after a Wfi terminator), no line
     refresh due, nothing pending in mip∧mie (so no interrupt can be
     delivered) — inlined to three compares and one store.
     [just_trapped] is already false on every path that reaches
     here. *)
  let pre_next () =
    if (not hart.Hart.wfi) && hart.Hart.irq_stale < 15 && !no_irq then begin
      hart.Hart.irq_stale <- hart.Hart.irq_stale + 1;
      true
    end
    else begin
      materialize ();
      flush ();
      let r = pre_step t hart in
      sync_no_irq ();
      r
    end
  in
  (* Resident loop for a [Block.whole] self-chain — the shape of every
     tight guest loop (one pure run capped by a control terminator,
     branching back to its own entry). Entered from the tier-1 chain
     site when the batch precondition (mip land mie = 0) holds;
     keeps all hot state (steps, pending counters, the irq-stale
     window, the chain count) in parameters so iterating
     costs no heap traffic beyond the ops' own effects. Bit-exact with
     the generic batch-with-control-tail path: the window check,
     counter and stale updates, trap parking and the inter-step
     [pre_next] are the same decisions in the same order, merely with
     the block-shape reads constant-folded away. Every uncommon event
     writes the parameters back to the surrounding state and returns
     to the generic loop. *)
  let spin () =
    let sops = (!blk).Block.ops in
    let sn = !n in
    let sentry = !entry_pc in
    let term_off = Int64.of_int ((sn - 1) lsl 2) in
    (* [j] = index of the next op (0 at a fresh self-chain, mid-block
       while resuming after a straddled refresh); [ret]/[dsp] =
       instructions retired / dispatches begun inside the loop, folded
       into the surrounding counters on exit. Invariants at every
       [go]: pc = sentry + 4 j and authoritative, pre_step consumed
       for op [j], not wfi, mip land mie = 0, just_trapped clear. *)
    let rec go j steps0 pend0 stale ret dsp =
      let count = sn - j in
      if count > budget - steps0 then begin
        (* budget slice ends mid-run: hand the generic loop the
           mid-block state, it splits across the budget exactly as it
           would have without us *)
        hart.Hart.irq_stale <- stale;
        steps := steps0;
        pend := pend0;
        retired := !retired + ret;
        disp := !disp + dsp;
        i := j
      end
      else if count > 16 - stale then begin
        (* the irq-stale window closes mid-run: batch the pure prefix
           up to the refresh point (ops [j..j+w-1] are pure: the only
           non-pure op is the terminator, beyond the window), take the
           slow pre_step, then resume at op [j+w]. Identical decisions
           to the generic loop's capped batch + slow pre_next. *)
        let w = 16 - stale in
        for k = j to j + w - 1 do
          (Array.unsafe_get sops k) hart
        done;
        hart.Hart.pc <- Int64.add sentry (Int64.of_int ((j + w) lsl 2));
        hart.Hart.irq_stale <- 15 (* = stale + w - 1 *);
        pend := pend0 + w;
        flush ();
        let steps_a = steps0 + w in
        let ret_a = ret + w in
        let r = pre_step t hart in
        sync_no_irq ();
        if not r then begin
          (* interrupt delivered mid-block (trap entry consumed the
             step), or the hart stalled: stop, generic exit path *)
          steps := steps_a + 1;
          retired := !retired + ret_a;
          disp := !disp + dsp;
          i := j + w;
          continue_ := false
        end
        else if not !no_irq then begin
          (* batch precondition lapsed: generic loop takes over at
             op [j+w] with pc materialized *)
          steps := steps_a;
          retired := !retired + ret_a;
          disp := !disp + dsp;
          i := j + w
        end
        else go (j + w) steps_a 0 hart.Hart.irq_stale ret_a dsp
      end
      else begin
        (* the whole remainder fits the window: one batch with the
           control terminator swallowed *)
        let stale1 = stale + (count - 1) in
        let pend1 = pend0 + count in
        let trapped =
          try
            for k = j to sn - 1 do
              (Array.unsafe_get sops k) hart
            done;
            false
          with Cause.Trap (e, tval) ->
            (* only the terminator can raise, before writing pc *)
            hart.Hart.pc <- Int64.add sentry term_off;
            hart.Hart.irq_stale <- stale1;
            pend := pend1;
            flush ();
            take_trap t hart (Cause.Exception e) ~tval;
            sync_no_irq ();
            true
        in
        let steps1 = steps0 + count in
        let ret1 = ret + count in
        if trapped || steps1 >= budget then begin
          if not trapped then begin
            hart.Hart.irq_stale <- stale1;
            pend := pend1
          end;
          steps := steps1;
          retired := !retired + ret1;
          disp := !disp + dsp;
          i := sn;
          continue_ := false
        end
        else if stale1 < 15 then begin
          (* inline fast pre_next: not-wfi and mip land mie = 0 are
             spin invariants *)
          if hart.Hart.pc = sentry then
            go 0 steps1 pend1 (stale1 + 1) ret1 (dsp + 1)
          else begin
            (* fell through: back to the generic chain logic *)
            hart.Hart.irq_stale <- stale1 + 1;
            steps := steps1;
            pend := pend1;
            retired := !retired + ret1;
            disp := !disp + dsp;
            i := sn
          end
        end
        else begin
          (* line-refresh due between runs: the slow pre_next, pc
             already authoritative (the terminator wrote it) *)
          hart.Hart.irq_stale <- stale1;
          pend := pend1;
          flush ();
          let r = pre_step t hart in
          sync_no_irq ();
          if not r then begin
            steps := steps1 + 1;
            retired := !retired + ret1;
            disp := !disp + dsp;
            i := sn;
            continue_ := false
          end
          else if hart.Hart.pc = sentry && !no_irq then
            go 0 steps1 0 hart.Hart.irq_stale ret1 (dsp + 1)
          else if hart.Hart.pc = sentry then begin
            (* chained home but the batch precondition lapsed: hand
               the realized self-chain to the generic loop *)
            steps := steps1;
            retired := !retired + ret1;
            disp := !disp + (dsp + 1);
            i := 0
          end
          else begin
            steps := steps1;
            retired := !retired + ret1;
            disp := !disp + dsp;
            i := sn
          end
        end
      end
    in
    go 0 !steps !pend hart.Hart.irq_stale 0 1
  in
  while !continue_ do
    if !i < !n then begin
      let run = Array.unsafe_get !pure !i in
      let w =
        if not !no_irq then 1
        else begin
          (* explicit int compares: Stdlib.min is polymorphic and
             would drag caml_lessequal into the per-batch path *)
          let a = 16 - hart.Hart.irq_stale in
          let c = budget - !steps in
          if a < c then a else c
        end
      in
      let bp = if run < w then run else w in
      (* Swallow the block's control terminator into the batch when
         the whole pure run fit and the window allows one more step:
         it cannot store, stall or observe counters, and it writes
         the successor pc itself (from [pc + delta]), so the batch
         then needs no pc store at all. *)
      let tail =
        bp = run
        && bp + 1 <= w
        && !i + run < !n
        && Char.code (Bytes.unsafe_get !cls (!i + run)) = 1
      in
      let b = if tail then bp + 1 else bp in
      if b >= 2 then begin
        let ops = !ops in
        let base = !i in
        (* the first instruction's pre_step already bumped the
           counter; the rest of the batch's bumps commute with the
           ops (none reads irq state) and with the counter flush *)
        hart.Hart.irq_stale <- hart.Hart.irq_stale + (b - 1);
        pend := !pend + b;
        if tail then (
          try
            for k = 0 to bp - 1 do
              (Array.unsafe_get ops (base + k)) hart
            done;
            (Array.unsafe_get ops (base + bp)) hart;
            (* the terminator wrote the successor pc *)
            pc_ok := true
          with Cause.Trap (e, tval) ->
            (* only the terminator can raise (misaligned target),
               before writing pc — park pc on it so mepc is right *)
            hart.Hart.pc <-
              Int64.add hart.Hart.bpc (Int64.of_int ((base + bp) lsl 2));
            pc_ok := true;
            flush ();
            take_trap t hart (Cause.Exception e) ~tval;
            sync_no_irq ())
        else begin
          for k = 0 to b - 1 do
            (Array.unsafe_get ops (base + k)) hart
          done;
          pc_ok := false
        end;
        steps := !steps + b;
        retired := !retired + b;
        i := !i + b;
        (* a pure batch cannot trap, halt, power off or invalidate
           blocks, and its control tail can only trap: the trap, the
           budget and the next pre_step are the only stop checks *)
        if hart.Hart.just_trapped || !steps >= budget then continue_ := false
        else if not (pre_next ()) then begin
          incr steps;
          continue_ := false
        end
      end
      else begin
        let c = Char.code (Bytes.unsafe_get !cls !i) in
        pend := !pend + 1;
        if c = 0 then begin
          (* pure single step: cannot trap; same reasoning as batch *)
          (Array.unsafe_get !ops !i) hart;
          pc_ok := false;
          incr steps;
          incr retired;
          incr i;
          if !steps >= budget then continue_ := false
          else if not (pre_next ()) then begin
            incr steps;
            continue_ := false
          end
        end
        else if c = 1 then begin
          (* jal/jalr/branch: no store, no halt/poweroff, no
             translation change — only a misaligned target traps *)
          (try
             (Array.unsafe_get !ops !i) hart;
             pc_ok := true
           with Cause.Trap (e, tval) ->
             hart.Hart.pc <- Int64.add hart.Hart.bpc (Int64.of_int (!i lsl 2));
             pc_ok := true;
             flush ();
             take_trap t hart (Cause.Exception e) ~tval;
             sync_no_irq ());
          incr steps;
          incr retired;
          incr i;
          if hart.Hart.just_trapped || !steps >= budget then continue_ := false
          else if not (pre_next ()) then begin
            incr steps;
            continue_ := false
          end
        end
        else begin
          (* memory or delegate: full interpreter ceremony and the
             full set of stop checks (a store may invalidate this very
             block; a delegate may do anything, an sfence.vma may defer
             its remote shootdown) *)
          materialize ();
          flush ();
          (try (Array.unsafe_get !ops !i) hart
           with Cause.Trap (e, tval) ->
             take_trap t hart (Cause.Exception e) ~tval);
          sync_no_irq ();
          incr steps;
          incr retired;
          incr i;
          if
            hart.Hart.just_trapped || t.poweroff || hart.Hart.halted
            || !steps >= budget || t.deferred != []
            || (match Block.lookup t.blocks !start_idx with
               | Some cur -> cur != !blk
               | None -> true)
          then continue_ := false
          else if not (pre_next ()) then begin
            (* interrupt delivered between two block instructions: the
               step is consumed by trap entry, exactly as the
               interpreter's *)
            incr steps;
            continue_ := false
          end
        end
      end
    end
    else begin
      (* Block boundary, pre_step already consumed and true: chain to
         the block at the (post-terminator) pc, or interpret one step
         to warm it and retry. A pure fallthrough tail (page-cut
         block) leaves pc stale, so re-establish it first. *)
      materialize ();
      let pc = hart.Hart.pc in
      let chained = ref false in
      if !have_page && (!blk).Block.term_inert then begin
        if pc = !entry_pc then begin
          (* tight loop back to this block's own entry *)
          if (!blk).Block.whole && !no_irq then spin ()
          else begin
            incr disp;
            i := 0
          end;
          chained := true
        end
        else if
          Int64.logand (Int64.logxor pc !entry_pc) (Int64.lognot 0xFFFL) = 0L
        then begin
          (* same virtual page: the dispatch-time base still holds
             (pc is 4-aligned here: a misaligned control target would
             have trapped, and fallthrough pcs stay aligned) *)
          let idx = !page_base + ((Int64.to_int pc land 0xFFF) lsr 2) in
          match get_or_compile t idx with
          | Some b ->
              incr disp;
              blk := b;
              start_idx := idx;
              ops := b.Block.ops;
              pure := b.Block.pure_run;
              cls := b.Block.cls;
              n := Array.length b.Block.ops;
              entry_pc := pc;
              hart.Hart.bpc <- pc;
              i := 0;
              chained := true
          | None -> ()
        end
      end;
      if not !chained then begin
        if Int64.logand pc 3L = 0L then begin
          let tlb = hart.Hart.tlb in
          Tlb.sync_epoch tlb (Csr_file.vm_epoch hart.Hart.csr);
          let base = Tlb.fetch_lookup tlb ~priv:hart.Hart.priv pc in
          if base >= 0 then begin
            let idx = base + ((Int64.to_int pc land 0xFFF) lsr 2) in
            match get_or_compile t idx with
            | Some b ->
                incr disp;
                blk := b;
                start_idx := idx;
                ops := b.Block.ops;
                pure := b.Block.pure_run;
                cls := b.Block.cls;
                n := Array.length b.Block.ops;
                entry_pc := pc;
                hart.Hart.bpc <- pc;
                page_base := base;
                have_page := true;
                i := 0;
                chained := true
            | None -> ()
          end
        end;
        if not !chained then begin
          flush ();
          fetch_exec_one t hart;
          Block.note_interp_instr t.blocks;
          sync_no_irq ();
          have_page := false;
          incr steps;
          if
            hart.Hart.just_trapped || t.poweroff || hart.Hart.halted
            || !steps >= budget || t.deferred != []
          then continue_ := false
          else if not (pre_next ()) then begin
            incr steps;
            continue_ := false
          end
        end
      end
    end
  done;
  materialize ();
  flush ();
  Block.note_block_instrs t.blocks !retired;
  if !disp > 0 then Block.note_dispatches t.blocks !disp;
  !steps

(* Block-engine stepping: consume up to [budget] machine steps and
   return how many were consumed (>= 1 whenever the hart is live).
   [step] above remains the per-instruction oracle; this entry point
   must be bit-exact with running [step] the same number of times —
   record/replay digests and fleet determinism depend on it. It
   returns right after a step that ends in trap entry or leaves a
   deferred action queued, so a scheduler sees every trap and
   [advance] ticks every deferral on time. Usage is confined to
   lib/rv, lib/verif and bench by lint rule 7. *)
let step_blocks t hart ~budget =
  let steps = ref 0 in
  while
    !steps < budget && (not t.poweroff) && (not hart.Hart.halted)
    && (!steps = 0 || not (hart.Hart.just_trapped || t.deferred != []))
  do
    if not (pre_step t hart) then incr steps
    else begin
      let pc = hart.Hart.pc in
      let base =
        if Int64.logand pc 3L <> 0L then -1
        else begin
          let tlb = hart.Hart.tlb in
          Tlb.sync_epoch tlb (Csr_file.vm_epoch hart.Hart.csr);
          Tlb.fetch_lookup tlb ~priv:hart.Hart.priv pc
        end
      in
      if base < 0 then begin
        (* misaligned pc, cold fetch page, or tlb_entries = 0: one
           interpreted step (which also installs the fetch page) *)
        fetch_exec_one t hart;
        Block.note_interp_instr t.blocks;
        incr steps
      end
      else begin
        let idx = base + ((Int64.to_int pc land 0xFFF) lsr 2) in
        match get_or_compile t idx with
        | None ->
            (* cold (undecoded) word: interpret once to warm it *)
            fetch_exec_one t hart;
            Block.note_interp_instr t.blocks;
            incr steps
        | Some blk ->
            Block.note_dispatch t.blocks;
            steps :=
              !steps
              + exec_block t hart blk idx ~page_base:base
                  ~budget:(budget - !steps)
      end
    end
  done;
  !steps

let block_stats t = Block.stats t.blocks
let block_hit_rate t = Block.hit_rate t.blocks
let set_block_engine t on = t.block_engine <- on

(* The one engine entry of every driver: run up to [k] >= 1 steps of a
   live hart and return how many ran. It is the only reader of the
   [block_engine] knob and the only place deferred race actions tick,
   once before each step: while any is pending it moves one step;
   otherwise the chosen engine runs until the budget, a trap entry, a
   deferral, halt or power-off. *)
let advance t hart k =
  if t.deferred != [] then begin
    tick_deferred t;
    step t hart;
    1
  end
  else if t.block_engine then step_blocks t hart ~budget:k
  else
    let rec interp n =
      step t hart;
      if
        n < k && t.deferred == []
        && not (t.poweroff || hart.Hart.halted || hart.Hart.just_trapped)
      then interp (n + 1)
      else n
    in
    interp 1

let all_halted t =
  Array.for_all (fun h -> h.Hart.halted) t.harts

let sync_time t =
  let max_cycles =
    Array.fold_left (fun acc h -> max acc h.Hart.cycles) 0 t.harts
  in
  Clint.set_mtime t.clint
    (Int64.of_int (max_cycles / t.config.cycles_per_tick))

let poll_devices t =
  (match t.blockdev with
  | Some bd ->
      Blockdev.poll bd ~now:(Clint.mtime t.clint) (Plic.raise_irq t.plic)
  | None -> ());
  match t.nic with
  | Some nic ->
      if Nic.irq_line nic then Plic.raise_irq t.plic (Nic.irq nic)
      else Plic.lower_irq t.plic (Nic.irq nic)
  | None -> ()

(* Device time advances between hart slices: every [slice] steps per
   hart in both drivers. *)
let slice = 32

let sync_devices t =
  sync_time t;
  poll_devices t;
  match t.on_chunk with Some f -> f t | None -> ()

let run ?(max_instrs = Int64.max_int) t =
  let max_instrs =
    if max_instrs >= Int64.of_int max_int then max_int
    else Int64.to_int max_instrs
  in
  let start = t.instr_count in
  let budget_left () = max_instrs - (t.instr_count - start) in
  while (not t.poweroff) && (not (all_halted t)) && budget_left () > 0 do
    Array.iter
      (fun hart ->
        (* [advance] consumes >= 1 step per call on a live hart, so the
           slice always terminates *)
        let n = ref 0 in
        while !n < slice && (not t.poweroff) && not hart.Hart.halted do
          n := !n + advance t hart (slice - !n)
        done)
      t.harts;
    sync_devices t
  done;
  sync_time t

(* Scheduled execution: [next t ~step ~last] names the hart to run and
   for how many steps, given the steps consumed so far and the hart of
   the previous segment (-1 at the start). Each segment runs through
   [advance], cut at the device-sync boundaries (every [slice * nharts]
   steps, [run]'s cadence) without consulting [next], and ended early
   by a trap entry, halt or power-off — the only points where the
   explorer's schedulers change their decision. A halted or
   out-of-range hart steps nothing but consumes one step, so the loop
   always terminates. [next] may raise to abort the run. Returns the
   number of steps consumed. *)
let run_scheduled ?(max_steps = max_int) ~next t =
  let nharts = Array.length t.harts in
  let period = slice * nharts in
  let total = ref 0 in
  let last = ref (-1) in
  (* no piece crosses a sync point, so one lands exactly on each *)
  let consume n =
    total := !total + n;
    if !total mod period = 0 then sync_devices t
  in
  while (not t.poweroff) && (not (all_halted t)) && !total < max_steps do
    let h, k = next t ~step:!total ~last:!last in
    last := h;
    if h < 0 || h >= nharts || t.harts.(h).Hart.halted then consume 1
    else begin
      let hart = t.harts.(h) in
      let left = ref (min (max k 1) (max_steps - !total)) in
      while !left > 0 do
        let n = advance t hart (min !left (period - (!total mod period))) in
        consume n;
        left :=
          if hart.Hart.just_trapped || hart.Hart.halted || t.poweroff then 0
          else !left - n
      done
    end
  done;
  sync_time t;
  !total
