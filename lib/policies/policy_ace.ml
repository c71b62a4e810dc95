module Policy = Miralis.Policy
module World = Miralis.World
module Vpmp = Miralis.Vpmp
module Machine = Mir_rv.Machine
module Hart = Mir_rv.Hart
module Pmp = Mir_rv.Pmp
module Csr_file = Mir_rv.Csr_file
module Csr_addr = Mir_rv.Csr_addr
module Ms = Mir_rv.Csr_spec.Mstatus
module Priv = Mir_rv.Priv
module Bits = Mir_util.Bits

let ext_covh = Mir_sbi.Sbi.ext_covh
let fid_tsm_info = 0L
let fid_promote = 1L
let fid_run_vcpu = 2L
let fid_destroy = 3L
let err_interrupted = -4L
let page_size = 4096L

type cvm_state = Ready | Running | Interrupted | Destroyed

type cvm = {
  id : int;
  base : int64;
  size : int64;
  entry : int64;
  mutable state : cvm_state;
  mutable owner : int option;
  mutable leaked : bool;
}

type state = {
  mutable cvms : cvm list;
  mutable vcpu_entries : int;
  mutable vm_exits : int;
  owned : (int64, int) Hashtbl.t;
}

let pmp_slots = 3

(* The supervisor CSRs shadowed per CVM — the VS-context. *)
let vs_context_csrs =
  Csr_addr.
    [ stvec; sscratch; sepc; scause; stval; satp; scounteren; senvcfg ]

type vcpu_ctx = {
  regs : int64 array;
  pc : int64;
  scsrs : int64 array;  (* indexed like vs_context_csrs *)
}

type hart_run = { cvm : cvm; host : vcpu_ctx; host_medeleg : int64 }

let capture hart ~pc =
  {
    regs = Array.init 32 (Hart.get hart);
    pc;
    scsrs =
      Array.of_list
        (List.map (Csr_file.read_raw hart.Hart.csr) vs_context_csrs);
  }

let install hart (ctx : vcpu_ctx) =
  Array.iteri (fun i v -> Hart.set hart i v) ctx.regs;
  List.iteri
    (fun i a -> Csr_file.write_raw hart.Hart.csr a ctx.scsrs.(i))
    vs_context_csrs

let fresh_vcpu cvm =
  { regs = Array.make 32 0L; pc = cvm.entry; scsrs = Array.make 8 0L }

let pages_of ~base ~size =
  let n = Int64.to_int (Int64.div size page_size) in
  List.init n (fun i -> Int64.add base (Int64.mul (Int64.of_int i) page_size))

let create () =
  let state =
    { cvms = []; vcpu_entries = 0; vm_exits = 0; owned = Hashtbl.create 64 }
  in
  let next_id = ref 0 in
  let running : (int, hart_run) Hashtbl.t = Hashtbl.create 4 in
  let suspended : (int, vcpu_ctx) Hashtbl.t = Hashtbl.create 4 in
  let find id =
    List.find_opt (fun c -> c.id = id && c.state <> Destroyed) state.cvms
  in
  let live () = List.filter (fun c -> c.state <> Destroyed) state.cvms in
  let pmp_entries (ctx : Policy.ctx) =
    match Hashtbl.find_opt running ctx.Policy.hart.Hart.id with
    | Some run ->
        (* The stolen hart sees exactly its CVM and nothing else: an
           RWX window over the CVM's pages above a deny-all floor. *)
        [
          Vpmp.grant_napot ~base:run.cvm.base ~size:run.cvm.size;
          { Pmp.off_entry with a = Pmp.Napot; addr = -1L };
        ]
    | None ->
        (* Non-confidential world: every live CVM's pages are denied.
           A [leaked] CVM (its re-protection delayed by an armed race)
           is left without its deny entry until the re-protection
           lands. *)
        List.filter_map
          (fun c ->
            if c.state = Destroyed || c.leaked then None
            else
              Some
                {
                  Pmp.off_entry with
                  a = Pmp.Napot;
                  addr = Pmp.napot_encode ~base:c.base ~size:c.size;
                })
          state.cvms
        |> List.filteri (fun i _ -> i < pmp_slots)
  in
  (* Steal: the hart leaves the non-confidential world, the CVM's
     ownership transfers to it, and the heavy context switch (full
     host save, vcpu install, PMP grant) is charged. *)
  let enter (ctx : Policy.ctx) run vcpu =
    let hart = ctx.Policy.hart in
    state.vcpu_entries <- state.vcpu_entries + 1;
    Hashtbl.replace running hart.Hart.id run;
    (* CVM ecalls (its SBI calls and teecalls) must reach the monitor. *)
    Csr_file.write_raw hart.Hart.csr Csr_addr.medeleg
      (Bits.clear run.host_medeleg 8);
    install hart vcpu;
    run.cvm.state <- Running;
    run.cvm.owner <- Some hart.Hart.id;
    ctx.Policy.reinstall_pmp ();
    World.charge_ace_steal ctx.Policy.config ctx.Policy.stats hart;
    Machine.resume hart ~pc:vcpu.pc ~priv:Priv.U
  in
  (* Return: ownership is released, the host context is restored and
     the CVM's pages are re-protected before the hart re-enters the
     non-confidential world. The re-protection is a [Cvm_reprotect]
     site: if an armed race delays it, the returning hart's PMP is
     rebuilt without the CVM's deny entry, so for a short window the
     firmware's all-allow vPMP entry exposes the confidential pages to
     the OS. *)
  let leave (ctx : Policy.ctx) run ~err ~value ~interrupted =
    let hart = ctx.Policy.hart in
    state.vm_exits <- state.vm_exits + 1;
    Hashtbl.remove running hart.Hart.id;
    run.cvm.owner <- None;
    Csr_file.write_raw hart.Hart.csr Csr_addr.medeleg run.host_medeleg;
    install hart run.host;
    Hart.set hart 10 err;
    Hart.set hart 11 value;
    if
      Machine.delay ctx.Policy.machine Machine.Cvm_reprotect (fun _ ->
          run.cvm.leaked <- false;
          ctx.Policy.reinstall_pmp_all ())
    then run.cvm.leaked <- true;
    ctx.Policy.reinstall_pmp ();
    World.charge_ace_return ctx.Policy.config ctx.Policy.stats hart;
    if interrupted then begin
      run.cvm.state <- Interrupted;
      Csr_file.write_raw hart.Hart.csr Csr_addr.mepc run.host.pc;
      let m = Csr_file.read_raw hart.Hart.csr Csr_addr.mstatus in
      Csr_file.write_raw hart.Hart.csr Csr_addr.mstatus (Ms.set_mpp m Priv.S)
    end
    else begin
      (* the exiting trap came from U (the CVM); the host resumes in S *)
      let m = Csr_file.read_raw hart.Hart.csr Csr_addr.mstatus in
      Csr_file.write_raw hart.Hart.csr Csr_addr.mstatus (Ms.set_mpp m Priv.S);
      ctx.Policy.return_to_os ~pc:run.host.pc
    end
  in
  let on_ecall_from_os (ctx : Policy.ctx) =
    let hart = ctx.Policy.hart in
    match Hashtbl.find_opt running hart.Hart.id with
    | Some run ->
        (* teecall: the CVM exits voluntarily with a value. *)
        run.cvm.state <- Ready;
        Hashtbl.remove suspended run.cvm.id;
        leave ctx run ~err:0L ~value:(Hart.get hart 10) ~interrupted:false;
        Policy.Handled
    | None -> begin
        let ext, fid = Policy.sbi_args ctx in
        if ext <> ext_covh then Policy.Pass
        else if fid = fid_tsm_info then begin
          (* report: number of live CVMs *)
          Policy.sbi_return ctx ~err:0L
            ~value:(Int64.of_int (List.length (live ())));
          Policy.Handled
        end
        else if fid = fid_promote then begin
          let base = Hart.get hart 10
          and size = Hart.get hart 11
          and entry = Hart.get hart 12 in
          let well_formed =
            size >= page_size
            && Int64.logand size (Int64.sub size 1L) = 0L
            && Int64.logand base (Int64.sub size 1L) = 0L
            && List.length (live ()) < pmp_slots - 1
          in
          (* Page-granular ownership: every page of the candidate
             region must be unowned, so a region overlapping a live
             CVM — adjacent is fine, straddling is not — is rejected
             before any state changes. *)
          let ok =
            well_formed
            && List.for_all
                 (fun p -> not (Hashtbl.mem state.owned p))
                 (pages_of ~base ~size)
          in
          if not ok then Policy.sbi_return ctx ~err:(-3L) ~value:0L
          else begin
            incr next_id;
            let c =
              {
                id = !next_id;
                base;
                size;
                entry;
                state = Ready;
                owner = None;
                leaked = false;
              }
            in
            List.iter
              (fun p -> Hashtbl.replace state.owned p c.id)
              (pages_of ~base ~size);
            state.cvms <- c :: state.cvms;
            (* sibling harts must pick up the new deny entry too *)
            ctx.Policy.reinstall_pmp_all ();
            Policy.sbi_return ctx ~err:0L ~value:(Int64.of_int c.id)
          end;
          Policy.Handled
        end
        else if fid = fid_run_vcpu then begin
          (match find (Int64.to_int (Hart.get hart 10)) with
          | None -> Policy.sbi_return ctx ~err:(-3L) ~value:0L
          | Some c -> begin
              let mepc = Csr_file.read_raw hart.Hart.csr Csr_addr.mepc in
              let host = capture hart ~pc:(Int64.add mepc 4L) in
              let host_medeleg =
                Csr_file.read_raw hart.Hart.csr Csr_addr.medeleg
              in
              match c.state with
              | Ready ->
                  enter ctx { cvm = c; host; host_medeleg } (fresh_vcpu c)
              | Interrupted ->
                  let vcpu =
                    match Hashtbl.find_opt suspended c.id with
                    | Some v -> v
                    | None -> fresh_vcpu c
                  in
                  Hashtbl.remove suspended c.id;
                  enter ctx { cvm = c; host; host_medeleg } vcpu
              | Running | Destroyed ->
                  (* Running: the vcpu is owned by another hart;
                     ownership transfer (its return) is the
                     synchronization point. *)
                  Policy.sbi_return ctx ~err:(-3L) ~value:0L
            end);
          Policy.Handled
        end
        else if fid = fid_destroy then begin
          (match find (Int64.to_int (Hart.get hart 10)) with
          | None -> Policy.sbi_return ctx ~err:(-3L) ~value:0L
          | Some c when c.owner <> None ->
              (* owned by a running hart: must be returned first *)
              Policy.sbi_return ctx ~err:(-3L) ~value:0L
          | Some c ->
              c.state <- Destroyed;
              Hashtbl.remove suspended c.id;
              List.iter
                (fun p -> Hashtbl.remove state.owned p)
                (pages_of ~base:c.base ~size:c.size);
              let words = Int64.to_int c.size / 8 in
              for i = 0 to words - 1 do
                ignore
                  (Machine.phys_store ctx.Policy.machine
                     (Int64.add c.base (Int64.of_int (8 * i)))
                     8 0L)
              done;
              ctx.Policy.reinstall_pmp_all ();
              Policy.sbi_return ctx ~err:0L ~value:0L);
          Policy.Handled
        end
        else begin
          Policy.sbi_return ctx ~err:(-2L) ~value:0L;
          Policy.Handled
        end
      end
  in
  let on_interrupt (ctx : Policy.ctx) _i =
    let hart = ctx.Policy.hart in
    match Hashtbl.find_opt running hart.Hart.id with
    | None -> Policy.Pass
    | Some run ->
        let pc = Csr_file.read_raw hart.Hart.csr Csr_addr.mepc in
        Hashtbl.replace suspended run.cvm.id (capture hart ~pc);
        leave ctx run ~err:err_interrupted ~value:0L ~interrupted:true;
        Policy.Pass
  in
  let policy =
    {
      (Policy.default "ace") with
      Policy.pmp_entries;
      on_ecall_from_os;
      on_interrupt;
    }
  in
  (policy, state)
