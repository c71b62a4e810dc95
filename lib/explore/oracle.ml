(* Invariant oracles checked at hart-switch points.

   Each oracle inspects the whole-machine state between two steps and
   reports the first hart for which a cross-hart invariant is broken.
   They are only ever evaluated at schedule switch points — i.e. with
   no monitor handler mid-flight, since trap handling is atomic within
   one step — so "transiently inconsistent inside a handler" can never
   be reported; what they catch is state that leaked across a real
   hart interleaving. *)

module Machine = Mir_rv.Machine
module Hart = Mir_rv.Hart
module Tlb = Mir_rv.Tlb
module Clint = Mir_rv.Clint
module Csr_file = Mir_rv.Csr_file
module Csr_addr = Mir_rv.Csr_addr
module Pmp = Mir_rv.Pmp
module Priv = Mir_rv.Priv
module Vmem = Mir_rv.Vmem
module Bits = Mir_util.Bits
module Ms = Mir_rv.Csr_spec.Mstatus
module Monitor = Miralis.Monitor
module Vclint = Miralis.Vclint
module Vpmp = Miralis.Vpmp
module Policy = Miralis.Policy

type violation = { oracle : string; hart : int; detail : string }
type t = { name : string; check : unit -> violation option }

let first_violation oracles = List.find_map (fun o -> o.check ()) oracles

(* Every policy violation the monitor itself flagged (it also powers
   the machine off, but the schedule runner attributes it like any
   other oracle hit). *)
let policy_flag (mir : Monitor.t) =
  {
    name = "policy";
    check =
      (fun () ->
        Option.map
          (fun msg -> { oracle = "policy"; hart = -1; detail = msg })
          mir.Monitor.violation);
  }

(* Physical-PMP-vs-owning-vhart consistency: for every hart, re-derive
   the entry array Miralis would install right now (virtual entries of
   the hart's current world + the policy's current entries) and
   compare it against what is actually decoded from the hart's
   physical pmpcfg/pmpaddr CSRs. Only the derived prefix is compared:
   [Vpmp.install] never clears slots beyond it, and they sit behind
   the catch-all entry, so they are unreachable. *)
let pmp_owner (mir : Monitor.t) =
  let check () =
    let m = mir.Monitor.machine in
    let found = ref None in
    Array.iter
      (fun hart ->
        if !found = None then begin
          let vh = mir.Monitor.vharts.(hart.Hart.id) in
          let policy =
            mir.Monitor.policy.Policy.pmp_entries (Monitor.policy_ctx mir hart)
          in
          let expected = Vpmp.build mir.Monitor.config vh ~policy in
          let actual = Csr_file.pmp_entries hart.Hart.csr in
          let n = min (Array.length expected) (Array.length actual) in
          for i = 0 to n - 1 do
            if !found = None && expected.(i) <> actual.(i) then
              found :=
                Some
                  {
                    oracle = "pmp-owner";
                    hart = hart.Hart.id;
                    detail =
                      Printf.sprintf
                        "pmp entry %d: expected cfg=%#x addr=%#Lx, installed \
                         cfg=%#x addr=%#Lx"
                        i
                        (Pmp.cfg_byte_of_entry expected.(i))
                        expected.(i).Pmp.addr
                        (Pmp.cfg_byte_of_entry actual.(i))
                        actual.(i).Pmp.addr;
                  }
          done
        end)
      m.Machine.harts;
    !found
  in
  { name = "pmp-owner"; check }

(* vCLINT MSIP delivery ordering: a posted virtual IPI (or remote
   fence) must be backed by a pending physical MSIP until the
   monitor's handler consumes both atomically. Observing the flag
   without the MSIP between steps means the kick was lost or delayed
   across a preemption — the target would sleep through the IPI. *)
let msip_delivery (mir : Monitor.t) =
  let check () =
    let m = mir.Monitor.machine in
    let vc = mir.Monitor.vclint in
    let found = ref None in
    Array.iter
      (fun hart ->
        let h = hart.Hart.id in
        if !found = None && not (Clint.msip m.Machine.clint h) then begin
          if Vclint.os_ipi_pending vc h then
            found :=
              Some
                {
                  oracle = "msip-delivery";
                  hart = h;
                  detail = "os_ipi_pending set but physical msip clear";
                }
          else if Vclint.rfence_pending vc h then
            found :=
              Some
                {
                  oracle = "msip-delivery";
                  hart = h;
                  detail = "rfence_pending set but physical msip clear";
                }
        end)
      m.Machine.harts;
    !found
  in
  { name = "msip-delivery"; check }

(* Cross-hart sfence / vm-epoch coherence: no hart may hold a TLB
   entry that disagrees with what a fresh page-table walk would
   produce right now. Scenario PTE edits are performed atomically with
   their fence (as a real kernel does: edit, then sfence.vma), so any
   disagreement at a switch point means a fence failed to reach this
   hart. The walk reuses the hart's current satp/SUM/MXR — the TLB's
   epoch discipline guarantees those match the install-time context —
   and runs with a no-op A/D writer so the check is read-only. *)
let sfence_coherence (m : Machine.t) =
  let check () =
    let found = ref None in
    Array.iter
      (fun hart ->
        if !found = None then begin
          let csr = hart.Hart.csr in
          Tlb.sync_epoch hart.Hart.tlb (Csr_file.vm_epoch csr);
          let satp = Csr_file.read_raw csr Csr_addr.satp in
          let ms = Csr_file.read_raw csr Csr_addr.mstatus in
          let sum = Bits.test ms Ms.sum and mxr = Bits.test ms Ms.mxr in
          let walk priv access vaddr =
            Vmem.translate
              ~read:(fun a -> Machine.phys_load m a 8)
              ~write:(fun _ _ -> ())
              ~satp ~priv ~sum ~mxr access vaddr
          in
          Tlb.iter_valid hart.Hart.tlb
            (fun ~vpn ~priv ~loads ~stores ~fetches ~pbase ->
              if !found = None then begin
                let vaddr = Int64.shift_left (Int64.of_int vpn) 12 in
                let kinds =
                  (if loads then [ Vmem.Load ] else [])
                  @ (if stores then [ Vmem.Store ] else [])
                  @ if fetches then [ Vmem.Fetch ] else []
                in
                List.iter
                  (fun access ->
                    if !found = None then
                      let stale detail =
                        found :=
                          Some
                            {
                              oracle = "sfence-coherence";
                              hart = hart.Hart.id;
                              detail =
                                Printf.sprintf "vaddr %#Lx: %s" vaddr detail;
                            }
                      in
                      match walk priv access vaddr with
                      | Ok phys ->
                          let page =
                            Int64.to_int (Int64.logand phys (Int64.lognot 0xFFFL))
                          in
                          if page <> pbase then
                            stale
                              (Printf.sprintf
                                 "TLB caches page %#x, walk yields %#x" pbase
                                 page)
                      | Error _ ->
                          stale "TLB entry valid but a fresh walk faults")
                  kinds
              end)
        end)
      m.Machine.harts;
    !found
  in
  { name = "sfence-coherence"; check }

(* Policy isolation: a protected region (an enclave, a confidential
   VM) must never be readable at supervisor privilege from a hart that
   is not currently executing inside it — in particular not from a
   sibling hart mid-handoff, which is exactly the window a stale PMP
   leaves open. [regions] is consulted at every check so it tracks the
   policy's live state (e.g. non-destroyed enclaves). *)
(* ACE confidentiality: no confidential page may be readable at
   supervisor privilege from any hart that does not currently own the
   CVM — in particular not right after a return, which is exactly the
   window a stale (delayed) re-protection leaves open. [cvms] yields
   (base, size, owning hart) for every live CVM; ownership [None]
   means the vcpu is returned and *no* hart may read the pages. *)
let cvm_confidential ~cvms (m : Machine.t) =
  let check () =
    let found = ref None in
    List.iter
      (fun (base, _size, owner) ->
        Array.iter
          (fun hart ->
            if
              !found = None
              && owner <> Some hart.Hart.id
              && Pmp.check_ranges
                   (Csr_file.pmp_ranges hart.Hart.csr)
                   ~priv:Priv.S Pmp.Read ~addr:base ~size:8
            then
              found :=
                Some
                  {
                    oracle = "cvm-confidential";
                    hart = hart.Hart.id;
                    detail =
                      Printf.sprintf
                        "confidential page %#Lx readable from non-owning \
                         hart (owner %s)"
                        base
                        (match owner with
                        | Some h -> string_of_int h
                        | None -> "none");
                  })
          m.Machine.harts)
      (cvms ());
    !found
  in
  { name = "cvm-confidential"; check }

(* ACE ownership: a hart executing inside a live CVM's pages must be
   the hart that currently owns its vcpu. Catching a pc inside the
   region without ownership means a hart kept running a stolen vcpu
   after the ownership transfer — the FSM's synchronization point —
   completed elsewhere. *)
let cvm_ownership ~cvms (m : Machine.t) =
  let check () =
    let found = ref None in
    List.iter
      (fun (base, size, owner) ->
        Array.iter
          (fun hart ->
            if !found = None then begin
              let pc = hart.Hart.pc in
              let inside =
                Int64.unsigned_compare pc base >= 0
                && Int64.unsigned_compare pc (Int64.add base size) < 0
              in
              if inside && owner <> Some hart.Hart.id then
                found :=
                  Some
                    {
                      oracle = "cvm-ownership";
                      hart = hart.Hart.id;
                      detail =
                        Printf.sprintf
                          "hart executes CVM code at %#Lx without owning the \
                           vcpu (owner %s)"
                          pc
                          (match owner with
                          | Some h -> string_of_int h
                          | None -> "none");
                    }
            end)
          m.Machine.harts)
      (cvms ());
    !found
  in
  { name = "cvm-ownership"; check }

let isolation ~regions (m : Machine.t) =
  let check () =
    let found = ref None in
    List.iter
      (fun (base, size) ->
        Array.iter
          (fun hart ->
            if !found = None then begin
              let pc = hart.Hart.pc in
              let inside =
                Int64.unsigned_compare pc base >= 0
                && Int64.unsigned_compare pc (Int64.add base size) < 0
              in
              if
                (not inside)
                && Pmp.check_ranges
                     (Csr_file.pmp_ranges hart.Hart.csr)
                     ~priv:Priv.S Pmp.Read ~addr:base ~size:8
              then
                found :=
                  Some
                    {
                      oracle = "isolation";
                      hart = hart.Hart.id;
                      detail =
                        Printf.sprintf
                          "protected region %#Lx readable from outside (pc \
                           %#Lx)"
                          base pc;
                    }
            end)
          m.Machine.harts)
      (regions ());
    !found
  in
  { name = "isolation"; check }
