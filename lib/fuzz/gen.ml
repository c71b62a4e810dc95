module Prng = Mir_util.Prng
module Instr = Mir_rv.Instr
module Csr_addr = Mir_rv.Csr_addr

(* The privileged-instruction grammar. Weights favour CSR traffic —
   that is where the WARL/PMP/delegation state lives — with a steady
   trickle of xRET/WFI/trap instructions and interrupt-line changes so
   that the accumulated state is actually exercised. *)

let gpr_pool = [| 0; 1; 5; 6; 7; 10; 11; 12; 17; 28; 31 |]

(* CSR addresses worth hammering: everything trap delivery,
   delegation, PMP and translation touch, a few read-only and counter
   CSRs (privilege/WARL corner cases), and unimplemented addresses so
   both sides must agree on illegal-instruction injection. *)
let csr_pool config =
  let vpmp = Miralis.Config.vpmp_count config in
  [
    Csr_addr.mstatus; Csr_addr.mstatus; Csr_addr.mstatus;
    Csr_addr.mie; Csr_addr.mip; Csr_addr.mideleg; Csr_addr.medeleg;
    Csr_addr.mtvec; Csr_addr.mepc; Csr_addr.mcause; Csr_addr.mtval;
    Csr_addr.mscratch; Csr_addr.misa; Csr_addr.mhartid;
    Csr_addr.mvendorid; Csr_addr.mcounteren; Csr_addr.mcountinhibit;
    Csr_addr.mcycle; Csr_addr.minstret; Csr_addr.menvcfg;
    Csr_addr.sstatus; Csr_addr.sie; Csr_addr.sip; Csr_addr.stvec;
    Csr_addr.sepc; Csr_addr.scause; Csr_addr.stval; Csr_addr.sscratch;
    Csr_addr.scounteren; Csr_addr.satp; Csr_addr.satp;
  ]
  @ List.init 8 (fun i -> Csr_addr.pmpcfg (2 * (i mod 2)))
  @ List.init (vpmp + 2) Csr_addr.pmpaddr (* +2: out-of-range probes *)
  |> Array.of_list

let csr_ops = [| Instr.Csrrw; Instr.Csrrs; Instr.Csrrc |]

let gen_csr config prng =
  let csr =
    if Prng.int_below prng 16 = 0 then Prng.int_below prng 4096
      (* random address: unimplemented/read-only/low-privilege space *)
    else Prng.choose prng (csr_pool config)
  in
  let op = Prng.choose prng csr_ops in
  let rd = Prng.choose prng gpr_pool in
  let src =
    if Prng.bool prng then Instr.Reg (Prng.choose prng gpr_pool)
    else Instr.Imm (Prng.int_below prng 32)
  in
  Instr.Csr { op; rd; src; csr }

let gen_op config prng =
  match Prng.int_below prng 100 with
  | n when n < 50 -> Input.Op_instr (gen_csr config prng)
  | n when n < 60 -> Input.Op_instr Instr.Mret
  | n when n < 67 -> Input.Op_instr Instr.Sret
  | n when n < 72 -> Input.Op_instr Instr.Wfi
  | n when n < 76 -> Input.Op_instr Instr.Ecall
  | n when n < 79 -> Input.Op_instr Instr.Ebreak
  | n when n < 82 ->
      Input.Op_instr
        (Instr.Sfence_vma (Prng.choose prng gpr_pool, Prng.choose prng gpr_pool))
  | n when n < 86 ->
      (* arm the global enable: interrupt-delivery divergences (e.g.
         priority order) need MIE=1, which every trap entry clears, so
         the random CSR traffic alone almost never leaves it on *)
      Input.Op_instr
        (Instr.Csr
           { op = Instr.Csrrs; rd = 0; src = Instr.Imm 8; csr = Csr_addr.mstatus })
  | n when n < 90 ->
      (* arm individual enables with a (random) register value *)
      Input.Op_instr
        (Instr.Csr
           {
             op = Instr.Csrrs;
             rd = 0;
             src = Instr.Reg (Prng.choose prng gpr_pool);
             csr = Csr_addr.mie;
           })
  | _ ->
      (* bias toward both lines on: simultaneous pending interrupts
         are where delivery-priority differences show *)
      Input.Op_lines
        {
          mtip = Prng.int_below prng 3 > 0;
          msip = Prng.int_below prng 3 > 0;
          meip = Prng.int_below prng 3 > 0;
        }

let fresh config prng ~len =
  let seed = Prng.next prng in
  { Input.seed; ops = List.init (max 1 len) (fun _ -> gen_op config prng) }

let max_len = 64

(* One mutation: the shared op-list havoc, where a reseed keeps the
   ops and draws a new initial state. *)
let mutate config prng ~other (input : Input.t) =
  match
    Oplist.mutate
      ~gen_op:(fun () -> gen_op config prng)
      ~max_len prng
      ~other:(fun () -> (other ()).Input.ops)
      input.Input.ops
  with
  | `Reseed -> { input with Input.seed = Prng.next prng }
  | `Ops ops -> { input with Input.ops }
