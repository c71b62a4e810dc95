(* The paging dimension.

   The core dimension checks the VFM emulator against the reference
   machine; this one checks the machine against itself — the
   software-TLB configuration against the raw-walker configuration —
   over generated streams of page-table edits, satp switches, fences,
   SUM/MXR/MPRV flips, PMP reconfigurations, and S/U/M memory probes
   (see [Mir_verif.Pgdiff] for the oracle and the fence discipline).
   Edges are (op class x outcome class), so a campaign shows it
   actually exercised faults, PMP denials and both address spaces. *)

module Prng = Mir_util.Prng
module Pgdiff = Mir_verif.Pgdiff
module Priv = Mir_rv.Priv
module Cause = Mir_rv.Cause

(* ------------------------------------------------------------------ *)
(* Op-stream generation                                                *)
(* ------------------------------------------------------------------ *)

(* PTE low-bit subsets worth generating: valid RWX/U/A/D combinations,
   plus a few architecturally-invalid ones (W-without-R, non-leaf bits)
   that must fault identically on both sides. *)
let perm_patterns =
  [|
    0xCF (* V R W X A D *);
    0xDF (* + U *);
    0x4B (* V R X A: no D, no W *);
    0x5B (* V R X U A *);
    0x43 (* V R A: read-only *);
    0x53 (* V R U A *);
    0x47 (* V R W A: D clear — first store promotes *);
    0x57 (* V R W U A *);
    0x03 (* V R: A clear — walker sets it *);
    0x07 (* V R W: A/D clear *);
    0x05 (* V W: reserved (W without R) — must fault *);
    0x01 (* V only: non-leaf pointer shape in an L0 slot — fault *);
    0xC9 (* V X A D: execute-only (MXR-sensitive) *);
    0xD9 (* V X U A D: user execute-only *);
  |]

let gen_vpn prng =
  (* mostly the mapped low windows, sometimes unmapped L1 territory *)
  if Prng.int_below prng 8 = 0 then 1024 + Prng.int_below prng 1024
  else Prng.int_below prng 1024

let gen_vaddr prng =
  match Prng.int_below prng 10 with
  | 0 | 1 ->
      (* identity gigapage window: superpage translations; offsets can
         reach the page tables themselves or fall off the end of RAM *)
      Int64.add 0x80000000L
        (Int64.of_int (Prng.int_below prng ((512 * 1024) + 0x2000)))
  | 2 ->
      (* non-canonical Sv39: must page-fault on both sides *)
      Int64.logor 0x4000000000000L
        (Int64.of_int (Prng.int_below prng 0x1000))
  | _ ->
      (* the low 4 MiB paged window, plus unmapped territory above *)
      Int64.of_int
        ((gen_vpn prng lsl 12) lor Prng.int_below prng 0x1000)

let sizes = [| 1; 2; 4; 8 |]

let gen_access prng =
  let kind =
    match Prng.int_below prng 5 with
    | 0 | 1 -> Pgdiff.Aload
    | 2 | 3 -> Pgdiff.Astore
    | _ -> Pgdiff.Afetch
  in
  let size = Prng.choose prng sizes in
  let vaddr = gen_vaddr prng in
  (* align most accesses (misaligned ones trap before translating) *)
  let vaddr =
    if Prng.int_below prng 8 = 0 then vaddr
    else Int64.logand vaddr (Int64.lognot (Int64.of_int (size - 1)))
  in
  Pgdiff.Access { kind; vaddr; size; value = Prng.next prng }

let gen_op prng : Pgdiff.op =
  match Prng.int_below prng 100 with
  | n when n < 45 -> gen_access prng
  | n when n < 62 ->
      Pgdiff.Map
        {
          root = Prng.int_below prng 2;
          vpn = Prng.int_below prng 1024;
          page = Prng.int_below prng Pgdiff.pool_pages;
          perms = Prng.choose prng perm_patterns;
          fence_all = Prng.int_below prng 3 = 0;
        }
  | n when n < 68 ->
      Pgdiff.Unmap
        {
          root = Prng.int_below prng 2;
          vpn = Prng.int_below prng 1024;
          fence_all = Prng.int_below prng 3 = 0;
        }
  | n when n < 76 -> Pgdiff.Satp_switch (Prng.int_below prng 3)
  | n when n < 80 -> Pgdiff.Sum_toggle
  | n when n < 83 -> Pgdiff.Mxr_toggle
  | n when n < 86 -> Pgdiff.Mprv_toggle
  | n when n < 92 ->
      Pgdiff.Priv_set
        (match Prng.int_below prng 5 with
        | 0 -> Priv.U
        | 1 -> Priv.M
        | _ -> Priv.S)
  | n when n < 98 ->
      let npages = 1 lsl Prng.int_below prng 4 in
      Pgdiff.Pmp_set
        {
          slot = Prng.int_below prng 3;
          base_page =
            (let b = Prng.int_below prng (Pgdiff.pool_pages - npages + 1) in
             b land lnot (npages - 1));
          npages;
          perms = 1 + Prng.int_below prng 7 (* at least one of R/W/X *);
        }
  | _ ->
      Pgdiff.Sfence
        {
          vaddr =
            (if Prng.bool prng then None
             else Some (Int64.of_int (gen_vpn prng lsl 12)));
        }

let gen_ops prng =
  let n = 8 + Prng.int_below prng 33 in
  List.init n (fun _ -> gen_op prng)

(* ------------------------------------------------------------------ *)
(* Coverage: op class x outcome class                                  *)
(* ------------------------------------------------------------------ *)

let op_class : Pgdiff.op -> int = function
  | Pgdiff.Access { kind = Pgdiff.Aload; _ } -> 0
  | Pgdiff.Access { kind = Pgdiff.Astore; _ } -> 1
  | Pgdiff.Access { kind = Pgdiff.Afetch; _ } -> 2
  | Pgdiff.Map _ -> 3
  | Pgdiff.Unmap _ -> 4
  | Pgdiff.Sfence _ -> 5
  | Pgdiff.Satp_switch _ -> 6
  | Pgdiff.Sum_toggle -> 7
  | Pgdiff.Mxr_toggle -> 8
  | Pgdiff.Mprv_toggle -> 9
  | Pgdiff.Priv_set _ -> 10
  | Pgdiff.Pmp_set _ -> 11

let outcome_class : Pgdiff.outcome -> int = function
  | Pgdiff.Nothing -> 0
  | Pgdiff.Stored -> 1
  | Pgdiff.Value _ -> 2
  | Pgdiff.Fault e -> 3 + Cause.exc_code e

let edge op out = (op_class op * 32) + outcome_class out

(* ------------------------------------------------------------------ *)
(* Vectors: one name-plus-int64-args line per op, all on hart 0        *)
(* ------------------------------------------------------------------ *)

let to_line op =
  let op, args = Pgdiff.to_args op in
  { Oplist.op; h = 0; args }

let of_line { Oplist.op; h; args } =
  if h = 0 then Pgdiff.of_args op args else None

(* ------------------------------------------------------------------ *)
(* The dimension                                                       *)
(* ------------------------------------------------------------------ *)

let exec pair ops =
  let edges = ref [] in
  let on_outcome _ op out = edges := edge op out :: !edges in
  let failure =
    Option.map
      (fun (d : Pgdiff.divergence) ->
        ( d.Pgdiff.op_index,
          Printf.sprintf "%s: tlb %s, walker %s" d.Pgdiff.op d.Pgdiff.tlb_outcome
            d.Pgdiff.walker_outcome ))
      (Pgdiff.run_ops pair ~on_outcome ops)
  in
  { Campaign.failure; edges = !edges }

include Campaign.Make (struct
  type case = Pgdiff.op list
  type ctx = Pgdiff.pair

  let name = "paging"

  let create ?inject_bug ~seed:_ () =
    Campaign.no_bug name inject_bug;
    Pgdiff.create_pair ~tlb_entries:16 ()

  let gen _ = gen_ops

  let mutate _ prng ~other ops =
    let gen_op () = gen_op prng in
    match Oplist.mutate ~gen_op ~max_len:64 prng ~other ops with
    | `Reseed -> gen_ops prng
    | `Ops ops -> ops

  let exec = exec
  let shrink pair = Shrink.ops (exec pair)
  let size = List.length
  let pp fmt ops = List.iter (Format.fprintf fmt "@\n  %a" Pgdiff.pp_op) ops
  let to_jsonl = Oplist.to_jsonl ~family:name to_line
  let of_jsonl = Oplist.of_jsonl ~family:name of_line
  let builtin = []
end)
