module Diff = Mir_verif.Diff
module Instr = Mir_rv.Instr
module Prng = Mir_util.Prng

(* The core dimension: privileged-instruction streams through the VFM
   emulator against the reference machine (see [Exec]), generated by
   the [Gen] grammar, with [Vectors] as the built-in conformance
   suite. *)

(* Candidate simplifications of one op, most aggressive first. *)
let simpler_ops = function
  | Input.Op_instr (Instr.Csr { op; rd; src; csr }) ->
      (if rd <> 0 then [ Input.Op_instr (Instr.Csr { op; rd = 0; src; csr }) ]
       else [])
      @ (match src with
        | Instr.Imm 0 -> []
        | _ -> [ Input.Op_instr (Instr.Csr { op; rd; src = Instr.Imm 0; csr }) ])
  | Input.Op_instr (Instr.Sfence_vma (rs1, rs2)) when rs1 <> 0 || rs2 <> 0 ->
      [ Input.Op_instr (Instr.Sfence_vma (0, 0)) ]
  | Input.Op_lines { mtip; msip; meip } when mtip || msip || meip ->
      [ Input.Op_lines { mtip = false; msip = false; meip = false } ]
  | _ -> []

(* [Shrink.ops], then a per-op simplification pass; every kept
   candidate still diverges. *)
let shrink exec (input : Input.t) =
  let run ops = Exec.run exec { input with Input.ops } in
  let fails ops = ops <> [] && (run ops).Campaign.failure <> None in
  let rec simplify i ops =
    if i >= List.length ops then ops
    else
      let with_op op = List.mapi (fun j o -> if j = i then op else o) ops in
      let simpler = simpler_ops (List.nth ops i) in
      match List.find_opt (fun op -> fails (with_op op)) simpler with
      | Some op -> simplify (i + 1) (with_op op)
      | None -> simplify (i + 1) ops
  in
  { input with Input.ops = simplify 0 (Shrink.ops run input.Input.ops) }

include Campaign.Make (struct
  type case = Input.t
  type ctx = Diff.t

  let name = "core"
  let create ?inject_bug ~seed () = Diff.create ?inject_bug ~seed ()
  let gen exec prng =
    Gen.fresh (Diff.config exec) prng ~len:(4 + Prng.int_below prng 37)
  let mutate exec = Gen.mutate (Diff.config exec)
  let exec = Exec.run
  let shrink = shrink
  let size = Input.length
  let pp = Input.pp
  let to_jsonl = Input.to_jsonl
  let of_jsonl = Input.of_jsonl
  let builtin = Vectors.builtin
end)
