module Instr = Mir_rv.Instr
module Encode = Mir_rv.Encode
module Decode = Mir_rv.Decode

(* A fuzz input is a self-contained, replayable test vector: a state
   seed (the initial architectural sample is regenerated from it, so
   vectors stay one-line small) plus a stream of operations. *)

type op =
  | Op_instr of Instr.t  (** one privileged instruction *)
  | Op_lines of { mtip : bool; msip : bool; meip : bool }
      (** drive the timer/software/external interrupt lines *)

type t = { seed : int64; ops : op list }

let length t = List.length t.ops

let pp_op fmt = function
  | Op_instr i -> Format.fprintf fmt "%s" (Instr.to_string i)
  | Op_lines { mtip; msip; meip } ->
      Format.fprintf fmt "lines mtip=%b msip=%b meip=%b" mtip msip meip

let pp fmt t =
  Format.fprintf fmt "seed=0x%Lx (%d ops)" t.seed (length t);
  List.iter (fun op -> Format.fprintf fmt "@\n  %a" pp_op op) t.ops

(* ------------------------------------------------------------------ *)
(* JSONL serialization                                                 *)
(* ------------------------------------------------------------------ *)

(* One flat JSON object per line: a header carrying the seed, then one
   line per operation. Instructions travel as their 32-bit encoding,
   so the decoder is the single source of truth for what a vector
   means. The parser below is the exact inverse, not general JSON. *)

let to_jsonl t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "{\"fuzz\":1,\"seed\":\"0x%Lx\"}\n" t.seed);
  List.iter
    (fun op ->
      (match op with
      | Op_instr i ->
          Buffer.add_string buf
            (Printf.sprintf "{\"op\":\"i\",\"bits\":\"0x%x\"}"
               (Encode.encode i))
      | Op_lines { mtip; msip; meip } ->
          Buffer.add_string buf
            (Printf.sprintf "{\"op\":\"l\",\"mtip\":%b,\"msip\":%b,\"meip\":%b}"
               mtip msip meip));
      Buffer.add_char buf '\n')
    t.ops;
  Buffer.contents buf

let ( let* ) = Result.bind

let field fields key =
  Option.to_result ~none:(Printf.sprintf "missing field %S" key)
    (List.assoc_opt key fields)

let parsed what conv fields key =
  let* v = field fields key in
  Option.to_result ~none:(Printf.sprintf "field %S: bad %s %S" key what v) (conv v)

let op_of_line line =
  let* fields = Oplist.fields line in
  let bool = parsed "bool" bool_of_string_opt fields in
  match field fields "op" with
  | Ok "i" ->
      let* bits = parsed "int64" Int64.of_string_opt fields "bits" in
      let bits = Int64.to_int (Int64.logand bits 0xFFFFFFFFL) in
      Option.to_result ~none:(Printf.sprintf "bits 0x%x do not decode" bits)
        (Option.map (fun i -> Op_instr i) (Decode.decode bits))
  | Ok "l" ->
      let* mtip = bool "mtip" in
      let* msip = bool "msip" in
      let* meip = bool "meip" in
      Ok (Op_lines { mtip; msip; meip })
  | Ok other -> Error (Printf.sprintf "unknown op kind %S" other)
  | Error _ as e -> e

let of_jsonl s =
  let lines =
    String.split_on_char '\n' s |> List.filter (fun l -> String.trim l <> "")
  in
  match lines with
  | [] -> Error "empty input"
  | header :: rest ->
      let* fields = Oplist.fields header in
      let* _ = field fields "fuzz" in
      let* seed = parsed "int64" Int64.of_string_opt fields "seed" in
      let rec go acc = function
        | [] -> Ok { seed; ops = List.rev acc }
        | line :: rest ->
            let* op = op_of_line line in
            go (op :: acc) rest
      in
      go [] rest

(* Equality, corpus file names and the determinism tests all key on the
   encoded vector. *)
let equal a b = to_jsonl a = to_jsonl b
let hash t = Campaign.hash (to_jsonl t)
