module Prng = Mir_util.Prng

(* ------------------------------------------------------------------ *)
(* Flat JSONL lines                                                    *)
(* ------------------------------------------------------------------ *)

(* Every vector format here is one flat object per line whose keys and
   values never contain ',' or ':', so splitting on those is an exact
   parser for what the encoders write (not general JSON). *)
let fields line =
  let line = String.trim line in
  let n = String.length line in
  let unquote s =
    let s = String.trim s in
    let k = String.length s in
    if k >= 2 && s.[0] = '"' && s.[k - 1] = '"' then String.sub s 1 (k - 2)
    else s
  in
  if n < 2 || line.[0] <> '{' || line.[n - 1] <> '}' then
    Error (Printf.sprintf "not a flat JSON object: %S" line)
  else
    List.fold_right
      (fun kv acc ->
        match (acc, String.index_opt kv ':') with
        | (Error _ as e), _ -> e
        | Ok _, None -> Error (Printf.sprintf "bad field %S in %S" kv line)
        | Ok l, Some i ->
            Ok
              (( unquote (String.sub kv 0 i),
                 unquote (String.sub kv (i + 1) (String.length kv - i - 1)) )
              :: l))
      (String.split_on_char ',' (String.sub line 1 (n - 2)))
      (Ok [])

(* ------------------------------------------------------------------ *)
(* Name-plus-int64-args op lines                                       *)
(* ------------------------------------------------------------------ *)

type line = { op : string; h : int; args : int64 list }

let to_jsonl ~family to_line ops =
  let buf = Buffer.create 256 in
  Printf.bprintf buf "{\"%s\":1,\"v\":1}\n" family;
  List.iter
    (fun x ->
      let { op; h; args } = to_line x in
      Printf.bprintf buf "{\"op\":\"%s\",\"h\":%d" op h;
      List.iteri (fun i a -> Printf.bprintf buf ",\"a%d\":\"0x%Lx\"" i a) args;
      Buffer.add_string buf "}\n")
    ops;
  Buffer.contents buf

let line_of_fields = function
  | ("op", op) :: ("h", h) :: rest -> (
      let args =
        List.mapi
          (fun i (k, v) ->
            if k = Printf.sprintf "a%d" i then Int64.of_string_opt v else None)
          rest
      in
      match (int_of_string_opt h, List.for_all Option.is_some args) with
      | Some h, true -> Some { op; h; args = List.map Option.get args }
      | _ -> None)
  | _ -> None

let of_jsonl ~family of_line s =
  let lines = String.split_on_char '\n' s in
  match List.filter (fun l -> String.trim l <> "") lines with
  | [] -> Error (Printf.sprintf "empty %s vector" family)
  | header :: rest -> (
      match fields header with
      | Ok ((k, "1") :: _) when k = family ->
          let parse l =
            Option.bind
              (Option.bind (Result.to_option (fields l)) line_of_fields)
              of_line
          in
          let rec go acc = function
            | [] -> Ok (List.rev acc)
            | l :: rest -> (
                match parse l with
                | Some x -> go (x :: acc) rest
                | None ->
                    Error (Printf.sprintf "malformed %s vector line %S" family l))
          in
          go [] rest
      | _ -> Error (Printf.sprintf "not a %s vector header: %S" family header))

(* ------------------------------------------------------------------ *)
(* Op-list mutation                                                    *)
(* ------------------------------------------------------------------ *)

let replace ops i op = List.mapi (fun j o -> if j = i then op else o) ops

let insert ops i op =
  let rec go j = function
    | [] -> [ op ]
    | x :: rest -> if j = i then op :: x :: rest else x :: go (j + 1) rest
  in
  go 0 ops

let remove ops i = List.filteri (fun j _ -> j <> i) ops
let take n ops = List.filteri (fun i _ -> i < n) ops
let drop n ops = List.filteri (fun i _ -> i >= n) ops

(* Grammar-level havoc plus splicing. All randomness flows from
   [prng] (and from [other], which the campaign draws from the same
   stream), so a campaign stays a pure function of its root seed. *)
let mutate ~gen_op ~max_len prng ~other ops =
  let n = List.length ops in
  let pick () = Prng.int_below prng (max 1 n) in
  match Prng.int_below prng 8 with
  | 6 -> `Reseed
  | k ->
      let mutated =
        match k with
        | 0 -> replace ops (pick ()) (gen_op ())
        | 1 when n < max_len ->
            insert ops (Prng.int_below prng (n + 1)) (gen_op ())
        | 2 when n > 1 -> remove ops (pick ())
        | 3 when n > 0 && n < max_len ->
            (* duplicate a slice: repetition finds counter/lock bugs *)
            let i = pick () in
            let len = 1 + Prng.int_below prng (max 1 (min 4 (n - i))) in
            take i ops @ take len (drop i ops) @ drop i ops
        | 4 when n > 1 -> (
            let i = pick () and j = pick () in
            match (List.nth_opt ops i, List.nth_opt ops j) with
            | Some oi, Some oj -> replace (replace ops i oj) j oi
            | _ -> ops)
        | 5 ->
            (* splice: our prefix, another interesting input's suffix *)
            let other = other () in
            let m = List.length other in
            let i = Prng.int_below prng (max 1 n)
            and j = Prng.int_below prng (max 1 m) in
            take max_len (take i ops @ drop j other)
        | _ when n > 1 -> take (1 + pick ()) ops
        | _ -> replace ops (pick ()) (gen_op ())
      in
      `Ops (if mutated = [] then [ gen_op () ] else mutated)
