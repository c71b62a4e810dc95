(** The differential-campaign engine shared by every fuzz dimension.

    A dimension ({!DIM}) says what a test case is and how to generate,
    mutate, execute, shrink and serialize one. The engine owns the
    rest, once: the seed-then-mutate loop over a growable corpus, edge
    coverage and its curve, wall-time reporting, hash-named corpus and
    crash persistence, file and directory replay, and vector emission.

    Deterministic by construction: generation, scheduling and mutation
    all draw from PRNG streams derived from the root seed, so equal
    (seed, max_execs) campaigns produce identical corpora, coverage
    maps and verdicts. Wall time is measured but only reported. *)

module Prng = Mir_util.Prng

type verdict = {
  failure : (int * string) option;
      (** index of the failing op (or segment) and the named mismatch *)
  edges : int list;
      (** coverage edge ids hit, one per op run, repeats included *)
}

module type DIM = sig
  type case
  type ctx
  (** Per-campaign executor state (a reusable machine pair, the
      reference configuration, ...). *)

  val name : string
  (** The [fuzz --dim] name. *)

  val create : ?inject_bug:Miralis.Config.bug -> seed:int64 -> unit -> ctx
  (** Raises [Invalid_argument] if the dimension cannot plant
      [inject_bug]. *)

  val gen : ctx -> Prng.t -> case

  val mutate :
    ctx -> Prng.t -> other:(unit -> case) -> case -> case
  (** [other ()] draws a corpus member (for splicing) from the same
      stream. *)

  val exec : ctx -> case -> verdict
  val shrink : ctx -> case -> case
  val size : case -> int
  val pp : Format.formatter -> case -> unit
  val to_jsonl : case -> string
  val of_jsonl : string -> (case, string) result

  val builtin : (string * case) list
  (** Named regression vectors, written by [emit] as [<name>.jsonl]. *)
end

module type S = sig
  include DIM
  (** The dimension itself, re-exported. *)

  type divergence = {
    input : case;  (** the diverging input, as found *)
    shrunk : case;  (** minimized reproduction *)
    reason : string;  (** named first mismatch, of the shrunk input *)
    at_exec : int;  (** execution count when found *)
  }

  type result = {
    execs : int;
    seconds : float;  (** wall time *)
    execs_per_sec : float;
    coverage : Coverage.t;
    corpus : case list;  (** coverage-increasing inputs, discovery order *)
    curve : (int * int) list;  (** (execs, distinct edges) samples *)
    divergence : divergence option;
  }

  val run :
    ?inject_bug:Miralis.Config.bug ->
    ?corpus_dir:string ->
    seed:int64 ->
    max_execs:int ->
    unit ->
    result
  (** Seed the corpus with fresh generated cases, then mutate coverage-increasing inputs until [max_execs] executions
      or the first divergence (which is then shrunk). With
      [corpus_dir], writes [cov-<hash>.jsonl] per corpus input,
      [coverage.txt], and on a divergence [crash-<hash>.jsonl] plus its
      shrunk form [crash-<hash>.min.jsonl]; [<hash>] is FNV-1a of the
      encoded vector, so equal campaigns write identical files. *)

  val replay :
    ?inject_bug:Miralis.Config.bug ->
    seed:int64 ->
    (string * case) list ->
    (unit, string * int * string) Stdlib.result * Coverage.t
  (** Execute named vectors without mutation; [Error (name, index,
      reason)] names the first failing one. *)

  val load : string -> (string * (case, string) Stdlib.result) list
  (** A vector file, or every [*.jsonl] in a directory sorted by name,
      skipping [X.min.jsonl] when [X.jsonl] is present. *)

  val emit : dir:string -> string list
  (** Write [builtin] to [dir]; returns the paths. *)

  val pp_result : Format.formatter -> result -> unit
  (** The campaign summary: coverage curve, totals and any divergence. *)
end

(** FNV-1a; corpus file names key on the hash of the encoded vector, so
    they depend only on content. *)
let hash s =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001B3L)
    s;
  !h

(** [no_bug dim b] raises [Invalid_argument] unless [b] is [None]: for
    dimensions that cannot plant an emulator bug. *)
let no_bug dim = function
  | None -> ()
  | Some _ -> invalid_arg (dim ^ ": --inject-bug applies to the core dimension only")

let ensure_dir dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755
  else if not (Sys.is_directory dir) then
    invalid_arg (Printf.sprintf "corpus path %S is not a directory" dir)

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let read_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | s -> Ok s
  | exception Sys_error msg -> Error msg

(* Fresh generated cases before mutation starts. *)
let seed_count = 16

module Make (D : DIM) : S with type case = D.case and type ctx = D.ctx =
struct
  include D

  type divergence = {
    input : case;
    shrunk : case;
    reason : string;
    at_exec : int;
  }

  type result = {
    execs : int;
    seconds : float;
    execs_per_sec : float;
    coverage : Coverage.t;
    corpus : case list;
    curve : (int * int) list;
    divergence : divergence option;
  }

  let save_as dir name case =
    let path = Filename.concat dir name in
    write_file path (D.to_jsonl case);
    path

  let hash_name prefix case =
    Printf.sprintf "%s-%016Lx" prefix (hash (D.to_jsonl case))

  let persist dir r =
    ensure_dir dir;
    List.iter
      (fun c -> ignore (save_as dir (hash_name "cov" c ^ ".jsonl") c))
      r.corpus;
    write_file (Filename.concat dir "coverage.txt") (Coverage.to_string r.coverage);
    Option.iter
      (fun d ->
        let base = hash_name "crash" d.input in
        ignore (save_as dir (base ^ ".jsonl") d.input);
        ignore (save_as dir (base ^ ".min.jsonl") d.shrunk))
      r.divergence

  let record coverage v =
    List.fold_left (fun acc e -> Coverage.add coverage e || acc) false v.edges

  let run ?inject_bug ?corpus_dir ~seed ~max_execs () =
    let t0 = Unix.gettimeofday () in
    let ctx = D.create ?inject_bug ~seed () in
    let gen_prng = Miralis.Config.derive seed "fuzz:gen" in
    let sched = Miralis.Config.derive seed "fuzz:sched" in
    let coverage = Coverage.create () in
    (* growable corpus: amortized O(1) push, uniform random access *)
    let items = ref [||] and len = ref 0 in
    let push c =
      if !len = Array.length !items then begin
        let grown = Array.make (max 16 (2 * !len)) c in
        Array.blit !items 0 grown 0 !len;
        items := grown
      end;
      !items.(!len) <- c;
      incr len
    in
    let other () = !items.(Prng.int_below sched !len) in
    let execs = ref 0 and curve = ref [] and divergence = ref None in
    let stride = max 1 (max_execs / 20) in
    let fresh = ref seed_count in
    (* Seed phase: fresh generated cases; then mutate a parent drawn
       with a bias toward recent discoveries (max of two draws). *)
    let next_candidate () =
      if !fresh > 0 || !len = 0 then begin
        decr fresh;
        D.gen ctx gen_prng
      end
      else
        let i = Prng.int_below sched !len and j = Prng.int_below sched !len in
        D.mutate ctx sched ~other !items.(max i j)
    in
    while !execs < max_execs && Option.is_none !divergence do
      let cand = next_candidate () in
      let v = D.exec ctx cand in
      incr execs;
      if record coverage v then push cand;
      Option.iter
        (fun (_, reason) ->
          let shrunk = D.shrink ctx cand in
          let reason =
            Option.fold ~none:reason ~some:snd (D.exec ctx shrunk).failure
          in
          divergence := Some { input = cand; shrunk; reason; at_exec = !execs })
        v.failure;
      if !execs mod stride = 0 || !execs = max_execs then
        curve := (!execs, Coverage.edges coverage) :: !curve
    done;
    if !curve = [] || fst (List.hd !curve) <> !execs then
      curve := (!execs, Coverage.edges coverage) :: !curve;
    let seconds = Unix.gettimeofday () -. t0 in
    let r =
      {
        execs = !execs;
        seconds;
        execs_per_sec =
          (if seconds > 0. then float_of_int !execs /. seconds else 0.);
        coverage;
        corpus = Array.to_list (Array.sub !items 0 !len);
        curve = List.rev !curve;
        divergence = !divergence;
      }
    in
    Option.iter (fun dir -> persist dir r) corpus_dir;
    r

  let replay ?inject_bug ~seed cases =
    let ctx = D.create ?inject_bug ~seed () in
    let coverage = Coverage.create () in
    let rec go = function
      | [] -> (Ok (), coverage)
      | (name, case) :: rest -> (
          let v = D.exec ctx case in
          ignore (record coverage v);
          match v.failure with
          | Some (i, msg) -> (Error (name, i, msg), coverage)
          | None -> go rest)
    in
    go cases

  let load path =
    let read p = Result.bind (read_file p) D.of_jsonl in
    if Sys.file_exists path && Sys.is_directory path then
      let files =
        Sys.readdir path |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".jsonl")
      in
      (* a shrunk crash duplicates the full crash it sits next to *)
      let dup f =
        Filename.check_suffix f ".min.jsonl"
        && List.mem (Filename.chop_suffix f ".min.jsonl" ^ ".jsonl") files
      in
      List.filter (fun f -> not (dup f)) files
      |> List.sort String.compare
      |> List.map (fun f -> (f, read (Filename.concat path f)))
    else [ (Filename.basename path, read path) ]

  let emit ~dir =
    ensure_dir dir;
    List.map (fun (name, case) -> save_as dir (name ^ ".jsonl") case) D.builtin

  let pp_result fmt r =
    List.iter
      (fun (execs, edges) ->
        Format.fprintf fmt "  after %6d execs: %4d edges@\n" execs edges)
      r.curve;
    Format.fprintf fmt
      "%s: %d execs in %.2fs (%.0f/s), %d coverage edges, %d corpus inputs@\n"
      D.name r.execs r.seconds r.execs_per_sec (Coverage.edges r.coverage)
      (List.length r.corpus);
    match r.divergence with
    | None -> Format.fprintf fmt "no divergence found@\n"
    | Some d ->
        Format.fprintf fmt
          "DIVERGENCE after %d execs:@\n  %s@\nfailing input: %a@\n\
           shrunk to %d ops: %a@\n"
          d.at_exec d.reason D.pp d.input (D.size d.shrunk) D.pp d.shrunk
end
