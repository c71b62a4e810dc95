(* Tests for the coverage-guided differential fuzzer: determinism,
   bug-catching + shrinking, serialization round-trips, the checked-in
   conformance vector suite, and the campaign engine itself (over a
   fake dimension and over all four real ones). *)

module Fuzz = Mir_fuzz
module Config = Miralis.Config
module Prng = Mir_util.Prng

let seed = Config.default_seed

(* cwd is the test directory under `dune runtest`, the project root
   under a bare `dune exec` *)
let vectors_dir dim =
  Filename.concat
    (if Sys.file_exists "vectors" then "vectors" else "test/vectors")
    dim

(* Same seed, same budget -> byte-identical campaign: corpus content
   hashes, coverage map and coverage curve. *)
let test_deterministic () =
  let run () = Fuzz.Fuzzer.run ~seed:5L ~max_execs:1500 () in
  let a = run () and b = run () in
  Alcotest.(check int)
    "same corpus size"
    (List.length a.Fuzz.Fuzzer.corpus)
    (List.length b.Fuzz.Fuzzer.corpus);
  List.iter2
    (fun x y ->
      Helpers.check_i64 "same corpus hash" (Fuzz.Input.hash x)
        (Fuzz.Input.hash y))
    a.Fuzz.Fuzzer.corpus b.Fuzz.Fuzzer.corpus;
  Helpers.check_bool "same coverage counts" true
    (Fuzz.Coverage.equal a.Fuzz.Fuzzer.coverage b.Fuzz.Fuzzer.coverage);
  Alcotest.(check (list (pair int int)))
    "same coverage curve" a.Fuzz.Fuzzer.curve b.Fuzz.Fuzzer.curve;
  Helpers.check_bool "found some coverage" true
    (Fuzz.Coverage.edges a.Fuzz.Fuzzer.coverage > 0)

(* Every §6.5 bug class must be caught, and the shrunk reproduction
   must be a genuine failing input no bigger than the original and
   within the advertised bound. *)
let test_catches_and_shrinks_injected_bugs () =
  List.iter
    (fun (name, bug) ->
      match
        (Fuzz.Fuzzer.run ~inject_bug:bug ~seed:42L ~max_execs:30_000 ())
          .Fuzz.Fuzzer.divergence
      with
      | None -> Alcotest.failf "%s: not caught in 30k execs" name
      | Some d ->
          let len_found = Fuzz.Input.length d.Fuzz.Fuzzer.input
          and len_min = Fuzz.Input.length d.Fuzz.Fuzzer.shrunk in
          if len_min > len_found then
            Alcotest.failf "%s: shrunk %d ops > original %d ops" name len_min
              len_found;
          if len_min > 8 then
            Alcotest.failf "%s: shrunk input still has %d ops" name len_min;
          (* the minimized input must still fail on a fresh executor *)
          let exec = Fuzz.Exec.create ~inject_bug:bug ~seed:42L () in
          Helpers.check_bool
            (name ^ ": shrunk input still diverges")
            true
            (Fuzz.Exec.diverges exec d.Fuzz.Fuzzer.shrunk);
          (* ... and must pass without the bug (it is the emulator
             that is broken, not the oracle) *)
          let clean = Fuzz.Exec.create ~seed:42L () in
          Helpers.check_bool
            (name ^ ": shrunk input agrees without the bug")
            true
            (not (Fuzz.Exec.diverges clean d.Fuzz.Fuzzer.shrunk)))
    [
      ("mpp", Config.Mpp_not_legalized);
      ("pmp-wr", Config.Pmp_w_without_r);
      ("vpmp-overrun", Config.Vpmp_overrun);
      ("irq-priority", Config.Interrupt_priority_swapped);
      ("mret-mpie", Config.Mret_skips_mpie);
    ]

(* A clean emulator survives a substantial campaign. *)
let test_no_false_positives () =
  let r = Fuzz.Fuzzer.run ~seed:7L ~max_execs:8_000 () in
  match r.Fuzz.Fuzzer.divergence with
  | None -> ()
  | Some d ->
      Alcotest.failf "clean campaign diverged: %s" d.Fuzz.Fuzzer.reason

let test_coverage_roundtrip () =
  let c = Fuzz.Coverage.create () in
  List.iter
    (fun i -> ignore (Fuzz.Coverage.add c i))
    [ 0; 0; 0; 5; 17; 17; 4093; Fuzz.Coverage.size - 1 ];
  match Fuzz.Coverage.of_string (Fuzz.Coverage.to_string c) with
  | Error msg -> Alcotest.failf "coverage parse: %s" msg
  | Ok c' ->
      Helpers.check_bool "coverage round-trips" true (Fuzz.Coverage.equal c c');
      Alcotest.(check int) "edges" (Fuzz.Coverage.edges c)
        (Fuzz.Coverage.edges c');
      Alcotest.(check int) "total" (Fuzz.Coverage.total c)
        (Fuzz.Coverage.total c')

let test_input_jsonl_roundtrip () =
  let check_input name input =
    match Fuzz.Input.of_jsonl (Fuzz.Input.to_jsonl input) with
    | Error msg -> Alcotest.failf "%s: parse: %s" name msg
    | Ok input' ->
        Helpers.check_bool (name ^ " round-trips") true
          (Fuzz.Input.equal input input');
        Helpers.check_i64 (name ^ " hash") (Fuzz.Input.hash input)
          (Fuzz.Input.hash input')
  in
  List.iter (fun (name, input) -> check_input name input) Fuzz.Vectors.builtin;
  (* and a pile of generated ones *)
  let config = Mir_verif.Diff.config (Mir_verif.Diff.create ~seed ()) in
  let prng = Config.derive seed "test:jsonl" in
  for i = 1 to 50 do
    check_input
      (Printf.sprintf "fresh-%d" i)
      (Fuzz.Gen.fresh config prng ~len:(1 + (i mod Fuzz.Gen.max_len)))
  done

(* The built-in conformance vectors agree on a clean emulator... *)
let test_builtin_vectors_agree () =
  match Fuzz.Fuzzer.replay ~seed Fuzz.Vectors.builtin with
  | Ok (), coverage ->
      Helpers.check_bool "vectors exercise many edges" true
        (Fuzz.Coverage.edges coverage > 10)
  | Error (name, idx, reason), _ ->
      Alcotest.failf "vector %s diverges at op %d: %s" name idx reason

(* ... and the irq-priority vector pins the interrupt-priority bug. *)
let test_irq_vector_detects_priority_bug () =
  match
    Fuzz.Fuzzer.replay ~seed
      ~inject_bug:Config.Interrupt_priority_swapped
      Fuzz.Vectors.builtin
  with
  | Ok (), _ -> Alcotest.fail "irq-priority bug not detected by vectors"
  | Error (name, _, _), _ ->
      Alcotest.(check string) "caught by the irq vector" "irq-priority" name

(* The checked-in test/vectors/core/ files replay green: they are the
   regression suite for the emulator, frozen on disk. *)
let test_checked_in_vectors_agree () =
  let vectors = Fuzz.Fuzzer.load (vectors_dir "core") in
  Helpers.check_bool "vectors directory is populated" true
    (List.length vectors >= 10);
  let inputs =
    List.map
      (fun (name, r) ->
        match r with
        | Ok input -> (name, input)
        | Error msg -> Alcotest.failf "%s: %s" name msg)
      vectors
  in
  match Fuzz.Fuzzer.replay ~seed inputs with
  | Ok (), _ -> ()
  | Error (name, idx, reason), _ ->
      Alcotest.failf "checked-in vector %s diverges at op %d: %s" name idx
        reason

(* The ACE policy vectors under test/vectors/ace/: each replays a COVH
   op stream against the pure model of the confidential-VM
   steal/return contract. *)
let test_ace_vectors_agree () =
  let loaded = Fuzz.Acefuzz.load (vectors_dir "ace") in
  Helpers.check_bool "ace vectors are populated" true (List.length loaded >= 4);
  List.iter
    (fun (f, r) ->
      match r with
      | Error e -> Alcotest.failf "%s: %s" f e
      | Ok ops -> (
          match Fuzz.Acefuzz.replay ~seed [ (f, ops) ] with
          | Ok (), _ -> ()
          | Error (_, idx, reason), _ ->
              Alcotest.failf "%s diverges at op %d: %s" f idx reason))
    loaded

let test_ace_jsonl_roundtrip () =
  List.iter
    (fun (name, ops) ->
      match Fuzz.Acefuzz.of_jsonl (Fuzz.Acefuzz.to_jsonl ops) with
      | Error e -> Alcotest.failf "%s: %s" name e
      | Ok ops' ->
          Helpers.check_bool (name ^ " round-trips") true (ops = ops'))
    Fuzz.Acefuzz.builtin

(* A short generated campaign against the clean policy stays
   divergence-free and exercises a healthy slice of the op/outcome
   space. *)
let test_ace_campaign_clean () =
  let r = Fuzz.Acefuzz.run ~seed ~max_execs:40 () in
  (match r.Fuzz.Acefuzz.divergence with
  | None -> ()
  | Some d ->
      Alcotest.failf "ace campaign diverged at exec %d: %s"
        d.Fuzz.Acefuzz.at_exec d.Fuzz.Acefuzz.reason);
  Helpers.check_bool "ace campaign covers many edges" true
    (Fuzz.Coverage.edges r.Fuzz.Acefuzz.coverage > 8)

(* Corpus persistence: content-hash names, loadable, deduplicated. *)
let test_corpus_dir_roundtrip () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "mir_fuzz_test" in
  Array.iter
    (fun f -> Sys.remove (Filename.concat dir f))
    (if Sys.file_exists dir then Sys.readdir dir else [||]);
  let r = Fuzz.Fuzzer.run ~seed:11L ~max_execs:500 ~corpus_dir:dir () in
  let loaded = Fuzz.Fuzzer.load dir in
  (* mutation can rediscover an input with identical content (count
     bucketing makes it "interesting" again): files dedup by hash *)
  let distinct =
    List.sort_uniq Int64.compare (List.map Fuzz.Input.hash r.Fuzz.Fuzzer.corpus)
  in
  Alcotest.(check int)
    "one file per distinct corpus input" (List.length distinct)
    (List.length loaded);
  List.iter
    (fun (name, res) ->
      match res with
      | Error msg -> Alcotest.failf "%s: %s" name msg
      | Ok input ->
          let expect = Printf.sprintf "cov-%016Lx.jsonl" (Fuzz.Input.hash input) in
          Alcotest.(check string) "hash-named" expect name)
    loaded

(* ------------------------------------------------------------------ *)
(* The campaign engine                                                 *)
(* ------------------------------------------------------------------ *)

(* A fake dimension with a planted divergence: a case is a list of
   small ints, and op 7 is the culprit. Fresh cases never contain it
   (gen draws 0..6, mutation 0..7), so only the mutation phase can
   find it. *)
module Fake = Fuzz.Campaign.Make (struct
  type case = int list
  type ctx = unit

  let name = "fake"
  let create ?inject_bug ~seed:_ () = Fuzz.Campaign.no_bug name inject_bug
  let gen () prng = List.init (3 + Prng.int_below prng 6) (fun _ -> Prng.int_below prng 7)

  let mutate () prng ~other ops =
    match
      Fuzz.Oplist.mutate ~gen_op:(fun () -> Prng.int_below prng 8) ~max_len:16 prng ~other ops
    with
    | `Reseed -> gen () prng
    | `Ops ops -> ops

  let exec () ops =
    let rec go i edges = function
      | [] -> { Fuzz.Campaign.failure = None; edges }
      | 7 :: _ -> { Fuzz.Campaign.failure = Some (i, "culprit op"); edges }
      | op :: rest -> go (i + 1) (((i mod 4) * 8) + op :: edges) rest
    in
    go 0 [] ops

  let shrink () = Fuzz.Shrink.ops (exec ())

  let size = List.length
  let pp fmt = List.iter (Format.fprintf fmt " %d")
  let to_line x = { Fuzz.Oplist.op = "x"; h = 0; args = [ Int64.of_int x ] }

  let of_line = function
    | { Fuzz.Oplist.op = "x"; h = 0; args = [ x ] } -> Some (Int64.to_int x)
    | _ -> None

  let to_jsonl = Fuzz.Oplist.to_jsonl ~family:name to_line
  let of_jsonl = Fuzz.Oplist.of_jsonl ~family:name of_line
  let builtin = [ ("clean", [ 1; 2; 3 ]) ]
end)

let fresh_dir name =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) name in
  Array.iter
    (fun f -> Sys.remove (Filename.concat dir f))
    (if Sys.file_exists dir then Sys.readdir dir else [||]);
  dir

let hash_name prefix case =
  Printf.sprintf "%s-%016Lx" prefix (Fuzz.Campaign.hash (Fake.to_jsonl case))

(* The engine finds the planted divergence, shrinks it to the culprit
   alone, persists crash + shrunk crash + hash-named corpus, and the
   persisted vectors replay to the same verdict. *)
let test_engine_planted_divergence () =
  let dir = fresh_dir "mir_campaign_test" in
  let r = Fake.run ~corpus_dir:dir ~seed:3L ~max_execs:5_000 () in
  let d =
    match r.Fake.divergence with
    | Some d -> d
    | None -> Alcotest.fail "planted divergence not found"
  in
  Helpers.check_bool "found after the seed phase" true (d.Fake.at_exec > 16);
  Helpers.check_bool "found input carries the culprit" true
    (List.mem 7 d.Fake.input && List.length d.Fake.input > 1);
  Alcotest.(check (list int)) "shrunk to the culprit" [ 7 ] d.Fake.shrunk;
  Alcotest.(check string) "reason" "culprit op" d.Fake.reason;
  let crash = hash_name "crash" d.Fake.input in
  let distinct = List.sort_uniq compare (List.map (hash_name "cov") r.Fake.corpus) in
  Alcotest.(check (list string))
    "crash, shrunk crash, coverage map, one file per distinct corpus input"
    (List.sort compare
       ([ crash ^ ".jsonl"; crash ^ ".min.jsonl"; "coverage.txt" ]
       @ List.map (fun n -> n ^ ".jsonl") distinct))
    (Sys.readdir dir |> Array.to_list |> List.sort compare);
  (* directory replay: the shrunk crash is de-duplicated against the
     full one, every file parses, and the first failure is the
     culprit *)
  let loaded = Fake.load dir in
  Helpers.check_bool "min de-duplicated" false
    (List.mem_assoc (crash ^ ".min.jsonl") loaded);
  let cases = List.map (fun (n, c) -> (n, Result.get_ok c)) loaded in
  (match Fake.replay ~seed:3L cases with
  | Error (_, _, reason), _ -> Alcotest.(check string) "dir verdict" d.Fake.reason reason
  | Ok (), _ -> Alcotest.fail "directory replay missed the crash");
  List.iter
    (fun (file, input, at) ->
      match Fake.load (Filename.concat dir file) with
      | [ (_, Ok c) ] -> (
          Alcotest.(check (list int)) (file ^ " round-trips") input c;
          match Fake.replay ~seed:3L [ (file, c) ] with
          | Error (_, i, reason), _ ->
              Alcotest.(check int) (file ^ " op") at i;
              Alcotest.(check string) (file ^ " verdict") d.Fake.reason reason
          | Ok (), _ -> Alcotest.failf "%s replays clean" file)
      | _ -> Alcotest.failf "%s does not load" file)
    [
      (crash ^ ".jsonl", d.Fake.input, Option.get (List.find_index (( = ) 7) d.Fake.input));
      (crash ^ ".min.jsonl", [ 7 ], 0);
    ]

(* Every dimension, through the one engine: its checked-in vectors
   replay clean and match its built-ins byte for byte, every built-in
   and corpus vector round-trips through its codec (which rejects a
   malformed op), and equal seeds give equal edges, verdict and
   corpus. *)
let test_dimension (module C : Fuzz.Campaign.S) ~vectors ~budget () =
  let dir = vectors_dir C.name in
  let loaded = if Sys.file_exists dir then C.load dir else [] in
  Alcotest.(check int) "checked-in vectors" vectors (List.length loaded);
  let cases =
    List.map
      (fun (n, r) ->
        match r with Ok c -> (n, c) | Error e -> Alcotest.failf "%s: %s" n e)
      loaded
  in
  (match C.replay ~seed cases with
  | Ok (), _ -> ()
  | Error (n, i, reason), _ -> Alcotest.failf "%s diverges at %d: %s" n i reason);
  List.iter
    (fun (name, c) ->
      match List.assoc_opt (name ^ ".jsonl") cases with
      | Some disk ->
          Alcotest.(check string) (name ^ " = checked-in file") (C.to_jsonl c)
            (C.to_jsonl disk)
      | None -> Alcotest.failf "built-in %s is not checked in" name)
    C.builtin;
  let run () = C.run ~seed ~max_execs:budget () in
  let a = run () and b = run () in
  let roundtrip c =
    match C.of_jsonl (C.to_jsonl c) with
    | Ok c' -> Alcotest.(check string) "codec round-trip" (C.to_jsonl c) (C.to_jsonl c')
    | Error e -> Alcotest.failf "codec: %s" e
  in
  List.iter (fun (_, c) -> roundtrip c) C.builtin;
  List.iter roundtrip a.C.corpus;
  (* well-formed lines naming a data page outside the paging pool, or
     a vpn with the top bit set (which [Int64.to_int] would wrap to
     vpn 5), are rejected by every codec, range-checked paging included *)
  let map_line vpn page =
    Printf.sprintf
      "{\"op\":\"map\",\"h\":0,\"a0\":\"0x0\",\"a1\":\"%s\",\"a2\":\"%s\",\
       \"a3\":\"0xcf\",\"a4\":\"0x1\"}\n"
      vpn page
  in
  List.iter
    (fun bad_op ->
      Helpers.check_bool "out-of-range op rejected" true
        (Result.is_error (C.of_jsonl (C.to_jsonl (List.hd a.C.corpus) ^ bad_op))))
    [ map_line "0x5" "0x3e8"; map_line "0x8000000000000005" "0x1" ];
  Helpers.check_bool "no divergence" true (a.C.divergence = None && b.C.divergence = None);
  Helpers.check_bool "same edges" true (Fuzz.Coverage.equal a.C.coverage b.C.coverage);
  Alcotest.(check (list string)) "same corpus"
    (List.map C.to_jsonl a.C.corpus) (List.map C.to_jsonl b.C.corpus);
  Helpers.check_bool "found some coverage" true (Fuzz.Coverage.edges a.C.coverage > 0)

let () =
  Alcotest.run "fuzz"
    [
      ( "fuzz",
        [
          Alcotest.test_case "deterministic campaigns" `Quick
            test_deterministic;
          Alcotest.test_case "catches and shrinks injected bugs" `Slow
            test_catches_and_shrinks_injected_bugs;
          Alcotest.test_case "no false positives" `Quick
            test_no_false_positives;
          Alcotest.test_case "coverage round-trip" `Quick
            test_coverage_roundtrip;
          Alcotest.test_case "input jsonl round-trip" `Quick
            test_input_jsonl_roundtrip;
          Alcotest.test_case "builtin vectors agree" `Quick
            test_builtin_vectors_agree;
          Alcotest.test_case "irq vector detects priority bug" `Quick
            test_irq_vector_detects_priority_bug;
          Alcotest.test_case "checked-in vectors agree" `Quick
            test_checked_in_vectors_agree;
          Alcotest.test_case "corpus dir round-trip" `Quick
            test_corpus_dir_roundtrip;
        ] );
      ( "ace",
        [
          Alcotest.test_case "checked-in ace vectors agree" `Quick
            test_ace_vectors_agree;
          Alcotest.test_case "ace jsonl round-trip" `Quick
            test_ace_jsonl_roundtrip;
          Alcotest.test_case "ace campaign clean" `Slow
            test_ace_campaign_clean;
        ] );
      ( "campaign",
        Alcotest.test_case "engine on a planted divergence" `Quick
          test_engine_planted_divergence
        :: List.map
             (fun (m, vectors, budget) ->
               let (module C : Fuzz.Campaign.S) = m in
               Alcotest.test_case ("dimension " ^ C.name) `Quick
                 (test_dimension m ~vectors ~budget))
             [
               ((module Fuzz.Fuzzer : Fuzz.Campaign.S), 18, 500);
               ((module Fuzz.Pgfuzz), 0, 300);
               ((module Fuzz.Blockfuzz), 8, 100);
               ((module Fuzz.Acefuzz), 6, 20);
             ] );
    ]
