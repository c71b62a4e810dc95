(* The AST-driven invariant analyzer (lib/analysis).

   Per rule: at least one triggering and one non-triggering fixture,
   including a string-literal/comment decoy — the class of false
   positives the old grep lint could not avoid (this very file would
   have tripped it). Regression fixtures pin the legacy
   false-positive/negative classes: rule 2 firing on comments and
   doc-strings, rule 6 missing annotated and multi-line mutable
   bindings. A generic sweep asserts every rule's diagnostics
   disappear when the rule is disabled, and a self-run asserts the
   repository itself is clean. *)

module Lint = Mir_analysis.Lint
module Rules = Mir_analysis.Rules
module Allowlist = Mir_analysis.Allowlist
module Diagnostic = Mir_analysis.Diagnostic

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* [(rule, line)] pairs for a snippet placed at [file]. *)
let diags ?rules ~file src =
  List.map
    (fun d -> (d.Diagnostic.rule, d.Diagnostic.line))
    (Lint.check_source ?rules ~file src)

let count rule ds = List.length (List.filter (fun (r, _) -> r = rule) ds)

let fired ?rules ~file ~rule src = count rule (diags ?rules ~file src)

(* ------------------------------------------------------------------ *)
(* Rule 1: obj-magic                                                   *)
(* ------------------------------------------------------------------ *)

let test_obj_magic () =
  check_int "Obj.magic flagged" 1
    (fired ~file:"lib/core/x.ml" ~rule:"obj-magic" "let f x = Obj.magic x\n");
  check_int "qualified Stdlib.Obj.magic flagged" 1
    (fired ~file:"bin/x.ml" ~rule:"obj-magic"
       "let f x = Stdlib.Obj.magic x\n");
  check_int "comment and string decoys silent" 0
    (fired ~file:"lib/core/x.ml" ~rule:"obj-magic"
       "(* Obj.magic is banned *)\nlet s = \"Obj.magic\"\n")

(* ------------------------------------------------------------------ *)
(* Rule 2: stdlib-random                                               *)
(* ------------------------------------------------------------------ *)

let test_stdlib_random () =
  check_int "Random.int flagged" 1
    (fired ~file:"lib/core/x.ml" ~rule:"stdlib-random"
       "let x = Random.int 5\n");
  check_int "Random.State flagged" 1
    (fired ~file:"lib/core/x.ml" ~rule:"stdlib-random"
       "let s = Random.State.make [| 1 |]\n");
  check_int "module alias flagged" 1
    (fired ~file:"lib/core/x.ml" ~rule:"stdlib-random"
       "module R = Random\n");
  check_int "open Random flagged" 1
    (fired ~file:"lib/core/x.ml" ~rule:"stdlib-random" "open Random\n");
  check_int "the seeded PRNG itself is sanctioned" 0
    (fired ~file:"lib/util/prng.ml" ~rule:"stdlib-random"
       "let x = Random.int 5\n")

(* Satellite regression: the legacy `grep "Random\."` fired on comments,
   doc-strings and string literals. The analyzer must not. *)
let test_random_comment_decoy () =
  check_int "comment/doc-string/string decoys silent" 0
    (fired ~file:"lib/core/x.ml" ~rule:"stdlib-random"
       "(* seeding via Random.self_init is banned; use Prng *)\n\
        let doc = \"Random.int rolls host entropy\"\n\n\
        (** [reseed] never touches [Random.State]. *)\n\
        let reseed prng = prng\n")

(* ------------------------------------------------------------------ *)
(* Rules 3/4: CSR write paths and raw satp installs                    *)
(* ------------------------------------------------------------------ *)

let test_csr_write_path () =
  check_int "Csr_file.write outside sanctioned paths flagged" 1
    (fired ~file:"lib/explore/x.ml" ~rule:"csr-write-path"
       "let f c v = Csr_file.write c v\n");
  check_int "set_mip_bits flagged too" 1
    (fired ~file:"lib/fleet/x.ml" ~rule:"csr-write-path"
       "let f c = Csr_file.set_mip_bits c 8L\n");
  check_int "the emulator install path is sanctioned" 0
    (fired ~file:"lib/core/emulator.ml" ~rule:"csr-write-path"
       "let f c v = Csr_file.write c v\n");
  check_int "string decoy silent" 0
    (fired ~file:"lib/explore/x.ml" ~rule:"csr-write-path"
       "let s = \"Csr_file.write\"\n")

let test_satp_raw_install () =
  (* Multi-line application: the legacy single-line regex missed the
     satp argument on the continuation line. *)
  let multiline =
    "let f c v =\n  Csr_file.write_raw c\n    Csr_addr.satp v\n"
  in
  check_int "multi-line raw satp install flagged" 1
    (fired ~file:"lib/core/emulator.ml" ~rule:"satp-raw-install" multiline);
  check_int "world switch is sanctioned" 0
    (fired ~file:"lib/core/world.ml" ~rule:"satp-raw-install" multiline);
  check_int "write_raw of a non-satp CSR not a satp diagnostic" 0
    (fired ~file:"lib/core/emulator.ml" ~rule:"satp-raw-install"
       "let f c v = Csr_file.write_raw c Csr_addr.mepc v\n")

(* ------------------------------------------------------------------ *)
(* Rules 5/7: Machine.step / Machine.step_blocks fences               *)
(* ------------------------------------------------------------------ *)

let test_machine_step () =
  check_int "Machine.step outside the fence flagged" 1
    (fired ~file:"lib/explore/x.ml" ~rule:"machine-step"
       "let f m h = Machine.step m h\n");
  check_int "qualified Mir_rv.Machine.step flagged" 1
    (fired ~file:"examples/x.ml" ~rule:"machine-step"
       "let f m h = Mir_rv.Machine.step m h\n");
  check_int "the block-engine tests are sanctioned" 0
    (fired ~file:"test/test_blocks.ml" ~rule:"machine-step"
       "let f m h = Machine.step m h\n");
  check_int "comment decoy silent" 0
    (fired ~file:"lib/explore/x.ml" ~rule:"machine-step"
       "(* switch points are atomic within one Machine.step *)\n\
        let doc = 1\n");
  (* step_blocks is not step: each fence reports under its own id. *)
  check_int "step_blocks does not fire machine-step" 0
    (fired ~file:"lib/explore/x.ml" ~rule:"machine-step"
       "let f m h = Machine.step_blocks m h\n")

let test_block_step () =
  check_int "Machine.step_blocks outside the fence flagged" 1
    (fired ~file:"lib/explore/x.ml" ~rule:"block-step"
       "let f m h = Machine.step_blocks m h\n");
  check_int "the differ is sanctioned" 0
    (fired ~file:"lib/verif/blockdiff.ml" ~rule:"block-step"
       "let f m h = Machine.step_blocks m h\n")

(* ------------------------------------------------------------------ *)
(* Rule 6: toplevel-mutable                                            *)
(* ------------------------------------------------------------------ *)

(* Satellite regression: the legacy single-line regex missed annotated
   and multi-line bindings; the analyzer sees both, at the right line. *)
let test_toplevel_mutable_legacy_misses () =
  let ds =
    diags ~file:"lib/core/x.ml"
      "let table =\n\
      \  Hashtbl.create 64\n\
       let count : int ref = ref 0\n"
  in
  check_int "multi-line + annotated both flagged" 2
    (count "toplevel-mutable" ds);
  check_bool "multi-line binding anchored at its let" true
    (List.mem ("toplevel-mutable", 1) ds);
  check_bool "annotated binding anchored at its let" true
    (List.mem ("toplevel-mutable", 3) ds)

let test_toplevel_mutable_forms () =
  let flag src =
    check_int src 1 (fired ~file:"lib/sym/x.ml" ~rule:"toplevel-mutable" src)
  in
  flag "let cell = { contents = 0 }\n";
  flag "let buf = Bytes.create 16\n";
  flag "let later = lazy (compute ())\n";
  flag "let state = Atomic.make 0\n";
  flag "let scratch = Array.make 8 0\n";
  flag "module Inner = struct\n  let q = Queue.create ()\nend\n";
  flag "module F (X : sig end) = struct\n  let st = Stack.create ()\nend\n";
  flag "let t = let n = 64 in Hashtbl.create n\n"

let test_toplevel_mutable_negative () =
  check_int "mutable state inside a constructor is the idiom" 0
    (fired ~file:"lib/core/x.ml" ~rule:"toplevel-mutable"
       "let make () = { tlb = Hashtbl.create 64; epoch = ref 0 }\n");
  check_int "immutable top-level values are fine" 0
    (fired ~file:"lib/core/x.ml" ~rule:"toplevel-mutable"
       "let names = [| \"a\"; \"b\" |]\nlet k = 42\n");
  check_int "tests are outside the rule's scope" 0
    (fired ~file:"test/test_x.ml" ~rule:"toplevel-mutable"
       "let mem = Hashtbl.create 64\n");
  check_int "string decoy silent" 0
    (fired ~file:"lib/core/x.ml" ~rule:"toplevel-mutable"
       "let doc = \"let t = Hashtbl.create 64\"\n")

(* ------------------------------------------------------------------ *)
(* Rule 8: domain-capture race detector                                *)
(* ------------------------------------------------------------------ *)

let test_domain_capture_positive () =
  let flag what src =
    check_int what 1 (fired ~file:"bin/x.ml" ~rule:"domain-capture" src)
  in
  flag "captured ref assigned"
    "let go r = Domain.spawn (fun () -> r := 1)\n";
  flag "captured ref dereferenced"
    "let go r = Domain.spawn (fun () -> print_int !r)\n";
  flag "captured hashtable mutated"
    "let go h = Domain.spawn (fun () -> Hashtbl.add h 1 2)\n";
  flag "captured array written (indexing sugar)"
    "let go slots = Domain.spawn (fun () -> slots.(0) <- 1)\n";
  flag "captured record field assigned"
    "let go t = Domain.spawn (fun () -> t.count <- t.count + 1)\n";
  flag "module-level state mutated from a spawned domain"
    "let go () = Domain.spawn (fun () -> Shared.counter := 1)\n";
  flag "fleet pool closures are spawn sites too"
    "let go h = Pool.run ~domains:2 ~tasks:4 (fun i -> Hashtbl.add h i i)\n";
  flag "qualified Fleet.Pool.run recognized"
    "let go h = Mir_fleet.Pool.run ~domains:2 ~tasks:4\n\
    \    (fun i -> Hashtbl.add h i i)\n"

let test_domain_capture_negative () =
  let ok what src =
    check_int what 0 (fired ~file:"bin/x.ml" ~rule:"domain-capture" src)
  in
  ok "ref local to the closure is domain-private"
    "let go () = Domain.spawn (fun () -> let c = ref 0 in c := 1; !c)\n";
  ok "Atomic operations are the sanctioned wrapper"
    "let go a = Domain.spawn (fun () -> Atomic.incr a)\n";
  ok "Mutex.protect guards its critical section"
    "let go m r = Domain.spawn (fun () -> Mutex.protect m (fun () -> r := 1))\n";
  ok "pure closures are fine"
    "let go xs = Domain.spawn (fun () -> List.length xs)\n";
  ok "mutation outside any spawn is rule 6's business, not rule 8's"
    "let go r = r := 1\n";
  ok "shadowing parameter makes the target closure-local"
    "let go r = Domain.spawn (fun r -> r := 1)\n"

(* ------------------------------------------------------------------ *)
(* Rule 9: determinism sources                                         *)
(* ------------------------------------------------------------------ *)

let test_determinism () =
  let ds =
    diags ~file:"lib/workloads/x.ml"
      "let t0 () = Sys.time ()\n\
       let t1 () = Unix.gettimeofday ()\n\
       let t2 () = Unix.time ()\n\
       let seed () = Domain.self ()\n"
  in
  check_int "all four entropy sources flagged" 4 (count "determinism" ds);
  check_int "Random.self_init flagged" 1
    (fired ~file:"lib/core/x.ml" ~rule:"determinism"
       "let s () = Random.self_init ()\n");
  check_int "bench/ may read the wall clock" 0
    (fired ~file:"bench/x.ml" ~rule:"determinism"
       "let t0 () = Unix.gettimeofday ()\n");
  check_int "comment decoy silent" 0
    (fired ~file:"lib/core/x.ml" ~rule:"determinism"
       "(* never call Sys.time or Unix.gettimeofday here *)\nlet k = 1\n")

(* ------------------------------------------------------------------ *)
(* Rule 10: race-hook                                                  *)
(* ------------------------------------------------------------------ *)

let test_race_hook () =
  check_int "constructing Raced outside the explorer flagged" 1
    (fired ~file:"lib/core/x.ml" ~rule:"race-hook"
       "let f m r = m.Machine.engine <- Machine.Raced r\n");
  check_int "calling Race.arm outside the explorer flagged" 1
    (fired ~file:"bin/x.ml" ~rule:"race-hook"
       "let f m = Mir_explore.Race.arm m Race.Dropped_msip\n");
  check_int "matching on Raced (the engine dispatch) passes" 0
    (fired ~file:"lib/rv/x.ml" ~rule:"race-hook"
       "let f t = match t.engine with Raced r -> r.tick t | _ -> ()\n");
  check_int "the explorer and tests may arm" 0
    (fired ~file:"lib/explore/x.ml" ~rule:"race-hook"
       "let f m r = m.Machine.engine <- Machine.Raced r\n"
    + fired ~file:"test/x.ml" ~rule:"race-hook"
        "let f m = Race.arm m Race.Dropped_msip\n");
  check_int "comment and string decoys silent" 0
    (fired ~file:"lib/core/x.ml" ~rule:"race-hook"
       "(* Race.arm makes the engine Machine.Raced *)\n\
        let s = \"Raced r\"\n")

(* ------------------------------------------------------------------ *)
(* Every rule's fixtures go dark when the rule is disabled             *)
(* ------------------------------------------------------------------ *)

let rule_triggers =
  [
    ("obj-magic", "lib/core/x.ml", "let f x = Obj.magic x\n");
    ("stdlib-random", "lib/core/x.ml", "let x = Random.int 5\n");
    ("csr-write-path", "lib/explore/x.ml", "let f c v = Csr_file.write c v\n");
    ( "satp-raw-install",
      "lib/core/emulator.ml",
      "let f c v =\n  Csr_file.write_raw c\n    Csr_addr.satp v\n" );
    ("machine-step", "lib/explore/x.ml", "let f m h = Machine.step m h\n");
    ( "toplevel-mutable",
      "lib/core/x.ml",
      "let t =\n  Hashtbl.create 64\n" );
    ( "block-step",
      "lib/explore/x.ml",
      "let f m h = Machine.step_blocks m h\n" );
    ( "domain-capture",
      "bin/x.ml",
      "let go r = Domain.spawn (fun () -> r := 1)\n" );
    ("determinism", "lib/core/x.ml", "let t () = Sys.time ()\n");
    ( "race-hook",
      "lib/core/x.ml",
      "let f m r = m.Machine.engine <- Machine.Raced r\n" );
  ]

let test_catalog_covers_triggers () =
  check_int "one trigger fixture per rule" (List.length Rules.all)
    (List.length rule_triggers);
  List.iter
    (fun (rule, _, _) ->
      check_bool (rule ^ " is a known rule id") true (Rules.by_id rule <> None))
    rule_triggers

let test_disabled_rule_goes_dark () =
  List.iter
    (fun (rule, file, src) ->
      check_bool
        (rule ^ " fires when enabled")
        true
        (fired ~file ~rule src >= 1);
      check_int
        (rule ^ " dark when disabled")
        0
        (fired ~rules:(Rules.except [ rule ]) ~file ~rule src))
    rule_triggers

(* ------------------------------------------------------------------ *)
(* Parsing and rendering                                               *)
(* ------------------------------------------------------------------ *)

let test_parse_error_is_a_diagnostic () =
  check_int "broken source yields one parse-error" 1
    (fired ~file:"lib/core/x.ml" ~rule:"parse-error" "let let let\n");
  check_int "interfaces parse too" 1
    (fired ~file:"lib/core/x.mli" ~rule:"parse-error" "val : : :\n");
  check_int "clean interfaces yield nothing" 0
    (List.length (diags ~file:"lib/core/x.mli" "val f : int -> int\n"))

let test_json_render () =
  let report =
    {
      Lint.diagnostics =
        [
          {
            Diagnostic.rule = "obj-magic";
            file = "lib/x.ml";
            line = 3;
            col = 7;
            message = "a \"quoted\" message";
          };
        ];
      files = 1;
      unused_allowlist = [];
    }
  in
  let contains_sub s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    m = 0 || go 0
  in
  let s = Lint.render ~format:`Json report in
  check_bool "has count" true (contains_sub s "\"count\": 1");
  check_bool "lists the rule" true (contains_sub s "\"rule\": \"obj-magic\"");
  check_bool "escapes quotes" true
    (contains_sub s "a \\\"quoted\\\" message")

(* ------------------------------------------------------------------ *)
(* Allowlist hygiene                                                   *)
(* ------------------------------------------------------------------ *)

let test_allowlist_entries_are_justified () =
  List.iter
    (fun e ->
      check_bool
        (Printf.sprintf "entry %s/%s has a written justification"
           e.Allowlist.rule e.Allowlist.path)
        true
        (String.length e.Allowlist.reason > 20);
      check_bool
        (Printf.sprintf "entry %s/%s names a known rule" e.Allowlist.rule
           e.Allowlist.path)
        true
        (Rules.by_id e.Allowlist.rule <> None))
    Allowlist.entries

let test_allowlist_suppression () =
  let d rule file line =
    { Diagnostic.rule; file; line; col = 0; message = "m" }
  in
  let ent =
    { Allowlist.rule = "determinism"; path = "lib/fuzz/"; line = None;
      reason = "r" }
  in
  check_bool "dir prefix matches" true
    (Allowlist.suppresses ent (d "determinism" "lib/fuzz/fuzzer.ml" 29));
  check_bool "other rule untouched" false
    (Allowlist.suppresses ent (d "obj-magic" "lib/fuzz/fuzzer.ml" 29));
  check_bool "other path untouched" false
    (Allowlist.suppresses ent (d "determinism" "lib/verif/prove.ml" 29));
  let pinned = { ent with Allowlist.path = "lib/fuzz/fuzzer.ml";
                 line = Some 29 } in
  check_bool "line pin matches its line" true
    (Allowlist.suppresses pinned (d "determinism" "lib/fuzz/fuzzer.ml" 29));
  check_bool "line pin rejects other lines" false
    (Allowlist.suppresses pinned (d "determinism" "lib/fuzz/fuzzer.ml" 30));
  let kept, unused = Allowlist.apply [] in
  check_int "nothing kept from nothing" 0 (List.length kept);
  check_int "all entries unused on an empty report"
    (List.length Allowlist.entries) (List.length unused)

(* ------------------------------------------------------------------ *)
(* Self-run: the repository is clean                                   *)
(* ------------------------------------------------------------------ *)

let rec find_root dir depth =
  if depth > 8 then None
  else if
    Sys.file_exists (Filename.concat dir "lib/rv")
    && Sys.file_exists (Filename.concat dir "bin")
  then Some dir
  else
    let parent = Filename.dirname dir in
    if parent = dir then None else find_root parent (depth + 1)

let test_self_run_clean () =
  match find_root (Sys.getcwd ()) 0 with
  | None -> Alcotest.fail "could not locate the repository root"
  | Some root ->
      let report = Lint.run ~root ~dirs:Lint.default_dirs () in
      check_bool "scanned a real tree" true (report.Lint.files > 100);
      List.iter
        (fun d -> Printf.eprintf "self-run: %s\n" (Diagnostic.to_string d))
        report.Lint.diagnostics;
      check_int "zero diagnostics on the repository" 0
        (List.length report.Lint.diagnostics);
      check_int "no unused allowlist entries" 0
        (List.length report.Lint.unused_allowlist)

let () =
  Alcotest.run "lint"
    [
      ( "legacy rules on the AST",
        [
          Alcotest.test_case "obj-magic" `Quick test_obj_magic;
          Alcotest.test_case "stdlib-random" `Quick test_stdlib_random;
          Alcotest.test_case "random comment decoy (legacy FP)" `Quick
            test_random_comment_decoy;
          Alcotest.test_case "csr-write-path" `Quick test_csr_write_path;
          Alcotest.test_case "satp-raw-install" `Quick test_satp_raw_install;
          Alcotest.test_case "machine-step" `Quick test_machine_step;
          Alcotest.test_case "block-step" `Quick test_block_step;
        ] );
      ( "toplevel-mutable",
        [
          Alcotest.test_case "legacy misses (annotated, multi-line)" `Quick
            test_toplevel_mutable_legacy_misses;
          Alcotest.test_case "all mutable forms" `Quick
            test_toplevel_mutable_forms;
          Alcotest.test_case "negatives" `Quick test_toplevel_mutable_negative;
        ] );
      ( "domain-capture",
        [
          Alcotest.test_case "races flagged" `Quick
            test_domain_capture_positive;
          Alcotest.test_case "synchronized/local captures pass" `Quick
            test_domain_capture_negative;
        ] );
      ( "determinism",
        [ Alcotest.test_case "entropy sources" `Quick test_determinism ] );
      ( "race-hook",
        [ Alcotest.test_case "armed only by explorer and tests" `Quick
            test_race_hook ] );
      ( "engine",
        [
          Alcotest.test_case "catalog covers triggers" `Quick
            test_catalog_covers_triggers;
          Alcotest.test_case "disabled rules go dark" `Quick
            test_disabled_rule_goes_dark;
          Alcotest.test_case "parse errors are diagnostics" `Quick
            test_parse_error_is_a_diagnostic;
          Alcotest.test_case "json rendering" `Quick test_json_render;
        ] );
      ( "allowlist",
        [
          Alcotest.test_case "entries are justified" `Quick
            test_allowlist_entries_are_justified;
          Alcotest.test_case "suppression semantics" `Quick
            test_allowlist_suppression;
        ] );
      ( "self-run",
        [ Alcotest.test_case "repository is clean" `Quick test_self_run_clean ]
      );
    ]
