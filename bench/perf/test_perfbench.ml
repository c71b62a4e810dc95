(* The benchmark's own tests, at a small size.

   - Every workload's traced units simulate exactly what its untraced
     units do: the deterministic signatures (cycle and instruction
     counts, monitor counters, Snapshot.hash digests, the fleet digest,
     explorer campaign counts) are compared unit by unit, so a wrapper
     that perturbed the simulation would fail here.
   - Every unit's own output check passes (boots power off with equal
     UART transcripts, no oracle violation, every fleet machine
     completes).
   - The metrics printed are exactly the ones BENCHMARK.json declares,
     each with its declared unit. *)

open Perfbench

(* (name, unit) pairs of one metric list of BENCHMARK.json. *)
let declared section =
  let text =
    In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all
  in
  let start =
    Str.search_forward (Str.regexp_string (Printf.sprintf "%S" section)) text 0
  in
  let stop = String.index_from text start ']' in
  let body = String.sub text start (stop - start) in
  let re = Str.regexp {|"name": *"\([^"]*\)", *"unit": *"\([^"]*\)"|} in
  let rec go pos acc =
    match Str.search_forward re body pos with
    | exception Not_found -> List.rev acc
    | _ ->
        let pair = (Str.matched_group 1 body, Str.matched_group 2 body) in
        go (Str.match_end ()) (pair :: acc)
  in
  go 0 []

let names_and_units (o : Report.outcome) =
  List.map (fun (n, _, u) -> (n, u)) o.Report.metrics

let pairs = Alcotest.(list (pair string string))

(* One untraced and one traced unit, compared. *)
let traced_matches_untraced (w : Work.t) () =
  let o = Report.measure w ~seed:7 ~seconds:1e-3 ~trace:true Work.small in
  Alcotest.(check int) (w.Work.name ^ ": failed ops") 0 o.Report.failed;
  Alcotest.(check bool) (w.Work.name ^ ": correct") true o.Report.correct;
  Alcotest.check pairs "per-layer metrics as declared" (declared "per_layer")
    (names_and_units o)

let end_to_end (w : Work.t) () =
  let o = Report.measure w ~seed:7 ~seconds:1e-3 ~trace:false Work.small in
  Alcotest.(check bool) (w.Work.name ^ ": correct") true o.Report.correct;
  Alcotest.check pairs "end-to-end metrics as declared"
    (declared "end_to_end") (names_and_units o);
  List.iter
    (fun (n, v, _) ->
      if not (v > 0.) then Alcotest.failf "%s is %g, expected > 0" n v)
    o.Report.metrics;
  let line =
    Report.json ~correct:o.Report.correct ~attempted:o.Report.attempted
      ~failed:o.Report.failed o.Report.metrics
  in
  List.iter
    (fun (n, _, u) ->
      let field = Printf.sprintf "%S: {\"value\": " n in
      let unit = Printf.sprintf "\"unit\": %S" u in
      List.iter
        (fun s ->
          match Str.search_forward (Str.regexp_string s) line 0 with
          | _ -> ()
          | exception Not_found -> Alcotest.failf "%s missing from %s" s line)
        [ field; unit ])
    o.Report.metrics

let () =
  Alcotest.run "perfbench"
    [
      ( "traced",
        List.map
          (fun (w : Work.t) ->
            Alcotest.test_case w.Work.name `Slow (traced_matches_untraced w))
          Work.all );
      ( "end-to-end",
        List.map
          (fun (w : Work.t) ->
            Alcotest.test_case w.Work.name `Quick (end_to_end w))
          [ Work.compute; Work.fleet; Work.explore ] );
    ]
