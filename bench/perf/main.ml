(* The repository benchmark.

     main.exe --workload boot|compute|fleet|explore|all --seed N
              --seconds S --trace 0|1

   With --trace 0 it builds the workload's system a few times (the
   median build is [setup_s]), then repeats the workload's unit of
   work in a closed loop for S seconds with no tracing installed and
   reports the end-to-end metrics. With --trace 1 it spends half of S
   untraced and half traced, checks that both halves simulate the same
   thing bit for bit, and reports the per-layer metrics. Every metric
   is printed by name with its unit; the last line of standard output
   is one JSON object:

     {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}

   [--workload all] runs every workload in turn and prefixes each
   metric with its workload's name. *)

open Perfbench

let usage =
  "usage: main.exe --workload boot|compute|fleet|explore|all --seed N \
   --seconds S --trace 0|1"

let fail msg =
  prerr_endline msg;
  prerr_endline usage;
  exit 2

type args = { workload : string; seed : int; seconds : float; trace : bool }

let parse argv =
  let rec go a = function
    | "--workload" :: v :: rest -> go { a with workload = v } rest
    | "--seed" :: v :: rest -> (
        match int_of_string_opt v with
        | Some seed -> go { a with seed } rest
        | None -> fail ("bad --seed " ^ v))
    | "--seconds" :: v :: rest -> (
        match float_of_string_opt v with
        | Some s when s > 0. -> go { a with seconds = s } rest
        | _ -> fail ("bad --seconds " ^ v))
    | "--trace" :: ("0" | "1" as v) :: rest -> go { a with trace = v = "1" } rest
    | x :: _ -> fail ("unexpected argument " ^ x)
    | [] -> a
  in
  go { workload = "all"; seed = 1; seconds = 10.; trace = false } argv

let () =
  let a = parse (List.tl (Array.to_list Sys.argv)) in
  let workloads =
    if a.workload = "all" then Work.all
    else
      match Work.find a.workload with
      | Some w -> [ w ]
      | None -> fail ("unknown workload " ^ a.workload)
  in
  let seconds = a.seconds /. float_of_int (List.length workloads) in
  let outcomes =
    List.map
      (fun (w : Work.t) ->
        let o =
          Report.measure w ~seed:a.seed ~seconds ~trace:a.trace Work.full
        in
        Printf.printf "%s (seed %d, %s):\n" w.Work.name a.seed
          (if a.trace then "traced" else "untraced");
        Report.print o;
        (w.Work.name, o))
      workloads
  in
  let prefix name m =
    if List.length workloads = 1 then m else name ^ "." ^ m
  in
  let metrics =
    List.concat_map
      (fun (name, o) ->
        List.map (fun (m, v, u) -> (prefix name m, v, u)) o.Report.metrics)
      outcomes
  in
  let sum f = List.fold_left (fun acc (_, o) -> acc + f o) 0 outcomes in
  print_endline
    (Report.json
       ~correct:(List.for_all (fun (_, o) -> o.Report.correct) outcomes)
       ~attempted:(sum (fun o -> o.Report.attempted))
       ~failed:(sum (fun o -> o.Report.failed))
       metrics)
