(* Divergence minimization: truncate at the diverging op, then
   ddmin-style chunk removal. Every candidate is re-executed; a
   candidate is kept only if it still fails, so the result is always a
   genuine failing input. *)

let remove_span ops i len = List.filteri (fun j _ -> j < i || j >= i + len) ops

(* Generic ddmin over a list: remove chunks of decreasing size,
   restarting the scan after every successful removal (classic ddmin
   simplified to a greedy pass). Every candidate is validated by
   [still_fails], so the result is a genuine failing input. The scan
   starts at index [chunk], so the head element is always retained —
   for op streams that is the seed of the divergence window, for the
   schedule explorer it is the initial hart pick. *)
let ddmin ~still_fails items =
  let rec at_size items chunk =
    if chunk = 0 then items
    else
      let rec scan items i =
        let n = List.length items in
        if i >= n then at_size items (chunk / 2)
        else
          let cand = remove_span items i chunk in
          if still_fails cand then scan cand i else scan items (i + chunk)
      in
      scan items chunk
  in
  at_size items (max 1 (List.length items / 2))

let ops exec ops =
  let still_fails ops = ops <> [] && (exec ops).Campaign.failure <> None in
  match (exec ops).Campaign.failure with
  | None -> ops
  | Some (idx, _) ->
      let truncated = List.filteri (fun i _ -> i <= idx) ops in
      let ops = if still_fails truncated then truncated else ops in
      let ops = ddmin ~still_fails ops in
      if still_fails (List.tl ops) then List.tl ops else ops
