(* Pluggable hart schedulers for [Machine.run_scheduled].

   A scheduler is a (possibly stateful) run-length function: given the
   machine, the global step counter and the hart that ran last, return
   the hart to run next and for how many steps. [run_scheduled] ends a
   segment early right after a trap entry (and when the hart halts), so
   a scheduler whose per-step decision only changes at those points is
   exactly its per-step pick written as run lengths. All randomness
   comes from an explicit [Mir_util.Prng.t], so a scheduler replays
   bit-identically from its seed. Trap entries are the
   preemption-interesting points: a hart whose previous step ended in a
   trap ([Hart.just_trapped]) is where the random walk and PCT
   schedulers concentrate their switches, since monitor emulation
   windows open there. *)

module Machine = Mir_rv.Machine
module Hart = Mir_rv.Hart
module Prng = Mir_util.Prng

type t = { next : Machine.t -> step:int -> last:int -> int * int }

(* Fixed time slices, hart 0 first — the cadence [Machine.run] itself
   uses. The explorer's baseline: a scheduler with no preemption at
   interesting points at all. *)
let round_robin ?(slice = 32) ~nharts () =
  {
    next =
      (fun _ ~step ~last:_ ->
        (step / slice mod nharts, slice - (step mod slice)));
  }

(* Seeded random walk. Expected slice length [avg_slice]: after the
   first step of a run every step switches with probability
   1/[avg_slice], so the run length is drawn at once, geometrically,
   and a run that runs out (or whose hart halts) ends in a switch.
   After a trap entry the switch probability jumps to 1/2, so
   preemption concentrates on the windows where the monitor has just
   begun (or just finished) emulating on behalf of the interrupted
   hart. A run cut short by a trap is not resumed: the geometric draw
   is memoryless, so a fresh one has the same distribution.
   [max_switches] bounds the number of preemptions the walk will take
   and [start_step] delays the first one — the shrinker uses small
   bounds with a randomized start so the budget is spent around one
   region of the run instead of on boot-time traps. *)
let random ?(avg_slice = 8) ?(max_switches = max_int) ?(start_step = 0) ~prng
    ~nharts () =
  let taken = ref 0 in
  let log_stay = Float.log (1. -. (1. /. float_of_int avg_slice)) in
  (* steps up to the first coin, then the coin's failures before its
     first success (geometric, by inverting the CDF) *)
  let run ~step =
    let u = 1. -. Prng.float prng in
    max (step + 1) start_step - step + int_of_float (Float.log u /. log_stay)
  in
  {
    next =
      (fun m ~step ~last ->
        if last < 0 then
          let h = Prng.int_below prng nharts in
          (h, run ~step)
        else if !taken >= max_switches || nharts < 2 then (last, max_int)
        else if
          step < start_step
          || m.Machine.harts.(last).Hart.just_trapped
             && Prng.int_below prng 2 <> 0
        then (last, run ~step)
        else begin
          incr taken;
          let h = (last + 1 + Prng.int_below prng (nharts - 1)) mod nharts in
          (h, run ~step)
        end);
  }

(* PCT-style priority schedule (Burckhardt et al.): harts run strictly
   by a random priority order, and at [depth] distinct, randomly chosen
   preemption-interesting events (trap entries observed so far) the
   currently-highest runnable hart is demoted below everyone else.
   With d demotion points this probes all bugs of preemption depth
   <= d, one schedule at a time. The running hart changes only at a
   trap entry or a halt, so each run lasts until one. *)
let pct ?(events = 64) ?(depth = 2) ~prng ~nharts () =
  let prio = Array.init nharts (fun i -> i) in
  (* Fisher-Yates from the schedule's prng *)
  for i = nharts - 1 downto 1 do
    let j = Prng.int_below prng (i + 1) in
    let tmp = prio.(i) in
    prio.(i) <- prio.(j);
    prio.(j) <- tmp
  done;
  (* distinct change points: a collision is redrawn, so the schedule
     runs at the requested depth (capped at [events]) *)
  let rec draw acc n =
    if n = 0 then acc
    else
      let c = 1 + Prng.int_below prng events in
      if List.mem c acc then draw acc n else draw (c :: acc) (n - 1)
  in
  let change_at = draw [] (min depth events) in
  let event_count = ref 0 in
  let floor = ref (-1) in
  let top m =
    let best = ref (-1) in
    Array.iter
      (fun h ->
        if
          (not h.Hart.halted)
          && (!best < 0 || prio.(h.Hart.id) > prio.(!best))
        then best := h.Hart.id)
      m.Machine.harts;
    if !best < 0 then 0 else !best
  in
  {
    next =
      (fun m ~step:_ ~last ->
        if last >= 0 && m.Machine.harts.(last).Hart.just_trapped then begin
          incr event_count;
          if List.mem !event_count change_at then begin
            let t = top m in
            prio.(t) <- !floor;
            decr floor
          end
        end;
        (top m, max_int));
  }

(* Exhaustive small-bound enumeration: every schedule whose switches
   sit on a coarse step grid, up to [max_switches] switches within
   [horizon] steps. The sequence is finite and deterministic; the
   explorer walks it depth-first. Each element is a switch list
   suitable for {!of_switches}. *)
let dfs_schedules ~nharts ~horizon ~grid ~max_switches =
  let harts = List.init nharts (fun h -> h) in
  let rec gen pos cur left : (int * int) list Seq.t =
    if pos >= horizon then Seq.return []
    else
      let stay = gen (pos + grid) cur left in
      let alts =
        if left = 0 then Seq.empty
        else
          Seq.concat_map
            (fun h ->
              if h = cur then Seq.empty
              else
                Seq.map
                  (fun tail -> (pos, h) :: tail)
                  (gen (pos + grid) h (left - 1)))
            (List.to_seq harts)
      in
      Seq.append stay alts
  in
  Seq.concat_map
    (fun h0 -> Seq.map (fun tail -> (0, h0) :: tail) (gen grid h0 max_switches))
    (List.to_seq harts)

(* Replay a recorded switch list: from each (step, hart) switch point
   onward run that hart, up to the next switch point. Steps before the
   first switch (there are none in well-formed schedules, which start
   at step 0) run hart 0. *)
let of_switches switches =
  let rem = ref switches in
  let cur = ref 0 in
  {
    next =
      (fun _ ~step ~last:_ ->
        (match !rem with
        | (at, h) :: tl when at <= step ->
            cur := h;
            rem := tl
        | _ -> ());
        match !rem with
        | (at, _) :: _ -> (!cur, max 1 (at - step))
        | [] -> (!cur, max_int));
  }
