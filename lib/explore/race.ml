(* The explorer's injectable cross-hart races. Each defect delays the
   remote half of one cross-hart propagation (a remote TLB shootdown, a
   physical MSIP kick, a sibling PMP reinstall, the re-protection of a
   returned confidential VM) by [window] global machine steps, opening
   a short inconsistency window that only a preemptive schedule can
   observe: under the stock round-robin [run], the window opens and
   closes inside one hart's slice, before the next hart-switch point.

   Arming makes the machine's engine [Raced]: the machine single-steps,
   the delay queue ticks before each step, and the four propagation
   sites offer their remote half through [Machine.delay]. Production
   machines are never armed, so nothing here touches their hot path. *)

module Machine = Mir_rv.Machine

type bug =
  | Delayed_vm_epoch
  | Dropped_msip
  | Pmp_handoff_window
  | Ace_stale_ownership

let window = 6

(* Does [bug] delay the propagation at [site]? A dropped MSIP needs a
   target that was preempted mid-trap: its last step ended in a trap
   entry and it has not run since. *)
let delays bug (m : Machine.t) (site : Machine.site) =
  match (bug, site) with
  | Delayed_vm_epoch, Remote_shootdown
  | Pmp_handoff_window, Pmp_reinstall
  | Ace_stale_ownership, Cvm_reprotect ->
      true
  | Dropped_msip, Msip_kick h -> m.Machine.harts.(h).Mir_rv.Hart.just_trapped
  | _ -> false

(* The delay queue counts global steps (ticks); every entry waits the
   same [window], so due times rise in queue order. A delayed action
   runs at the start of the [window]-th step after the one that
   delayed it. *)
let arm (m : Machine.t) bug =
  let now = ref 0 in
  let due = Queue.create () in
  let tick m =
    incr now;
    while (not (Queue.is_empty due)) && fst (Queue.peek due) <= !now do
      snd (Queue.pop due) m
    done
  in
  let delay m site action =
    let delayed = delays bug m site in
    if delayed then Queue.push (!now + window, action) due;
    delayed
  in
  m.Machine.engine <- Machine.Raced { tick; delay }
