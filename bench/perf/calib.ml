(* A fixed reference for the host's current single-thread speed.

   The benchmark's host is shared, and its speed on the simulator's
   execute loop swings by up to 2x within seconds as other tenants come
   and go. [run] times a small kernel shaped like that loop (indirect
   calls through a closure table, driven by a decoded-code array that
   stays in cache). [run_machine] runs a machine in segments with the
   kernel timed between them, and reports the run's host time in
   reference seconds: each segment's host time scaled by [nominal_s]
   over the mean of the kernel times on either side of it. The kernel
   lives in the benchmark, so no commit to the simulator changes it. *)

module Machine = Mir_rv.Machine

let ops = Array.init 8 (fun k x -> (x * ((2 * k) + 3)) lxor (x lsr (k + 1)))
let code = Array.init 65536 (fun i -> (i * 7919) land 7)

let kernel () =
  let acc = ref 1 in
  for _ = 1 to 16 do
    for i = 0 to Array.length code - 1 do
      acc := ops.(code.(i)) !acc
    done
  done;
  !acc

(* [kernel]'s host time at the reference speed, in seconds: roughly its
   time on the host the committed baseline was measured on. *)
let nominal_s = 0.004

let run () =
  let t0 = Probe.now_ns () in
  ignore (Sys.opaque_identity (kernel ()));
  Probe.seconds_of_ns (Probe.now_ns () - t0)

(* [Machine.run ~max_instrs:budget m], cut into runs of at most [segment]
   instructions. [Machine.run] stops only between whole scheduler rounds
   and its final time sync is idempotent, so the cut changes nothing
   the machine computes. Returns the run's reference-speed host
   nanoseconds and the host nanoseconds spent timing the kernel. *)
let run_machine ?(segment = 1_000_000) ~budget (m : Machine.t) =
  let c0 = Probe.now_ns () in
  let before = ref (run ()) and ref_ns = ref 0. and left = ref budget in
  let calib_ns = ref (Probe.now_ns () - c0) in
  while (not m.Machine.poweroff) && (not (Machine.all_halted m)) && !left > 0
  do
    let i0 = m.Machine.instr_count in
    let t0 = Probe.now_ns () in
    Machine.run ~max_instrs:(Int64.of_int (min segment !left)) m;
    let t1 = Probe.now_ns () in
    let dt = float_of_int (t1 - t0) in
    let after = run () in
    calib_ns := !calib_ns + Probe.now_ns () - t1;
    ref_ns := !ref_ns +. (dt *. 2. *. nominal_s /. (!before +. after));
    before := after;
    left := !left - (m.Machine.instr_count - i0)
  done;
  (int_of_float !ref_ns, !calib_ns)
