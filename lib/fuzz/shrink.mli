(** Divergence minimization over op lists. *)

val ddmin : still_fails:('a list -> bool) -> 'a list -> 'a list
(** Greedy delta-debugging over any list: removes chunks of decreasing
    size, restarting the scan after every successful removal, keeping
    a candidate only when [still_fails] holds of it. The head element
    is always retained. Reused by the schedule explorer to minimize
    failing schedules over their preemption points. *)

val ops : ('a list -> Campaign.verdict) -> 'a list -> 'a list
(** [ops exec l]: truncate after the op [exec l] fails at, {!ddmin}
    the rest, then try dropping the head that {!ddmin} keeps. Every
    kept candidate still fails under [exec], so the result is a
    genuine failing list no longer than the input. *)
