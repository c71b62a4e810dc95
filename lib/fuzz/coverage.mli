(** Edge-coverage map: hit counts per edge id with AFL-style bucketing,
    driving corpus growth in every fuzz dimension. Each dimension packs
    its own edge tuple into an id; {!edge} is the core dimension's. *)

type t

val size : int
(** Number of buckets in the map. *)

val create : unit -> t

val edge : cls:int -> tag:int -> cause:int -> int
(** Stable index of the core (instruction class, outcome tag, cause)
    edge. *)

val add : t -> int -> bool
(** Record a hit; [true] iff the edge is new or its count crossed a
    power-of-two-ish bucket — the "interesting input" signal. *)

val edges : t -> int
(** Number of distinct edges seen (nonzero buckets). *)

val total : t -> int
val equal : t -> t -> bool

val to_string : t -> string
val of_string : string -> (t, string) result
(** Exact inverse of {!to_string}. *)
