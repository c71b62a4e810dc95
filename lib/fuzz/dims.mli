(** Every fuzz dimension, in CLI and report order: [core], [paging],
    [blocks], [ace]. *)

val all : (module Campaign.S) list
