(** Helpers shared by the op-stream fuzz dimensions: the flat JSONL
    line format, the name-plus-int64-args op-line codec and one op-list
    mutator. *)

val fields : string -> ((string * string) list, string) result
(** Parse one flat JSON object line ([{"k":"v","n":1,"b":true}]) into
    its (key, value) pairs, in order, string quotes removed. Keys and
    values may not contain [','] or [':'] — the vector formats never
    write them. *)

type line = { op : string; h : int; args : int64 list }
(** One op: its name, the hart that issues it, and its arguments. *)

val to_jsonl : family:string -> ('op -> line) -> 'op list -> string
(** Header [{"<family>":1,"v":1}], then one
    [{"op":"<op>","h":<h>,"a0":"0x..","a1":"0x..",...}] line per op. *)

val of_jsonl :
  family:string -> (line -> 'op option) -> string -> ('op list, string) result
(** Exact inverse of {!to_jsonl} when the [line -> 'op option]
    converter inverts the ['op -> line] one; [None] rejects a line. *)

val mutate :
  gen_op:(unit -> 'op) ->
  max_len:int ->
  Mir_util.Prng.t ->
  other:(unit -> 'op list) ->
  'op list ->
  [ `Ops of 'op list | `Reseed ]
(** One havoc step over an op list: replace, insert, remove, duplicate
    a slice, swap, splice a prefix with [other ()]'s suffix, or
    truncate; never empty. Only lists shorter than [max_len] grow,
    by at most 4 ops (a duplicated slice). [`Reseed]
    asks the caller for a fresh initial state (or a fresh stream). *)
