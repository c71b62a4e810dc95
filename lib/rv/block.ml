(* Decoded basic blocks and the per-machine decode cache.

   A block is a run of pre-decoded instructions compiled to closures,
   one per instruction, each advancing the hart exactly as the
   interpreter's [Machine.exec] would (most delegate straight to it).
   Blocks are keyed by the RAM word index of their first instruction
   — a *physical* location — so a block is valid for any virtual
   alias of its page; virtual-side validity (translation, privilege,
   page-wide PMP execute) is re-established on every dispatch through
   the TLB fetch-page cache, which the vm-epoch machinery already
   invalidates on satp/PMP/mstatus writes and sfence.vma.

   All decoded state lives in one sparse table of 4 KiB page records,
   built on first decode: a page's decoded words (what the
   interpreter fetches) and the blocks starting on it (what the
   engine dispatches). Pages never decoded share one cold sentinel
   record, so the hot reads ([word], [lookup]) stay unconditional
   array loads; the sentinel is never written. Invalidation is one
   path: a store into a populated page drops the stored word and
   every block on the page (blocks never span a 4 KiB page, so that
   is a complete kill), a store into a cold page does nothing, and a
   flush drops the populated records only. Over-invalidation is
   harmless — a recompile reads the same decoded words the
   interpreter would fetch.

   The cache lives inside the owning [Machine.t] (lint rule 6: no
   top-level mutable state in the domain-shared core); so does its
   sentinel, because fleet machines run on different domains. *)

type t = {
  ops : (Hart.t -> unit) array;
      (* one closure per instruction, taking only the hart (so calls
         are direct one-argument indirect calls, never caml_apply).
         A closure that needs its own pc computes it as
         [hart.bpc + off], with [off] — its byte offset from the
         block entry — baked in at compile time and [bpc] maintained
         by the executor. Pure closures never write [pc] (the
         executor materializes [pc <- bpc + 4 i] only when something
         can observe it); control closures write the successor pc
         absolutely; memory and delegate closures run with [pc]
         accurate and advance it themselves, exactly as the
         interpreter would. *)
  pure_run : int array;
      (* [pure_run.(i)] = number of consecutive pure (register-only,
         non-trapping, hook-free) ops starting at [i]; the executor
         batches their per-step bookkeeping when interrupt timing
         provably cannot observe the difference *)
  cls : Bytes.t;
      (* executor class per op, driving how much of the interpreter's
         per-step ceremony can be skipped:
         0 pure     — register-only; cannot trap, store, or observe
                      counters
         1 control  — jal/jalr/branch; can only trap (misaligned
                      target), cannot store, halt, power off, or
                      change translation
         2 memory   — load/store/amo; can trap, invalidate blocks and
                      power off, but cannot change translation,
                      privilege or the vm-epoch
         3 delegate — everything else (csr, xret, wfi, fences,
                      ecall/ebreak); full interpreter semantics,
                      may change anything *)
  term_inert : bool;
      (* class of the last op is <= 2: after the block falls off its
         end, translation, privilege and the vm-epoch are provably
         unchanged since dispatch, so a chain within the same virtual
         page may reuse the dispatch-time fetch-page base *)
  whole : bool;
      (* the block is one pure run capped by a control terminator and
         short enough (<= 16 ops) to fit a full irq-stale window: the
         executor may run it as a single batch and, on a self-chain,
         stay in a register-resident loop (the shape of every tight
         guest loop) *)
}

let length b = Array.length b.ops

let words_per_page = 1024 (* 4 KiB / 4 *)

type page = {
  words : (Instr.t * int) option array;
      (* decoded instruction and raw bits per word of the page *)
  slots : t option array;  (* block starting at each word *)
  mutable live : int;  (* blocks in [slots] *)
}

type cache = {
  pages : page array;  (* per RAM page; [empty] until first decode *)
  empty : page;  (* cold sentinel, never written *)
  mutable populated : int list;  (* pages holding a real record *)
  mutable compiled : int;
  mutable invalidated : int;
  mutable dispatches : int;  (* block executions begun *)
  mutable block_instrs : int;  (* instructions retired inside blocks *)
  mutable interp_instrs : int;
      (* instructions retired by the engine's interpreter fallback
         (cold/undecodable first word, fetch-page-cache miss) *)
}

let new_page () =
  {
    words = Array.make words_per_page None;
    slots = Array.make words_per_page None;
    live = 0;
  }

let create ~words =
  let empty = new_page () in
  {
    pages = Array.make ((words + words_per_page - 1) / words_per_page) empty;
    empty;
    populated = [];
    compiled = 0;
    invalidated = 0;
    dispatches = 0;
    block_instrs = 0;
    interp_instrs = 0;
  }

let word c idx =
  Array.unsafe_get c.pages.(idx lsr 10).words (idx land (words_per_page - 1))

let lookup c idx =
  Array.unsafe_get
    (Array.unsafe_get c.pages (idx lsr 10)).slots
    (idx land (words_per_page - 1))

(* The page record for word [idx], built on first use. *)
let populate c idx =
  let pg = idx lsr 10 in
  let p = c.pages.(pg) in
  if p != c.empty then p
  else begin
    let p = new_page () in
    c.pages.(pg) <- p;
    c.populated <- pg :: c.populated;
    p
  end

let set_word c idx entry =
  (populate c idx).words.(idx land (words_per_page - 1)) <- Some entry

let insert c idx b =
  let p = c.pages.(idx lsr 10) in
  if p == c.empty then invalid_arg "Block.insert: cold page";
  p.slots.(idx land (words_per_page - 1)) <- Some b;
  p.live <- p.live + 1;
  c.compiled <- c.compiled + 1

(* A store hit word [idx]: drop the word and every block on its page.
   A page never decoded has nothing to drop and stays cold. *)
let invalidate_word c idx =
  let p = c.pages.(idx lsr 10) in
  if p != c.empty then begin
    p.words.(idx land (words_per_page - 1)) <- None;
    if p.live > 0 then begin
      Array.fill p.slots 0 words_per_page None;
      c.invalidated <- c.invalidated + p.live;
      p.live <- 0
    end
  end

let flush c =
  List.iter
    (fun pg ->
      c.invalidated <- c.invalidated + c.pages.(pg).live;
      c.pages.(pg) <- c.empty)
    c.populated;
  c.populated <- []

let populated_pages c = List.length c.populated

let note_dispatch c = c.dispatches <- c.dispatches + 1
let note_dispatches c n = c.dispatches <- c.dispatches + n
let note_block_instrs c n = c.block_instrs <- c.block_instrs + n
let note_interp_instr c = c.interp_instrs <- c.interp_instrs + 1

type stats = {
  compiled : int;
  invalidated : int;
  dispatches : int;
  block_instrs : int;
  interp_instrs : int;
}

let stats (c : cache) =
  {
    compiled = c.compiled;
    invalidated = c.invalidated;
    dispatches = c.dispatches;
    block_instrs = c.block_instrs;
    interp_instrs = c.interp_instrs;
  }

(* Hit rate over instructions executed by the block engine's entry
   point (block-retired / all engine-retired). *)
let hit_rate (c : cache) =
  let total = c.block_instrs + c.interp_instrs in
  if total = 0 then 0. else float_of_int c.block_instrs /. float_of_int total
