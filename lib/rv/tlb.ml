(* Per-hart direct-mapped software TLB.

   Each slot caches one 4 KiB translation: the physical page base, and
   a per-access-kind validity mask that folds together the leaf PTE
   permissions (including A/D state), the SUM/MXR context the walk ran
   under, and the page-wide PMP verdict for the containing region.  A
   hit therefore answers translation *and* protection in a handful of
   integer compares with zero allocation; anything the mask cannot
   prove (permission miss, D-bit not yet set, PMP region not
   page-uniform) simply misses and takes the full walk.

   Slots are packed into plain [int array]s — OCaml unboxes those, so
   lookups never touch the heap (an [int64 array] would box on read in
   generic contexts and cost a write barrier on install).

   Invalidation has two tiers:
   - explicit flushes: [sfence.vma] (global or per-address) and
     checkpoint restore call [flush]/[flush_page] directly;
   - epoch sync: [Csr_file] bumps a vm-epoch counter on every write to
     satp, the PMP registers, or the mstatus VM-relevant bits
     (MPRV/SUM/MXR), whatever code path performed the write.  Callers
     pass the current epoch to [sync_epoch] before looking up; a stale
     epoch empties the TLB.  Routing invalidation through the CSR file
     means a world switch that installs satp with [write_raw] cannot
     leave stale translations behind.

   Superpages are cached fractured: the walker returns the physical
   page for the exact 4 KiB vpage accessed, and that is what we
   install, so per-address sfence semantics need no range logic.

   A separate single-entry fetch-page cache maps the current fetch
   vpage to the RAM word index of its physical page start (the decode
   cache's key: page [base lsr 10], word [base land 1023] = 0),
   letting straight-line fetches skip even the TLB probe.  It obeys
   the same two invalidation tiers. *)

type t = {
  size : int; (* number of slots; 0 disables the TLB entirely *)
  mask : int;
  tags : int array; (* (vpn lsl 3) lor (priv lsl 1) lor 1; 0 = empty *)
  flags : int array; (* kind mask: bit0 load, bit1 store, bit2 fetch *)
  pbase : int array; (* physical page base (low 12 bits clear) *)
  mutable epoch : int;
  mutable fetch_tag : int; (* same tag encoding; 0 = invalid *)
  mutable fetch_base : int; (* RAM word index of the page start *)
  mutable hits : int;
  mutable misses : int;
  mutable flushes : int;
}

let load_bit = 1
let store_bit = 2
let fetch_bit = 4

let kind_bit (access : Vmem.access) =
  match access with
  | Vmem.Load -> load_bit
  | Vmem.Store -> store_bit
  | Vmem.Fetch -> fetch_bit

let create ~entries =
  let size =
    if entries <= 0 then 0
    else begin
      let s = ref 1 in
      while !s < entries do
        s := !s lsl 1
      done;
      !s
    end
  in
  let n = max size 1 in
  {
    size;
    (* size = 0 keeps one permanently-empty slot; clamping the mask to
       0 makes every probe hit that slot and miss *)
    mask = max (size - 1) 0;
    tags = Array.make n 0;
    flags = Array.make n 0;
    pbase = Array.make n 0;
    epoch = 0;
    fetch_tag = 0;
    fetch_base = 0;
    hits = 0;
    misses = 0;
    flushes = 0;
  }

let entries t = t.size
let hits t = t.hits
let misses t = t.misses
let flushes t = t.flushes

let reset_counters t =
  t.hits <- 0;
  t.misses <- 0;
  t.flushes <- 0

let flush t =
  Array.fill t.tags 0 (Array.length t.tags) 0;
  t.fetch_tag <- 0;
  t.flushes <- t.flushes + 1

(* Per-address invalidation drops the slot for [vaddr]'s vpage in every
   privilege (the tag priv bits are ignored on purpose: sfence.vma has
   no privilege operand). *)
let flush_page t vaddr =
  let vpn = Int64.to_int (Int64.shift_right_logical vaddr 12) in
  let i = vpn land t.mask in
  if t.tags.(i) lsr 3 = vpn then t.tags.(i) <- 0;
  if t.fetch_tag lsr 3 = vpn then t.fetch_tag <- 0;
  t.flushes <- t.flushes + 1

(* Lazy invalidation: the CSR file bumps its vm-epoch on satp/PMP/
   mstatus-VM writes; a mismatch here empties the cache. *)
let sync_epoch t epoch =
  if t.epoch <> epoch then begin
    t.epoch <- epoch;
    flush t
  end

let tag ~priv vpn = (vpn lsl 3) lor (Priv.to_int priv lsl 1) lor 1

(* Returns the cached physical page base for [vaddr], or -1 when the
   slot cannot serve this access (empty, wrong page/priv, or the kind
   mask cannot prove permission + PMP for [access]). *)
let lookup t ~priv access vaddr =
  let vpn = Int64.to_int (Int64.shift_right_logical vaddr 12) in
  let i = vpn land t.mask in
  if t.tags.(i) = tag ~priv vpn && t.flags.(i) land kind_bit access <> 0
  then begin
    t.hits <- t.hits + 1;
    t.pbase.(i)
  end
  else begin
    t.misses <- t.misses + 1;
    -1
  end

(* Install the result of a successful walk + PMP check.  [pte] is the
   leaf PTE *after* the hardware A/D update; [pmp_r/w/x] are the
   page-wide PMP verdicts for the physical page.  A kind is marked
   valid only when the PTE permission, the privilege/SUM/MXR context,
   the D bit (for stores), and the page-wide PMP verdict all hold — so
   a Store through a Load-installed entry misses and re-walks once to
   set D (A/D promotion), and a page straddling a PMP boundary is
   simply never cached. *)
let install t ~priv ~vaddr ~phys ~pte ~sum ~mxr ~pmp_r ~pmp_w ~pmp_x =
  if t.size <> 0 then begin
    let has bit = Int64.logand pte bit <> 0L in
    let r = has Vmem.pte_r
    and w = has Vmem.pte_w
    and x = has Vmem.pte_x
    and u = has Vmem.pte_u
    and d = has Vmem.pte_d in
    let data_priv_ok = if priv = Priv.U then u else (not u) || sum in
    let fetch_priv_ok = if priv = Priv.U then u else not u in
    let load_ok = (r || (mxr && x)) && data_priv_ok && pmp_r in
    let store_ok = w && data_priv_ok && d && pmp_w in
    let fetch_ok = x && fetch_priv_ok && pmp_x in
    let flags =
      (if load_ok then load_bit else 0)
      lor (if store_ok then store_bit else 0)
      lor if fetch_ok then fetch_bit else 0
    in
    if flags <> 0 then begin
      let vpn = Int64.to_int (Int64.shift_right_logical vaddr 12) in
      let i = vpn land t.mask in
      t.tags.(i) <- tag ~priv vpn;
      t.flags.(i) <- flags;
      t.pbase.(i) <- Int64.to_int (Int64.logand phys (Int64.lognot 0xFFFL))
    end
  end

(* Enumerate the valid slots (for the schedule explorer's cross-hart
   sfence-coherence oracle, which re-walks every cached translation
   and compares page bases). Decoding the packed tag is the inverse of
   [tag]; priv encoding 2 is unused, so [Priv.of_int] cannot fail on a
   valid slot. *)
let iter_valid t f =
  for i = 0 to Array.length t.tags - 1 do
    let tg = t.tags.(i) in
    if tg land 1 = 1 then
      match Priv.of_int ((tg lsr 1) land 3) with
      | Some priv ->
          f ~vpn:(tg lsr 3) ~priv
            ~loads:(t.flags.(i) land load_bit <> 0)
            ~stores:(t.flags.(i) land store_bit <> 0)
            ~fetches:(t.flags.(i) land fetch_bit <> 0)
            ~pbase:t.pbase.(i)
      | None -> ()
  done

(* ------------------------------------------------------------------ *)
(* Fetch-page cache                                                    *)
(* ------------------------------------------------------------------ *)

let fetch_lookup t ~priv pc =
  let vpn = Int64.to_int (Int64.shift_right_logical pc 12) in
  if t.fetch_tag = tag ~priv vpn then begin
    t.hits <- t.hits + 1;
    t.fetch_base
  end
  else -1

let fetch_install t ~priv pc ~base =
  if t.size <> 0 then begin
    let vpn = Int64.to_int (Int64.shift_right_logical pc 12) in
    t.fetch_tag <- tag ~priv vpn;
    t.fetch_base <- base
  end
