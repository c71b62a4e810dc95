(** Per-hart direct-mapped software TLB and fetch-page cache.

    Each slot caches one 4 KiB translation — physical page base plus a
    per-access-kind validity mask folding together the leaf PTE
    permissions (including the D bit for stores), the privilege /
    SUM / MXR context the walk ran under, and the page-wide PMP
    verdict for the containing region — so a hit answers translation
    *and* protection in a handful of integer compares with zero
    allocation. Superpages are cached fractured (one slot per 4 KiB
    vpage actually touched), which keeps per-address [sfence.vma]
    exact.

    Invalidation is two-tier: explicit ({!flush} / {!flush_page}, from
    [sfence.vma] and checkpoint restore) and lazy ({!sync_epoch}
    against {!Csr_file.vm_epoch}, which covers satp/PMP/mstatus-VM
    writes on every write path, including raw world-switch
    installs). *)

type t

val create : entries:int -> t
(** [entries] is rounded up to a power of two; [0] disables the TLB
    (every lookup misses, installs are dropped). *)

val entries : t -> int
val hits : t -> int
val misses : t -> int
val flushes : t -> int
val reset_counters : t -> unit

val flush : t -> unit
(** Drop every slot and the fetch-page cache. *)

val flush_page : t -> int64 -> unit
(** Drop any slot caching the given virtual address's page, in every
    privilege (per-address [sfence.vma]). *)

val sync_epoch : t -> int -> unit
(** Flush iff the given vm-epoch differs from the last one seen. *)

val lookup : t -> priv:Priv.t -> Vmem.access -> int64 -> int
(** Physical page base for the access, or [-1] when the cache cannot
    serve it (counts a hit or a miss accordingly). *)

val install :
  t ->
  priv:Priv.t ->
  vaddr:int64 ->
  phys:int64 ->
  pte:int64 ->
  sum:bool ->
  mxr:bool ->
  pmp_r:bool ->
  pmp_w:bool ->
  pmp_x:bool ->
  unit
(** Install the result of a successful walk + PMP check. [pte] is the
    leaf PTE after the A/D update; [pmp_r]/[pmp_w]/[pmp_x] are
    page-wide PMP verdicts. Kinds whose permission, context, D-bit, or
    PMP verdict do not hold are left invalid, so e.g. a store through
    a load-installed entry misses and re-walks once to set D. *)

val iter_valid :
  t ->
  (vpn:int ->
  priv:Priv.t ->
  loads:bool ->
  stores:bool ->
  fetches:bool ->
  pbase:int ->
  unit) ->
  unit
(** Enumerate the valid slots: virtual page number, the privilege the
    walk ran under, which access kinds the entry can serve, and the
    cached physical page base. Used by the schedule explorer's
    sfence-coherence oracle to re-walk every cached translation. *)

val fetch_lookup : t -> priv:Priv.t -> int64 -> int
(** RAM word index of the cached fetch page's start (the decode-cache
    key of its first word), or [-1]. *)

val fetch_install : t -> priv:Priv.t -> int64 -> base:int -> unit
