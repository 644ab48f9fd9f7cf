(** A device's DMA view of memory: every access is translated by that
    device's IOMMU for a given PASID before touching simulated DRAM.

    This is the only way devices read or write memory in the emulation, so
    isolation violations are structurally impossible to express — exactly
    the property §2.2 assigns to the IOMMU. *)

exception Dma_fault of Lastcpu_iommu.Iommu.fault

type t

val create :
  iommu:Lastcpu_iommu.Iommu.t ->
  pasid:int ->
  mem:Lastcpu_mem.Physmem.t ->
  t

val pasid : t -> int

(** {2 Fields and ring transactions}

    Each call below is one DMA transaction: one
    {!Lastcpu_iommu.Iommu.translate_run} per page segment, then one
    little-endian Physmem access per field. The modelled accounting is
    byte-exact: a transaction of [n] bytes counts as [n] byte-translations
    in address order (translations, TLB hits/misses, walks, the LRU state
    and faults all end as if each byte were translated on its own). A
    transaction that crosses a page is split there, each segment its own
    run; a fault on the second page raises {!Dma_fault} after the first
    page's bytes were written. Values are little-endian and unsigned. *)

val read_u8 : t -> int64 -> int
val write_u8 : t -> int64 -> int -> unit
val read_u16 : t -> int64 -> int
val write_u16 : t -> int64 -> int -> unit
val read_u32 : t -> int64 -> int
val write_u32 : t -> int64 -> int -> unit
val read_u64 : t -> int64 -> int64
val write_u64 : t -> int64 -> int64 -> unit

(** The ring path takes native-int virtual addresses, so no boxed address
    is built per access (simulated VAs are far below 2^62). *)

val read_field : t -> int -> int -> int
(** [read_field t vai n]: the [n] = 1, 2 or 4 byte field at [vai]. *)

val write_field : t -> int -> int -> int -> unit
val read_field64 : t -> int -> int64
val write_field64 : t -> int -> int64 -> unit

val read_desc : t -> int -> int64 * int * int * int
(** The 16-byte virtqueue descriptor at [vai] as one transaction:
    [(addr, len, flags, next)], laid out addr u64 | len u32 | flags u16 |
    next u16. *)

val write_desc :
  t -> int -> addr:int64 -> len:int -> flags:int -> next:int -> unit

val read_pair32 : t -> int -> int * int
(** Two consecutive u32 fields (a used-ring element: id, len) as one 8-byte
    transaction. *)

val write_pair32 : t -> int -> int -> int -> unit

(** {2 Byte ranges} *)

val read_bytes : t -> int64 -> int -> string
val write_bytes : t -> int64 -> string -> unit

val read_into : t -> int64 -> Bytes.t -> pos:int -> len:int -> unit
(** [read_bytes] into a caller-provided buffer (no result allocation). *)

val write_string_sub : t -> int64 -> string -> pos:int -> len:int -> unit
val write_bytes_sub : t -> int64 -> Bytes.t -> pos:int -> len:int -> unit
(** Write a slice of the argument without carving an intermediate string. *)

val map_single :
  t ->
  va:int64 ->
  len:int ->
  perm:Lastcpu_iommu.Iommu.access ->
  Lastcpu_mem.Physmem.view option
(** DMI-style direct grant: a window straight onto backing DRAM for
    [va, va+len), when that range lies inside one IOMMU page. The probe is
    exactly the one translation the copying path would spend (IOMMU/TLB
    counters feed golden digests — the fast path may only change host
    time), then returns the cached view if the translation is unchanged,
    or rebuilds it. Multi-page ranges return [None] without touching the
    IOMMU, so the caller's copy-path fallback remains the only translation
    pass. Raises {!Dma_fault} exactly where [read_bytes]/[write_bytes]
    would.

    Grants are dropped whenever this PASID's mappings shrink (IOMMU unmap,
    PASID teardown, capability revocation, quarantine — all funnel through
    {!Lastcpu_iommu.Iommu.on_invalidate}); do not hold a view across
    events, re-request it per access instead (hits are cheap). *)

val dmi_hits : t -> int
(** Direct-map grants served from cache (host-perf observability; not
    modeled state, so deliberately absent from snapshots). *)

val dmi_invalidations : t -> int
(** Cached grants dropped by mapping-change notifications. *)
