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
    page's bytes were written. Values are little-endian and unsigned.
    Addresses are native ints, so no boxed address is built per access
    (simulated VAs are far below 2^62). *)

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

(** {2 Byte ranges}

    The copy path: one translation per page segment. *)

val read_bytes : t -> int64 -> int -> string
val write_bytes : t -> int64 -> string -> unit

val map_single :
  t ->
  va:int64 ->
  len:int ->
  perm:Lastcpu_iommu.Iommu.access ->
  Lastcpu_mem.Physmem.view option
(** The zero-copy path: a view straight onto the DRAM behind
    [va, va+len), when that range lies inside one IOMMU page. It spends
    exactly the one translation the copy path would (IOMMU/TLB counters
    feed golden digests, so the view may only change host time), and is
    built afresh on every call. Multi-page ranges return [None] without
    touching the IOMMU, so the caller's copy-path fallback remains the
    only translation pass. Raises {!Dma_fault} exactly where
    [read_bytes]/[write_bytes] would.

    A view is valid for the call that made it: do not hold one across
    events (an unmap, a PASID teardown or a DRAM restore may move what
    the address names), re-request it per access instead. *)
