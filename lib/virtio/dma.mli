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

val read_u8 : t -> int64 -> int
val write_u8 : t -> int64 -> int -> unit
val read_u16 : t -> int64 -> int
val write_u16 : t -> int64 -> int -> unit
val read_u32 : t -> int64 -> int
val write_u32 : t -> int64 -> int -> unit
val read_u64 : t -> int64 -> int64
val write_u64 : t -> int64 -> int64 -> unit
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
