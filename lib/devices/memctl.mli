(** The memory controller device.

    The paper's discrete memory controller (§2.4, "similar to Intel's
    Memory Controller Hub"): it owns physical-memory allocation *policy* —
    per-application allocation tables over a buddy allocator — while the
    bus owns the *mechanism* of installing mappings.

    Protocol (Fig. 2 steps 5-6): on [Alloc_request] it allocates frames,
    mints a capability token over the physical range, instructs the bus
    with a [Map_directive] to program the requester's IOMMU, and only then
    answers [Alloc_response] carrying the token (so the requester can later
    [Grant_request] the region onward — step 7). *)

type t

val create :
  Lastcpu_bus.Sysbus.t ->
  mem:Lastcpu_mem.Physmem.t ->
  ?name:string ->
  ?dram_base:int64 ->
  ?dram_pages:int ->
  ?quota_pages:int ->
  unit ->
  t
(** Attaches the device, registers it as the controller of resource "dram"
    and starts it. Default pool: 65536 pages (256 MiB) at 0x1000_0000.
    [quota_pages] caps any single address space's allocation (resource
    management policy lives here, on the controller — §2.2); default
    unlimited. *)

val quota_pages : t -> int option
val pages_of : t -> pasid:int -> int
(** Pages currently charged to an address space. *)

val device : t -> Lastcpu_device.Device.t
val id : t -> Lastcpu_proto.Types.device_id

val free_pages : t -> int
val used_pages : t -> int

val allocations_of : t -> pasid:int -> (int64 * int64) list
(** [(va, bytes)] currently held by an address space. *)

