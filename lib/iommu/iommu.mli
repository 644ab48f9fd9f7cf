(** The per-device IOMMU unit.

    Gates every memory access a device makes. Holds one page table per
    PASID (application address space, §2.3), a TLB, and a fault hook: the
    paper's error model (§4) delivers translation faults to the *attached
    device*, which must handle them itself.

    Only the privileged system bus calls [map]/[unmap] — devices have no
    handle on their own IOMMU (enforced structurally: the device framework
    never exposes it). *)

type t

type access = Read | Write | Exec

type fault = {
  pasid : int;
  va : int64;
  access : access;
  reason : fault_reason;
}

and fault_reason = Not_mapped | Protection

type translate_result = Ok_pa of int64 | Fault of fault

val create :
  ?tlb_sets:int ->
  ?tlb_ways:int ->
  ?no_tlb:bool ->
  ?metrics:Lastcpu_sim.Metrics.t ->
  ?actor:string ->
  unit ->
  t
(** [no_tlb:true] bypasses the TLB entirely (ablation for T5). Counters
    register under [actor] (default ["iommu"]) in [metrics] (default: a
    private registry, for units created outside an engine context). *)

val attach_fault_handler : t -> (fault -> unit) -> unit
(** The attached device's fault queue. At most one handler. *)

val add_fault_observer : t -> (fault -> unit) -> unit
(** Additional read-only fault taps, run after the handler in registration
    order. The bus's quarantine scorer listens here: an out-of-grant DMA is
    evidence of misbehavior, but the device's own fault queue stays the
    single handler. Observers are closures and are re-attached on rebuild,
    like the handler. *)

val map :
  t -> pasid:int -> va:int64 -> pa:int64 -> bytes:int64 -> perm:Proto_perm.t ->
  (unit, string) result
(** Privileged: program a contiguous mapping. Creates the PASID's table on
    first use. *)

val unmap : t -> pasid:int -> va:int64 -> bytes:int64 -> int
(** Privileged: remove mappings and invalidate the TLB. Returns pages
    removed. *)

val clear_pasid : t -> pasid:int -> unit
(** Tear down an entire address space (application teardown). *)

val translate : t -> pasid:int -> va:int64 -> access:access -> translate_result
(** Translate one access; on fault, the fault handler (if any) runs before
    this returns. *)

val translate_pa : t -> pasid:int -> vai:int -> access:access -> int
(** Allocation-free [translate]: native-int virtual address in, physical
    address out, or [-1] on a fault (read {!last_fault} for the record;
    handlers have already run). Identical counter and fault-delivery
    effects to [translate] — it is the same code path. *)

val translate_run : t -> pasid:int -> vai:int -> n:int -> access:access -> int
(** One DMA transaction over the [n] bytes at [vai], which must lie in one
    page: the physical address of [vai], or [-1] on a fault, as
    {!translate_pa}. The run is accounted exactly as [n] [translate_pa]
    calls on its bytes in address order. The first byte is translated for
    real; after it succeeds the other [n-1] cannot fault, and are replayed
    in O(1) with a TLB (translations, TLB hits, the LRU clock and the hit
    slot's stamp) or walked again without one.
    @raise Invalid_argument if [n < 1] or the run crosses a page. *)

val last_fault : t -> fault
(** The fault behind the most recent [-1] from [translate_pa] or
    [translate_run].
    @raise Invalid_argument if no fault was ever delivered. *)

val pasids : t -> int list
val mapped_pages : t -> pasid:int -> int

val probe : t -> pasid:int -> va:int64 -> int64 option
(** Side-effect-free translation probe: no TLB fill, no counters, no fault
    delivery. Containment assertions use it to ask whether a PASID can
    reach a physical address without perturbing any digest. *)

val iter_mappings : t -> pasid:int -> (va:int64 -> pa:int64 -> unit) -> unit
(** Enumerate current translations of one address space in deterministic
    (trie index = ascending VA) order. Side-effect-free, like {!probe};
    the fuzzer walks these to prove a rogue device's IOMMU never acquired
    a path into another tenant's frames. *)

(** Counters for the cost model and T5: *)

val tlb_hits : t -> int
val tlb_misses : t -> int
val tlb_evictions : t -> int
val translations : t -> int
(** Total [translate] calls (TLB hits + misses + no-TLB walks). *)

val walks : t -> int
(** Completed page-table walks (== TLB misses that found a mapping, plus
    walks with no TLB). *)

val walk_levels : t -> int
(** Total levels touched across all walks (each full walk adds 4). *)

val faults : t -> int

val save : Lastcpu_sim.Snapshot.W.t -> t -> unit
(** Append all per-PASID mappings and the TLB state (checkpointing).
    Counters live in the shared Metrics registry and restore there; the
    fault handler is re-attached by the rebuilt device. *)

val restore : Lastcpu_sim.Snapshot.R.t -> t -> unit
(** Overwrite tables and TLB with state written by {!save}.
    @raise Invalid_argument if TLB presence/geometry differs.
    @raise Lastcpu_sim.Snapshot.R.Corrupt on malformed input. *)
