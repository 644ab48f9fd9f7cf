(** Set-associative translation lookaside buffer.

    Caches (pasid, virtual page) → (physical page, perm). The IOMMU
    consults it before walking page tables; the bus invalidates entries on
    unmap/revoke. LRU replacement within each set. *)

type t

type entry = { ppn : int64; perm : Proto_perm.t }

val create :
  ?sets:int ->
  ?ways:int ->
  ?metrics:Lastcpu_sim.Metrics.t ->
  ?actor:string ->
  unit ->
  t
(** Default geometry: 64 sets x 4 ways = 256 entries. [sets] must be a
    power of two. Counters register as [actor]/tlb_hits|tlb_misses|
    tlb_evictions in [metrics] (default: a private registry, actor
    ["tlb"]). *)

val lookup : t -> pasid:int -> vpn:int64 -> entry option
(** Updates LRU state on hit. *)

val probe : t -> pasid:int -> vpn:int -> int
(** Allocation-free [lookup] for the translate fast path: the physical
    page number on a (pasid, vpn) tag match, or [-1] on a miss. Counter
    and LRU effects are identical to [lookup] — a tag match counts as a
    hit even when the cached permissions turn out to be insufficient
    (read [probe_perm] to decide). *)

val probe_perm : t -> Proto_perm.t
(** Permissions of the most recent [probe] hit. Only meaningful directly
    after a non-negative [probe] return. *)

val replay_hits : t -> int -> unit
(** [replay_hits t k] accounts [k] further hits on the slot that the most
    recent [probe] hit or [insert] filled: hits, the LRU clock and that
    slot's LRU stamp end exactly as after [k] more [probe]s of its page.
    O(1); only meaningful directly after such a [probe] or [insert]. *)

val insert : t -> pasid:int -> vpn:int64 -> entry -> unit
val invalidate_page : t -> pasid:int -> vpn:int64 -> unit
val invalidate_pasid : t -> pasid:int -> unit
val invalidate_all : t -> unit

val hits : t -> int
val misses : t -> int
val evictions : t -> int
(** Valid entries displaced by [insert] for a different page. *)

val save : Lastcpu_sim.Snapshot.W.t -> t -> unit
(** Append the full slot array and LRU clock (checkpointing): replacement
    state is observable through future hit/miss counts. *)

val restore : Lastcpu_sim.Snapshot.R.t -> t -> unit
(** Overwrite the slots with state written by {!save}.
    @raise Invalid_argument if the geometry differs from the checkpoint.
    @raise Lastcpu_sim.Snapshot.R.Corrupt on malformed input. *)
