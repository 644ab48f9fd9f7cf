(** Buddy allocator over a contiguous physical region.

    The memory controller device uses one of these per DRAM bank to manage
    physical frames. Classic power-of-two buddy system: allocations are
    rounded to the next power-of-two page count; freeing coalesces with the
    buddy block whenever possible. *)

type t

val create : base:int64 -> pages:int -> t
(** [create ~base ~pages] manages [pages] 4-KiB frames starting at physical
    address [base]. [pages] must be a power of two and [base] page-aligned. *)

val alloc : t -> pages:int -> int64 option
(** [alloc t ~pages] returns the base physical address of a block covering
    at least [pages] frames, or [None] when no block fits. *)

val free : t -> addr:int64 -> pages:int -> unit
(** [free t ~addr ~pages] releases a block previously returned by [alloc]
    with the same (rounded) size.
    @raise Invalid_argument on double-free or a foreign address. *)

val free_pages : t -> int
val used_pages : t -> int

val largest_free_block : t -> int
(** Largest currently allocatable block, in pages (external-fragmentation
    indicator). *)

val check_invariants : t -> bool
(** Internal consistency: free lists disjoint, sizes accounted. Used by
    property tests. *)

val save : Lastcpu_sim.Snapshot.W.t -> t -> unit
(** Append the free sets and allocated-block table (checkpointing). *)

val restore : Lastcpu_sim.Snapshot.R.t -> t -> unit
(** Overwrite allocator state with state written by {!save}.
    @raise Invalid_argument if [base]/[pages] differ from the checkpoint.
    @raise Lastcpu_sim.Snapshot.R.Corrupt on malformed input. *)
