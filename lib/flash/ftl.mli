(** Page-mapped flash translation layer.

    Presents a logical block device (read/write 4 KiB logical pages) over
    raw NAND: out-of-place writes, invalidation of superseded pages,
    greedy-with-wear-awareness garbage collection, and write-amplification
    accounting. This is the "smart" in the smart SSD: it runs on the device
    itself, with no host involvement — a concrete instance of the paper's
    self-managed device resource (§2.1). *)

type t

val create :
  ?nand:Nand.t ->
  ?op_ratio:float ->
  ?metrics:Lastcpu_sim.Metrics.t ->
  ?actor:string ->
  unit ->
  t
(** [op_ratio] is over-provisioning: the fraction of physical blocks
    reserved beyond the exported logical capacity (default 0.125).
    Telemetry (host_writes, gc_moves, gc_runs, free_blocks gauge)
    registers under [actor] (default ["ftl"]) in [metrics] (default: a
    private registry). *)

val logical_pages : t -> int
(** Number of addressable logical pages. *)

val page_size : t -> int

(** Reads return a {!Nand.view}, valid until the next write, update, GC
    (any write may run one) or restore on this FTL; see {!Nand.view}. *)

val read : t -> lpn:int -> (Nand.view, string) result
(** Counted NAND read. Unwritten logical pages read as zeroes. *)

val peek : t -> lpn:int -> Nand.view
(** The current contents of an in-range [lpn], without a NAND read
    ({!Nand.peek_page}): for bytes the caller has already read once. *)

val write : t -> lpn:int -> string -> (unit, string) result
(** Out-of-place write of [data] (short data is padded with 0xFF);
    triggers GC when free blocks run low. *)

val write_zeroes : t -> lpn:int -> (unit, string) result
(** Out-of-place write of an all-zero page ({!Nand.program_zeroes}). *)

val update : t -> lpn:int -> (Bytes.t -> int -> unit) -> (unit, string) result
(** Read-modify-write: GC runs first, then the new page takes over
    [lpn]'s current page's bytes ({!Nand.rewrite}: a move, not a copy;
    zeroes if unwritten) and [f buf off] edits them in place, at [off] in
    [buf]. The superseded page reads as zeroes, as after any write. The
    move is host-side and uncounted: read the page through {!read} first
    when the read is part of the model. *)

val trim : t -> lpn:int -> unit
(** Drop the mapping (logical delete). *)

(** Accounting: *)

val gc_runs : t -> int
val moved_pages : t -> int
(** Valid pages relocated by GC. *)

val host_writes : t -> int

val write_amplification : t -> float
(** (host writes + GC moves) / host writes; [1.0] when no GC has run. *)

val max_erase_skew : t -> int
(** Difference between max and min per-block erase counts (wear-leveling
    quality). *)

val nand : t -> Nand.t

val save : Lastcpu_sim.Snapshot.W.t -> t -> unit
(** Append the translation state — map, page states, free list (in order;
    wear leveling depends on it), active block (checkpointing). The NAND
    underneath is saved separately by its owner. *)

val restore : Lastcpu_sim.Snapshot.R.t -> t -> unit
(** Overwrite the translation state with state written by {!save}.
    @raise Invalid_argument if the logical size differs from the checkpoint.
    @raise Lastcpu_sim.Snapshot.R.Corrupt on malformed input, including
    out-of-range or inconsistent map entries, page states, per-block
    counts, active block or free list; [t] is then left unchanged. *)
