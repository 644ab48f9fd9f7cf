(** Raw NAND flash model.

    Geometry: [blocks] erase blocks of [pages_per_block] pages of
    [page_size] bytes. Semantics enforced: a page must be erased before it
    can be programmed, programming is page-at-once, erase is block-at-once,
    and each block tracks its erase count (wear). *)

type t

type geometry = { blocks : int; pages_per_block : int; page_size : int }

val create :
  ?geometry:geometry -> ?faults:Lastcpu_sim.Faults.t -> ?tag:string -> unit -> t
(** [faults] enables injected transient read failures and bit flips on
    programmed pages (a per-page CRC plays the role of on-die ECC, so a
    flip surfaces as an I/O error, not silent corruption). [tag] (default
    ["nand"]) namespaces this chip's fault-injection content keys; give
    each chip sharing one engine a distinct tag. *)

val geometry : t -> geometry

type page_state = Erased | Programmed

val page_state : t -> block:int -> page:int -> page_state

(** A read-only view of one page: its [page_size] bytes start at [off] in
    [bytes]. Each page position has one frame, allocated the first time
    the position is programmed with data and reused after every erase; a
    {!rewrite} moves a frame to a new position. So a view is a window on
    the chip's storage, not a copy.

    {b Lifetime.} A view is valid until the next program, {!erase_block}
    or {!restore} on this chip; after that it may show other bytes. Use
    it at once (decode or blit out of it) and never write through it. *)
type view = { bytes : Bytes.t; off : int }

val read_page : t -> block:int -> page:int -> (view, string) result
(** Counted, fault-injected read. Reading an erased page returns all-0xFF
    bytes (as real NAND does). *)

val zero_page : t -> view
(** The chip's one all-zero page, shared by every zero-filled page and by
    the FTL's unmapped reads. *)

val peek_page : t -> block:int -> page:int -> view
(** The stored page, uncounted and never faulted: a host-side look at
    bytes the model has already read (the FS block cache, the FTL's
    read-modify-write). The coordinates must be in range. *)

val program_with :
  t -> block:int -> page:int -> (Bytes.t -> int -> unit) -> (unit, string) result
(** [program_with t ~block ~page fill] programs an erased page in place:
    [fill buf off] must write all [page_size] bytes at [off] in [buf]
    (the page's frame). Fails if the page is not erased. *)

val program_zeroes : t -> block:int -> page:int -> (unit, string) result
(** Program an erased page with all-zero bytes. It touches no frame: its
    reads share the chip's one zero page. *)

val rewrite :
  t ->
  block:int ->
  page:int ->
  src_block:int ->
  src_page:int ->
  (Bytes.t -> int -> unit) ->
  (unit, string) result
(** [rewrite t ~block ~page ~src_block ~src_page f] programs the erased
    page with the programmed source page's bytes edited in place by
    [f buf off], as {!program_with}. The bytes move, not copy: the new
    page takes over the source's frame, and the source is left as
    {!discard} leaves it (programmed, reading as {!zero_page}). A zero
    source gives a page of zeroes to edit. It counts one program and no
    read. Fails if the page is not erased or the source not programmed;
    the source is then untouched. *)

val program_page : t -> block:int -> page:int -> string -> (unit, string) result
(** {!program_with} a blit of [data]. Fails if the page is not erased or
    data exceeds the page size (short data is padded with 0xFF). *)

val discard : t -> block:int -> page:int -> unit
(** Drop a programmed page's bytes: it stays programmed, so a program to
    it still fails until its block is erased, but it reads as
    {!zero_page} and a checkpoint carries no bytes for it. The FTL calls
    this on every page it supersedes, which no reader looks at again. An
    erased page is left as it is; the coordinates must be in range. *)

val erase_block : t -> block:int -> (unit, string) result
val erase_count : t -> block:int -> int
val total_erases : t -> int
val reads : t -> int
val programs : t -> int

val busy_ns : t -> int64
(** Virtual time of every read, program and erase this array has done, at
    the {!Lastcpu_sim.Costs} flash constants. The NAND time of a span of
    work is the difference of two readings. *)

val save : Lastcpu_sim.Snapshot.W.t -> t -> unit
(** Append programmed pages (sparsely), wear and op counters
    (checkpointing). A page that shares {!zero_page} (zero-filled or
    {!discard}ed) is written as its index and length 0, with no bytes,
    and restores as a programmed zero page. Every other page is
    {!Lastcpu_sim.Snapshot.W.borrow}ed from its frame with its cached
    CRC, which this fills: the chip must not be programmed, erased or
    restored until the save returns. Page CRCs are recomputed on restore.
    The frames are covered here: this is the only copy of the page bytes
    a checkpoint holds. *)

val restore : Lastcpu_sim.Snapshot.R.t -> t -> unit
(** Overwrite the array contents with state written by {!save}: a page
    with length 0 comes back programmed, reading as zeroes. The whole
    section is decoded and checked first, so on an exception the chip is
    left as it was; on success it ends the lifetime of every outstanding
    {!view}.
    @raise Invalid_argument if the geometry differs from the checkpoint.
    @raise Lastcpu_sim.Snapshot.R.Corrupt on malformed input, including a
    page index out of range or a page length other than 0 and
    [page_size]. *)
