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

val read_page : t -> block:int -> page:int -> (string, string) result
(** Reading an erased page returns all-0xFF bytes (as real NAND does). *)

val program_page : t -> block:int -> page:int -> string -> (unit, string) result
(** Fails if the page is not erased or data exceeds the page size (short
    data is padded with 0xFF). *)

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
    (checkpointing). Page CRCs are recomputed on restore. *)

val restore : Lastcpu_sim.Snapshot.R.t -> t -> unit
(** Overwrite the array contents with state written by {!save}.
    @raise Invalid_argument if the geometry differs from the checkpoint.
    @raise Lastcpu_sim.Snapshot.R.Corrupt on malformed input. *)
