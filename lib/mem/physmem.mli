(** Simulated physical memory (DRAM).

    Sparse byte store on [Bigarray] chunk backing: frames (4 KiB) are
    materialised on first write so multi-GiB address spaces cost only what
    is touched. All device DMA in the emulation lands here (after IOMMU
    translation). The chunk granularity exists so {!view} can hand out
    real sub-arrays over the backing store — the zero-copy data plane
    ([Dma.map_single], NAND page I/O, codec slices) is built on those
    views. *)

type t

type view =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t
(** A window directly over backing DRAM: writes through it are real
    memory writes (no copy, no further bookkeeping). See DESIGN.md §14
    for the lifetime rules. *)

val create : ?size:int64 -> unit -> t
(** [create ~size ()] models [size] bytes of DRAM (default 1 GiB). Accesses
    beyond [size] raise [Invalid_argument]. *)

val size : t -> int64

(** Native-int physical addresses, for the DMA ring path where a boxed
    address per access would dominate. Physical addresses fit a native
    int (DRAM is well under 2^62 bytes). Each call is one Bigarray access;
    the field must lie inside one 64 KiB backing chunk, which any field
    inside one page does, else [Invalid_argument]. *)

val read_field : t -> int -> int -> int
(** [read_field t pa n] is the little-endian unsigned field of [n] = 1, 2
    or 4 bytes at [pa]. *)

val write_field : t -> int -> int -> int -> unit
(** [write_field t pa n v] stores the low [n] = 1, 2 or 4 bytes of [v] at
    [pa], little-endian. *)

val read_field64 : t -> int -> int64
val write_field64 : t -> int -> int64 -> unit
(** The 8-byte little-endian field at [pa], all 64 bits. *)

val read_bytes : t -> int64 -> int -> string
val write_bytes : t -> int64 -> string -> unit

val read_into : t -> int64 -> Bytes.t -> pos:int -> len:int -> unit
(** [read_into t addr buf ~pos ~len] copies DRAM into a caller-provided
    buffer — [read_bytes] without the result allocation. *)

val write_bytes_sub : t -> int64 -> Bytes.t -> pos:int -> len:int -> unit
(** Write a slice of [b] without first carving it into a string. *)

val write_string_sub : t -> int64 -> string -> pos:int -> len:int -> unit
(** Write a slice of [s] without first carving it into a fresh string. *)

val fill : t -> int64 -> int -> char -> unit

val view : t -> int64 -> int -> view
(** [view t addr len] is a window straight onto backing DRAM. The range
    must lie within one backing chunk (64 KiB, so any naturally aligned
    4 KiB page qualifies) or [Invalid_argument] is raised. The frames
    under the view join the touched set immediately: a view is a
    write-capable surface, and bytes written through it must be visible
    to {!save}. *)

val touched_frames : t -> int
(** Number of frames materialised so far (memory-footprint metric). *)

val save : Lastcpu_sim.Snapshot.W.t -> t -> unit
(** Append every touched frame, sparsely (checkpointing). The byte format
    is unchanged from the pre-Bigarray implementation: old checkpoints
    restore, new checkpoints replay under old readers. *)

val restore : Lastcpu_sim.Snapshot.R.t -> t -> unit
(** Replace the frame store with state written by {!save}.
    @raise Invalid_argument if the DRAM size differs from the checkpoint.
    @raise Lastcpu_sim.Snapshot.R.Corrupt on malformed input. *)
