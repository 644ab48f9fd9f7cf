(** Binary wire primitives for the bus protocol codec and the app
    protocols.

    Little-endian fixed ints, LEB128 varints, length-prefixed strings and
    lists. One field codec serves frames and checkpoints: {!Writer} and
    {!Reader} are {!Lastcpu_sim.Snapshot.W} and {!Lastcpu_sim.Snapshot.R},
    and the slice cursors here follow the same layout and count rule.
    Decoding failures raise [Malformed]. *)

exception Malformed of string
(** Bound to the snapshot reader's {!Lastcpu_sim.Snapshot.R.Corrupt}: one
    exception for every decoding failure, so a [Malformed] handler also
    catches every failure of {!Reader}. *)

(** The shared shape of the write targets ({!Writer}, {!View_writer},
    {!Sizer}): a codec functorized over [SINK] defines its byte layout
    once and gets the copying, zero-copy and sizing encoders for free. *)
module type SINK = sig
  type t

  val byte : t -> int -> unit
  val varint : t -> int -> unit
  val int64 : t -> int64 -> unit
  val string : t -> string -> unit
  val bool : t -> bool -> unit
  val list : t -> (t -> 'a -> unit) -> 'a list -> unit
  val option : t -> (t -> 'a -> unit) -> 'a option -> unit
end

(** The shared shape of the read cursors ({!Reader}, {!View_reader}). *)
module type SOURCE = sig
  type t

  val byte : t -> int
  val varint : t -> int
  val int64 : t -> int64
  val string : t -> string
  val bool : t -> bool
  val list : t -> (t -> 'a) -> 'a list
  val option : t -> (t -> 'a) -> 'a option
  val at_end : t -> bool
end

module Writer = Lastcpu_sim.Snapshot.W
(** The growable-buffer writer: the snapshot field writer itself. *)

module Reader = Lastcpu_sim.Snapshot.R
(** The string cursor: the snapshot field reader itself. Every failure,
    including a length or count that is negative or runs past the bytes
    left, raises [Malformed]. *)

val decode : (Reader.t -> 'a) -> string -> ('a, string) result
(** [decode f s] runs [f] over a reader on [s]; [Malformed reason]
    becomes [Error reason]. Trailing bytes are not checked. *)

(** Byte counter with {!Writer}'s encoding signature: drive the same
    encode logic through it and {!Sizer.size} is the encoded length — no
    buffer, no bytes materialised. *)
module Sizer : sig
  type t

  val create : unit -> t
  val byte : t -> int -> unit
  val varint : t -> int -> unit
  val int64 : t -> int64 -> unit
  val string : t -> string -> unit
  val bool : t -> bool -> unit
  val list : t -> (t -> 'a -> unit) -> 'a list -> unit
  val option : t -> (t -> 'a -> unit) -> 'a option -> unit
  val size : t -> int
end

(** Cursor writing into a caller-provided slice (a DRAM view, a virtqueue
    slot): encoded bytes land directly in backing memory. Overflowing the
    slice raises [Malformed]. *)
module View_writer : sig
  type t

  val create : ?pos:int -> Slice.t -> t
  val byte : t -> int -> unit
  val varint : t -> int -> unit
  val int64 : t -> int64 -> unit
  val string : t -> string -> unit
  val bool : t -> bool -> unit
  val list : t -> (t -> 'a -> unit) -> 'a list -> unit
  val option : t -> (t -> 'a -> unit) -> 'a option -> unit

  val pos : t -> int
  (** Bytes written so far (next write offset). *)
end

(** Cursor over a slice (a DRAM view): decode straight out of backing
    memory. Like {!Reader}, a length or count that is negative or runs
    past the window raises [Malformed]. *)
module View_reader : sig
  type t

  val create : ?pos:int -> ?len:int -> Slice.t -> t
  val byte : t -> int
  val varint : t -> int
  val int64 : t -> int64
  val string : t -> string
  val bool : t -> bool
  val list : t -> (t -> 'a) -> 'a list
  val option : t -> (t -> 'a) -> 'a option
  val at_end : t -> bool
end

val crc32 : string -> int
(** CRC-32 (IEEE 802.3) of the whole string, in [\[0, 2^32)]. Any
    single-bit flip changes the checksum. Computed by a C stub that
    folds ranges of 64 bytes or more with PCLMULQDQ on x86 CPUs that
    have it and uses a slice-by-8 table otherwise — this checksum runs
    over every NAND page program and WAL record, so it is squarely on
    the storage hot path. *)

val crc32_sub : string -> int -> int -> int
(** [crc32_sub s pos len]: CRC-32 of the [len] bytes at [pos]. Raises
    [Invalid_argument] when the range falls outside [s]. *)

val crc32_reference : string -> int
(** The original table-driven OCaml implementation, kept as the oracle
    the test suite pins the C stub against. *)
