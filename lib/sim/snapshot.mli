(** Versioned, CRC-framed snapshot container, and the tree's one
    field codec ({!W}/{!R}).

    A snapshot is a flat list of named, length-prefixed, individually
    checksummed sections. The framing makes torn writes structurally
    detectable: a reader either runs out of bytes mid-frame or hits a CRC
    mismatch, and in both cases the whole file is rejected — never
    partially applied. {!write} is atomic (tmp + rename) and keeps the
    displaced previous snapshot as [path ^ ".1"]; {!load} falls back to
    that generation when the primary is missing or corrupt.

    The module is engine-free by design (bytes only); what gets written is
    decided by the engine's snapshot-hook registry
    ({!Engine.register_snapshot}). *)

external crc32 : string -> int = "lastcpu_crc32" [@@noalloc]
(** IEEE CRC-32 of a string; the tree's one CRC-32, a C stub. On x86
    CPUs with PCLMULQDQ it hashes ranges of 64 bytes or more with a
    carry-less-multiply fold, and everything else with a slice-by-8
    table; the kernel is picked once at load time, and both give the
    same bits. *)

val crc32_update : int -> string -> int -> int -> int
(** [crc32_update crc s pos len] extends [crc], the CRC-32 of a prefix
    ([0] if empty), over [len] bytes of [s] at [pos]. Raises
    [Invalid_argument] when the range falls outside [s]. *)

external crc32_combine : int -> int -> int -> int = "lastcpu_crc32_combine"
[@@noalloc]
(** [crc32_combine (crc32 a) (crc32 b) (String.length b)] is
    [crc32 (a ^ b)], computed without [b]'s bytes (zlib's algorithm). *)

(** The field codec. One byte layout serves bus frames, app protocols,
    WAL records and snapshot sections: {!Lastcpu_proto.Wire} re-exports
    [W] and [R] as its [Writer] and [Reader], and they satisfy its
    [SINK]/[SOURCE] shapes. Fixed ints are little-endian; lengths and
    counts are unsigned LEB128; strings, lists and arrays carry a length
    or count prefix. *)

(** Field writer: an append-only byte cursor of primitive encodings. *)
module W : sig
  type t

  val create : unit -> t

  val contents : t -> string
  (** The encoding so far, borrowed pieces ({!borrow}) copied in. *)

  val byte : t -> int -> unit
  val u32 : t -> int -> unit
  val int64 : t -> int64 -> unit

  val varint : t -> int -> unit
  (** Unsigned LEB128; the argument must be non-negative. *)

  val put_varint : Bytes.t -> int -> int -> int
  (** [put_varint b pos n] stores {!varint}'s encoding of [n] in [b] at
      [pos], which must have room for it (at most 9 bytes), and returns
      the position after it: for a caller that sized its own buffer. *)

  val vint : t -> int -> unit
  (** Zigzag-encoded signed int. *)

  val bool : t -> bool -> unit
  val float : t -> float -> unit
  val string : t -> string -> unit

  val bytes : t -> Bytes.t -> int -> int -> unit
  (** [bytes w b pos len] writes [len] bytes of [b] from [pos], encoded
      exactly as {!string} of that substring. *)

  val borrow : t -> Bytes.t -> int -> int -> crc:int -> unit
  (** [borrow w b pos len ~crc] appends [len] raw bytes of [b] from [pos]
      (no length prefix) by reference, not by copy; [crc] must be their
      CRC-32. A save ({!write}, {!encode}) emits them straight from [b]
      and folds [crc] into the section CRC with {!crc32_combine} instead
      of hashing them. So [W.varint w len; W.borrow w b pos len ~crc]
      encodes exactly as [W.bytes w b pos len]. Raises [Invalid_argument]
      when the range falls outside [b].

      {b Borrow rule.} The borrowed bytes must not change until the save
      that runs this saver returns (or, outside a save, until
      {!contents} is read). A checkpoint keeps it: each section is
      emitted before the next saver runs, and no event runs during a
      save. *)

  val list : t -> (t -> 'a -> unit) -> 'a list -> unit
  val array : t -> (t -> 'a -> unit) -> 'a array -> unit
  val option : t -> (t -> 'a -> unit) -> 'a option -> unit
end

(** Field reader over bytes from a peer or a file. Every decoder raises
    {!R.Corrupt} on malformed input: a truncated field, an over-long
    varint, a bool byte other than 0 or 1, or a length or count that is
    negative or runs past the bytes left. No other exception escapes. A
    window ({!find}, {!nested}) stops every check, {!at_end} too, at its end. *)
module R : sig
  exception Corrupt of string

  type t

  val of_string : string -> t
  val at_end : t -> bool
  val byte : t -> int
  val u32 : t -> int
  val int64 : t -> int64
  val varint : t -> int
  val vint : t -> int
  val bool : t -> bool
  val float : t -> float
  val string : t -> string

  val nested : t -> (t -> 'a) -> 'a
  (** [nested r f] runs [f] on a window over a {!string} field's bytes. *)

  val list : t -> (t -> 'a) -> 'a list
  val array : t -> (t -> 'a) -> 'a array
  val option : t -> (t -> 'a) -> 'a option
end

type section = string * (W.t -> unit)
(** A section's name and the saver that writes its body. *)

val encode : section list -> string
(** Serialize sections into one framed, checksummed byte string. *)

type sections
(** A verified file's sections, read in place. *)

val decode : string -> (sections, string) result
(** Parse and verify a framed byte string; [Error] describes the first
    structural or checksum failure (torn file, bad magic, bad version). *)

val find : sections -> string -> R.t option
(** A fresh window over the body of the first section with that name. *)

type generation = Primary | Previous

val previous_generation : string -> string
(** The on-disk name of the displaced previous snapshot ([path ^ ".1"]). *)

val write : path:string -> section list -> unit
(** Atomically replace the snapshot at [path]: stream {!encode}'s bytes to
    a temp file, rotate any existing [path] to [path ^ ".1"], then rename
    into place. At most two generations are kept. A saver that raises
    removes the temp file and leaves both generations as they were. *)

val write_torn : path:string -> keep_bytes:int -> section list -> unit
(** Chaos hook: leave [path] deliberately torn (the first [keep_bytes]
    bytes of {!encode}, never all) after rotating the previous generation,
    reproducing the on-disk state of a process killed mid-checkpoint by a
    non-atomic writer. {!load} must reject the primary and fall back. *)

val load : path:string -> (generation * sections, string) result
(** Read and verify [path]; on any failure (missing, torn, corrupt), try
    the previous generation. [Error] combines both failures. *)
