(** Byte slices: the common currency of the zero-copy data plane.

    DRAM views ([Physmem.view]), DMI grants ([Dma.map_single]) and codec
    cursors ({!Wire.View_reader}/{!Wire.View_writer}) all carry this one
    bigarray type, so payloads move bigarray-to-bigarray (memcpy
    underneath) instead of round-tripping through intermediate strings.
    All [blit_*] functions bounds-check and raise [Invalid_argument]. *)

type t = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

val create : int -> t
(** Zero-filled. *)

val length : t -> int
val sub : t -> int -> int -> t
(** [sub t pos len] shares storage with [t] (a window, not a copy). *)

val get : t -> int -> char
val set : t -> int -> char -> unit
val fill : t -> char -> unit

val blit_string : string -> src_pos:int -> t -> dst_pos:int -> len:int -> unit
val blit_bytes : Bytes.t -> src_pos:int -> t -> dst_pos:int -> len:int -> unit
val blit_to_bytes : t -> src_pos:int -> Bytes.t -> dst_pos:int -> len:int -> unit
val blit : t -> src_pos:int -> t -> dst_pos:int -> len:int -> unit

val to_string : t -> pos:int -> len:int -> string
val of_string : string -> t
