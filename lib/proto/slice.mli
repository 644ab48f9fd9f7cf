(** Byte slices: the common currency of the zero-copy data plane.

    DRAM views ([Physmem.view], and [Dma.map_single] on top of it) and
    codec cursors ({!Wire.View_reader}/{!Wire.View_writer}) all carry this
    one bigarray type, so payloads are encoded and decoded in place instead
    of round-tripping through intermediate strings. All [blit_*] functions
    bounds-check and raise [Invalid_argument]. *)

type t = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

val create : int -> t
(** Zero-filled. *)

val length : t -> int

val blit_string : string -> src_pos:int -> t -> dst_pos:int -> len:int -> unit
val blit_bytes : Bytes.t -> src_pos:int -> t -> dst_pos:int -> len:int -> unit
val blit_to_bytes : t -> src_pos:int -> Bytes.t -> dst_pos:int -> len:int -> unit

val to_string : t -> pos:int -> len:int -> string
val of_string : string -> t
