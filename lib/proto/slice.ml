(* A byte slice: the common currency of the zero-copy data plane. DRAM
   views (Physmem.view, Dma.map_single) and codec cursors
   (Wire.View_reader/View_writer) all carry this one type, so payloads are
   encoded and decoded in place instead of round-tripping through
   intermediate strings. *)

type t = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

(* The same C stub serves string and bytes sources: they share a runtime
   representation and the stub only reads the source. *)
external unsafe_blit_string : string -> int -> t -> int -> int -> unit
  = "lastcpu_blit_string_to_ba"
[@@noalloc]

external unsafe_blit_bytes : Bytes.t -> int -> t -> int -> int -> unit
  = "lastcpu_blit_string_to_ba"
[@@noalloc]

external unsafe_blit_to_bytes : t -> int -> Bytes.t -> int -> int -> unit
  = "lastcpu_blit_ba_to_bytes"
[@@noalloc]

let length = Bigarray.Array1.dim

let create len =
  let s = Bigarray.Array1.create Bigarray.char Bigarray.c_layout len in
  Bigarray.Array1.fill s '\000';
  s

let check_range what len pos n =
  if pos < 0 || n < 0 || pos + n > len then
    invalid_arg (Printf.sprintf "Slice.%s: [%d, +%d) out of range" what pos n)

let blit_string src ~src_pos dst ~dst_pos ~len =
  check_range "blit_string" (String.length src) src_pos len;
  check_range "blit_string" (length dst) dst_pos len;
  unsafe_blit_string src src_pos dst dst_pos len

let blit_bytes src ~src_pos dst ~dst_pos ~len =
  check_range "blit_bytes" (Bytes.length src) src_pos len;
  check_range "blit_bytes" (length dst) dst_pos len;
  unsafe_blit_bytes src src_pos dst dst_pos len

let blit_to_bytes src ~src_pos dst ~dst_pos ~len =
  check_range "blit_to_bytes" (length src) src_pos len;
  check_range "blit_to_bytes" (Bytes.length dst) dst_pos len;
  unsafe_blit_to_bytes src src_pos dst dst_pos len

let to_string src ~pos ~len =
  check_range "to_string" (length src) pos len;
  let b = Bytes.create len in
  unsafe_blit_to_bytes src pos b 0 len;
  Bytes.unsafe_to_string b

let of_string s =
  let v = Bigarray.Array1.create Bigarray.char Bigarray.c_layout (String.length s) in
  unsafe_blit_string s 0 v 0 (String.length s);
  v
