(* The string-backed field codec is the snapshot one: bus frames, app
   protocols and checkpoints share one byte layout, one reader and its
   length checks, and one exception. *)
exception Malformed = Lastcpu_sim.Snapshot.R.Corrupt

(* The shared shapes of the three write targets (growable buffer, slice
   cursor, byte counter) and the two read cursors (string, slice). Codecs
   written as functors over these define their byte layout exactly once
   and get the copying, zero-copy and sizing variants for free. *)
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
module Reader = Lastcpu_sim.Snapshot.R

let decode f s =
  match f (Reader.of_string s) with
  | v -> Ok v
  | exception Malformed m -> Error m

(* Byte counter with the Writer's encoding signature: drive the same encode
   logic through it and [size] is the encoded length, with no buffer and
   no bytes materialised. *)
module Sizer = struct
  type t = { mutable n : int }

  let create () = { n = 0 }
  let byte t _ = t.n <- t.n + 1

  let varint t v =
    assert (v >= 0);
    let rec go v n = if v < 0x80 then n + 1 else go (v lsr 7) (n + 1) in
    t.n <- t.n + go v 0

  let int64 t _ = t.n <- t.n + 8

  let string t s =
    varint t (String.length s);
    t.n <- t.n + String.length s

  let bool t _ = t.n <- t.n + 1

  let list t f xs =
    varint t (List.length xs);
    List.iter (f t) xs

  let option t f = function
    | None -> bool t false
    | Some x ->
      bool t true;
      f t x

  let size t = t.n
end

(* Cursor writing into a caller-provided slice (a DRAM view, a virtqueue
   slot): the encoded bytes land directly in backing memory, no
   intermediate string. Running off the end of the slice raises
   [Malformed] — the caller sized the buffer, so overflow is a framing
   bug, not a grow condition. *)
module View_writer = struct
  type t = { data : Slice.t; mutable pos : int }

  let create ?(pos = 0) data = { data; pos }

  let ensure t n =
    if t.pos + n > Slice.length t.data then raise (Malformed "view overflow")

  let byte t b =
    ensure t 1;
    Bigarray.Array1.unsafe_set t.data t.pos (Char.unsafe_chr (b land 0xff));
    t.pos <- t.pos + 1

  let varint t v =
    assert (v >= 0);
    let rec go v =
      if v < 0x80 then byte t v
      else begin
        byte t (v land 0x7f lor 0x80);
        go (v lsr 7)
      end
    in
    go v

  let int64 t v =
    for shift = 0 to 7 do
      byte t (Int64.to_int (Int64.shift_right_logical v (shift * 8)))
    done

  let string t s =
    let len = String.length s in
    varint t len;
    ensure t len;
    Slice.blit_string s ~src_pos:0 t.data ~dst_pos:t.pos ~len;
    t.pos <- t.pos + len

  let bool t b = byte t (if b then 1 else 0)

  let list t f xs =
    varint t (List.length xs);
    List.iter (f t) xs

  let option t f = function
    | None -> bool t false
    | Some x ->
      bool t true;
      f t x

  let pos t = t.pos
end

(* Cursor over a slice (a DRAM view): decode straight out of backing
   memory, with no intermediate string for the frame. *)
module View_reader = struct
  type t = { data : Slice.t; mutable pos : int; limit : int }

  let create ?(pos = 0) ?len data =
    let limit =
      match len with None -> Slice.length data | Some n -> pos + n
    in
    if pos < 0 || limit > Slice.length data || pos > limit then
      invalid_arg "View_reader.create: window out of range";
    { data; pos; limit }

  let byte t =
    if t.pos >= t.limit then raise (Malformed "truncated");
    let b = Char.code (Bigarray.Array1.unsafe_get t.data t.pos) in
    t.pos <- t.pos + 1;
    b

  let varint t =
    let rec go shift acc =
      if shift > 62 then raise (Malformed "varint too long");
      let b = byte t in
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b land 0x80 = 0 then acc else go (shift + 7) acc
    in
    go 0 0

  let int64 t =
    let v = ref 0L in
    for shift = 0 to 7 do
      v := Int64.logor !v (Int64.shift_left (Int64.of_int (byte t)) (shift * 8))
    done;
    !v

  (* The string reader's count rule: a length or count that is negative
     or runs past the window is malformed. *)
  let count t =
    let n = varint t in
    if n < 0 || n > t.limit - t.pos then
      raise
        (Malformed
           (Printf.sprintf "count %d at %d exceeds the bytes left" n t.pos));
    n

  let string t =
    let len = count t in
    let s = Slice.to_string t.data ~pos:t.pos ~len in
    t.pos <- t.pos + len;
    s

  let bool t =
    match byte t with
    | 0 -> false
    | 1 -> true
    | n -> raise (Malformed (Printf.sprintf "bad bool %d" n))

  let list t f = List.init (count t) (fun _ -> f t)
  let option t f = if bool t then Some (f t) else None
  let at_end t = t.pos = t.limit
end

(* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320). Guards framed
   payloads against in-flight corruption, doubles as the NAND ECC model
   and the WAL record checksum, so it runs over every 4 KiB page on the
   storage path — hence the slice-by-8 C stub, shared with the snapshot
   format ({!Lastcpu_sim.Snapshot.crc32}). [crc32_reference] is the
   original OCaml loop, kept so the test suite can pin the stub to it. *)
let crc32_sub s pos len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Wire.crc32_sub";
  Lastcpu_sim.Snapshot.crc32_update 0 s pos len

let crc32 s = Lastcpu_sim.Snapshot.crc32 s

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32_reference s =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch -> c := table.((!c lxor Char.code ch) land 0xff) lxor (!c lsr 8))
    s;
  !c lxor 0xFFFFFFFF land 0xFFFFFFFF
