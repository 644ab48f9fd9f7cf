(* DRAM on chunk-granular Bigarray backing.

   Frames (4 KiB, the IOMMU translation unit) remain the sparse-
   materialisation and snapshot unit: a frame counts as touched only once
   written (or handed out as a view), and [save] emits exactly the touched
   set, so the snapshot byte format is unchanged from the Hashtbl-of-Bytes
   implementation. Chunks (16 frames) are merely the allocation unit of
   the backing store, sized so any naturally aligned page range fits in
   one chunk and [view] can return a real sub-array over it. *)

module Slice = Lastcpu_proto.Slice

type view = Slice.t

type t = {
  size : int64;
  size_i : int;  (* [size] as a native int, for the byte-access fast path *)
  chunks : (int64, view) Hashtbl.t;  (* chunk number -> backing store *)
  touched : (int64, unit) Hashtbl.t; (* frame numbers materialised so far *)
  (* One-entry caches for the ring-field DMA path. [read_field]/
     [write_field] run for every descriptor and ring field a device
     touches; an int64-keyed [Hashtbl.find_opt] per field (polymorphic
     hash of a boxed key) would dominate the whole access. Pure host-side
     memoisation: the cached chunk is the same Bigarray the table holds,
     and the touched-page cache only skips idempotent set re-insertions. *)
  mutable last_cnum : int;           (* -1 = invalid *)
  mutable last_chunk : view;
  mutable last_touched : int;        (* frame number, -1 = invalid *)
}

let default_size = Int64.shift_left 1L 30 (* 1 GiB *)

let chunk_bits = 16 (* 64 KiB *)
let chunk_bytes = 1 lsl chunk_bits
let chunk_mask = Int64.of_int (chunk_bytes - 1)
let chunk_of_addr a = Int64.shift_right_logical a chunk_bits
let offset_in_chunk a = Int64.to_int (Int64.logand a chunk_mask)

let create ?(size = default_size) () =
  if size <= 0L then invalid_arg "Physmem.create: size must be positive";
  {
    size;
    size_i = Int64.to_int size;
    chunks = Hashtbl.create 64;
    touched = Hashtbl.create 1024;
    last_cnum = -1;
    (* Placeholder until the first cache fill: per-instance, so the cell
       is owned by this DRAM like every other mutable field. *)
    last_chunk = Bigarray.Array1.create Bigarray.char Bigarray.c_layout 1;
    last_touched = -1;
  }

let size t = t.size

let check t addr len =
  if addr < 0L || Int64.add addr (Int64.of_int len) > t.size then
    invalid_arg
      (Printf.sprintf "Physmem: access [0x%Lx, +%d) out of range" addr len)

let frame_size = Int64.to_int Layout.page_size

let chunk t idx =
  match Hashtbl.find_opt t.chunks idx with
  | Some c -> c
  | None ->
    let c = Bigarray.Array1.create Bigarray.char Bigarray.c_layout chunk_bytes in
    Bigarray.Array1.fill c '\000';
    Hashtbl.replace t.chunks idx c;
    c

(* Cached [chunk], keyed by native-int chunk number; materialises the
   chunk if absent (write path). *)
let chunk_c t cnum =
  if cnum = t.last_cnum then t.last_chunk
  else begin
    let c = chunk t (Int64.of_int cnum) in
    t.last_cnum <- cnum;
    t.last_chunk <- c;
    c
  end

let mark_touched t frame =
  if frame <> t.last_touched then begin
    Hashtbl.replace t.touched (Int64.of_int frame) ();
    t.last_touched <- frame
  end

(* Untouched frames are definitionally zero; the touched set, not the
   chunk table, is what [save] persists and [touched_frames] reports. *)
let touch_range t addr len =
  if len > 0 then begin
    let first = Layout.page_of_addr addr
    and last = Layout.page_of_addr (Int64.add addr (Int64.of_int (len - 1))) in
    let p = ref first in
    while !p <= last do
      Hashtbl.replace t.touched !p ();
      p := Int64.add !p 1L
    done
  end

(* Ring fields: one little-endian Bigarray access per field, on native-int
   physical addresses so no boxed address crosses the module boundary. *)
external get16 : view -> int -> int = "%caml_bigstring_get16u"
external get32 : view -> int -> int32 = "%caml_bigstring_get32u"
external get64 : view -> int -> int64 = "%caml_bigstring_get64u"
external set16 : view -> int -> int -> unit = "%caml_bigstring_set16u"
external set32 : view -> int -> int32 -> unit = "%caml_bigstring_set32u"
external set64 : view -> int -> int64 -> unit = "%caml_bigstring_set64u"
external bswap16 : int -> int = "%bswap16"
external bswap32 : int32 -> int32 = "%bswap_int32"
external bswap64 : int64 -> int64 = "%bswap_int64"

(* A field must lie inside DRAM and inside one chunk (a field inside one
   page always does). *)
let check_field t pa n =
  if pa < 0 || pa + n > t.size_i then check t (Int64.of_int pa) n;
  if (pa land (chunk_bytes - 1)) + n > chunk_bytes then
    invalid_arg "Physmem: field crosses a chunk boundary"

(* Point [last_chunk] at the chunk under [pa] for a read; false if that
   chunk was never written (definitionally zero, nothing to cache). *)
let cache_chunk_for_read t pa =
  let cnum = pa lsr chunk_bits in
  if cnum <> t.last_cnum then begin
    match Hashtbl.find_opt t.chunks (Int64.of_int cnum) with
    | None -> ()
    | Some c ->
      t.last_cnum <- cnum;
      t.last_chunk <- c
  end;
  cnum = t.last_cnum

let read_field t pa n =
  check_field t pa n;
  if not (cache_chunk_for_read t pa) then 0
  else begin
    let c = t.last_chunk and off = pa land (chunk_bytes - 1) in
    match n with
    | 1 -> Char.code (Bigarray.Array1.unsafe_get c off)
    | 2 -> if Sys.big_endian then bswap16 (get16 c off) else get16 c off
    | 4 ->
      let v = get32 c off in
      (* Convert in each branch: an int32-valued [if] would be boxed. *)
      (if Sys.big_endian then Int32.to_int (bswap32 v) else Int32.to_int v)
      land 0xffff_ffff
    | _ -> invalid_arg "Physmem.read_field: width must be 1, 2 or 4"
  end

let read_field64 t pa =
  check_field t pa 8;
  if not (cache_chunk_for_read t pa) then 0L
  else begin
    let v = get64 t.last_chunk (pa land (chunk_bytes - 1)) in
    if Sys.big_endian then bswap64 v else v
  end

(* The chunk under a field being written, with its frames marked touched. *)
let chunk_for_write t pa n =
  mark_touched t (pa lsr Layout.page_bits);
  mark_touched t ((pa + n - 1) lsr Layout.page_bits);
  chunk_c t (pa lsr chunk_bits)

let write_field t pa n v =
  check_field t pa n;
  if n <> 1 && n <> 2 && n <> 4 then
    invalid_arg "Physmem.write_field: width must be 1, 2 or 4";
  let c = chunk_for_write t pa n and off = pa land (chunk_bytes - 1) in
  match n with
  | 1 -> Bigarray.Array1.unsafe_set c off (Char.unsafe_chr (v land 0xff))
  | 2 ->
    let v = v land 0xffff in
    set16 c off (if Sys.big_endian then bswap16 v else v)
  | _ ->
    let v = Int32.of_int v in
    set32 c off (if Sys.big_endian then bswap32 v else v)

let write_field64 t pa v =
  check_field t pa 8;
  let c = chunk_for_write t pa 8 in
  set64 c (pa land (chunk_bytes - 1)) (if Sys.big_endian then bswap64 v else v)

let read_into t addr out ~pos:start ~len =
  check t addr len;
  let pos = ref 0 in
  while !pos < len do
    let a = Int64.add addr (Int64.of_int !pos) in
    let off = offset_in_chunk a in
    let n = min (len - !pos) (chunk_bytes - off) in
    (match Hashtbl.find_opt t.chunks (chunk_of_addr a) with
    | None -> Bytes.fill out (start + !pos) n '\000'
    | Some c -> Slice.blit_to_bytes c ~src_pos:off out ~dst_pos:(start + !pos) ~len:n);
    pos := !pos + n
  done

let read_bytes t addr len =
  let out = Bytes.create len in
  read_into t addr out ~pos:0 ~len;
  Bytes.unsafe_to_string out

let write_sub t addr blit src ~pos:start ~len =
  check t addr len;
  touch_range t addr len;
  let pos = ref 0 in
  while !pos < len do
    let a = Int64.add addr (Int64.of_int !pos) in
    let off = offset_in_chunk a in
    let n = min (len - !pos) (chunk_bytes - off) in
    blit src (start + !pos) (chunk t (chunk_of_addr a)) off n;
    pos := !pos + n
  done

let blit_string_in src src_pos c dst_pos len =
  Slice.blit_string src ~src_pos c ~dst_pos ~len

let blit_bytes_in src src_pos c dst_pos len =
  Slice.blit_bytes src ~src_pos c ~dst_pos ~len

let write_bytes t addr s =
  write_sub t addr blit_string_in s ~pos:0 ~len:(String.length s)

let write_bytes_sub t addr b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Physmem.write_bytes_sub";
  write_sub t addr blit_bytes_in b ~pos ~len

let write_string_sub t addr s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Physmem.write_string_sub";
  write_sub t addr blit_string_in s ~pos ~len

let fill_in c _ chunk off n = Bigarray.Array1.(fill (sub chunk off n) c)
let fill t addr len c =
  if len < 0 then invalid_arg "Physmem.fill";
  write_sub t addr fill_in c ~pos:0 ~len

let view t addr len =
  check t addr len;
  if len <= 0 then invalid_arg "Physmem.view: length must be positive";
  let ai = Int64.to_int addr in
  let off = ai land (chunk_bytes - 1) in
  if off + len > chunk_bytes then
    invalid_arg
      (Printf.sprintf "Physmem.view: [0x%Lx, +%d) crosses a chunk boundary"
         addr len);
  (* A view is a write-capable window: every frame under it must join the
     touched set now, or bytes written through it would be invisible to
     [save]. Views are built per DMA access, so both go through the
     one-entry caches. *)
  for frame = ai lsr Layout.page_bits to (ai + len - 1) lsr Layout.page_bits do
    mark_touched t frame
  done;
  Bigarray.Array1.sub (chunk_c t (ai lsr chunk_bits)) off len

let touched_frames t = Hashtbl.length t.touched

(* Checkpointing: every touched frame verbatim, sparsely, in frame-number
   order — byte-identical to the format the Bytes-backed implementation
   wrote, so old checkpoints restore and new ones replay under old
   readers. Untouched frames are definitionally zero, and the touched
   count itself is observable via [touched_frames], so frames are saved
   even when their contents have been rewritten to zero. *)
module Snapshot = Lastcpu_sim.Snapshot

let frame_contents t page =
  (* The format always carries whole frames. If DRAM ends mid-frame the
     tail beyond [size] travels as zeros (it is unaddressable anyway). *)
  let out = Bytes.make frame_size '\000' in
  let addr = Layout.addr_of_page page in
  let len = min frame_size (Int64.to_int (Int64.sub t.size addr)) in
  read_into t addr out ~pos:0 ~len;
  Bytes.unsafe_to_string out

let save w t =
  Snapshot.W.int64 w t.size;
  Snapshot.W.list w
    (fun w (page, ()) ->
      Snapshot.W.int64 w page;
      Snapshot.W.string w (frame_contents t page))
    (Lastcpu_sim.Detmap.bindings t.touched)

let restore r t =
  let size = Snapshot.R.int64 r in
  if size <> t.size then
    invalid_arg "Physmem.restore: DRAM size differs from checkpoint";
  Hashtbl.reset t.chunks;
  Hashtbl.reset t.touched;
  t.last_cnum <- -1;
  t.last_touched <- -1;
  let n = Snapshot.R.varint r in
  for _ = 1 to n do
    let page = Snapshot.R.int64 r in
    let contents = Snapshot.R.string r in
    if String.length contents <> frame_size then
      raise (Snapshot.R.Corrupt "physmem frame has wrong size");
    let addr = Layout.addr_of_page page in
    let len = min frame_size (Int64.to_int (Int64.sub t.size addr)) in
    write_string_sub t addr contents ~pos:0 ~len
  done
