(* Versioned, CRC-framed snapshot container, and the field codec shared
   with the bus and app protocols.

   A snapshot file is a flat sequence of named sections:

     "LCSN" | u32 version
     repeat: 'S' | varint |name| | name | varint |body| | u32 crc32(body) | body
     'E' | u32 crc32(everything before this u32)

   Every length is explicit and every body is checksummed, so a torn write
   (partial append, zero-filled tail, bit rot) is detected structurally:
   the reader either runs out of bytes mid-frame or hits a CRC mismatch,
   and in both cases the whole file is rejected — there is no "partially
   restored" state. Durability is generation-based: [write] replaces the
   previous snapshot atomically (tmp + rename) and keeps the displaced
   file as [path ^ ".1"], and [load] falls back to that previous
   generation when the primary is missing or corrupt.

   This module is deliberately engine-free: it knows bytes, not
   simulations. Subsystems encode their state with [W]/[R]; the engine's
   hook registry (see Engine.register_snapshot) decides what gets written.
   The CRC-32 is the C stub in crc32_stubs.c, which Wire shares. *)

let version = 1
let magic = "LCSN"

external crc32 : string -> int = "lastcpu_crc32" [@@noalloc]

(* Over a string or a writer's bytes; the range is unchecked. *)
external crc32_bytes :
  int -> Bytes.t -> int -> int -> int = "lastcpu_crc32_update" [@@noalloc]

external crc32_combine : int -> int -> int -> int = "lastcpu_crc32_combine"
[@@noalloc]

let crc32_update crc s pos len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Snapshot.crc32_update";
  crc32_bytes crc (Bytes.unsafe_of_string s) pos len

(* --- field codec ---------------------------------------------------------- *)

(* The tree's one field codec: bus frames, app protocols, WAL records and
   checkpoint sections all use this layout (Wire aliases [W]/[R] as its
   Writer/Reader). Ints are little-endian, lengths and counts unsigned
   LEB128, strings and lists length-prefixed. *)
module W = struct
  (* A byte cursor: the encoding is the writer's own [bytes] up to [len],
     with each borrowed piece spliced in at the own-byte offset [at] where
     it was appended. [pieces] is newest first and empty unless a saver
     borrows, so a frame or record writer never walks it. *)
  type piece = { at : int; src : Bytes.t; src_pos : int; src_len : int; crc : int }

  type t = {
    mutable bytes : Bytes.t;
    mutable len : int;
    mutable pieces : piece list;
  }

  (* Small on purpose: kv-read encodes one short reply per op. *)
  let create () = { bytes = Bytes.create 64; len = 0; pieces = [] }

  let clear w =
    w.len <- 0;
    w.pieces <- []

  (* Fold [own] over each run of own bytes and [piece] over each borrowed
     piece, in encoding order. *)
  let fold w ~own ~piece acc =
    let acc, last =
      List.fold_left
        (fun (acc, prev) p ->
          (piece (own acc w.bytes prev (p.at - prev)) p, p.at))
        (acc, 0) (List.rev w.pieces)
    in
    own acc w.bytes last (w.len - last)

  let size w = List.fold_left (fun n p -> n + p.src_len) w.len w.pieces

  let crc w =
    fold w ~own:crc32_bytes
      ~piece:(fun c p -> crc32_combine c p.crc p.src_len)
      0

  let iter w emit =
    fold w
      ~own:(fun () b pos len -> emit b pos len)
      ~piece:(fun () p -> emit p.src p.src_pos p.src_len)
      ()

  let contents w =
    match w.pieces with
    | [] -> Bytes.sub_string w.bytes 0 w.len
    | _ ->
      let out = Buffer.create (size w) in
      iter w (Buffer.add_subbytes out);
      Buffer.contents out

  (* At least doubles, so byte-by-byte growth stays amortized O(1). *)
  let reserve w n =
    let cap = Bytes.length w.bytes in
    if w.len + n > cap then w.bytes <- Bytes.extend w.bytes 0 (max n cap)

  let byte w n =
    if w.len >= Bytes.length w.bytes then reserve w 1;
    Bytes.unsafe_set w.bytes w.len (Char.unsafe_chr (n land 0xff));
    w.len <- w.len + 1

  (* Fixed-width fields reserve their bytes once and store them whole. *)
  let u32 w n =
    reserve w 4;
    Bytes.set_int32_le w.bytes w.len (Int32.of_int n);
    w.len <- w.len + 4

  let int64 w n =
    reserve w 8;
    Bytes.set_int64_le w.bytes w.len n;
    w.len <- w.len + 8

  (* [n]'s LEB128 bytes into [b] at [pos]; the position after them. *)
  let rec put_varint b pos n =
    if n < 0x80 then begin
      Bytes.unsafe_set b pos (Char.unsafe_chr n);
      pos + 1
    end
    else begin
      Bytes.unsafe_set b pos (Char.unsafe_chr (0x80 lor (n land 0x7f)));
      put_varint b (pos + 1) (n lsr 7)
    end

  (* Unsigned LEB128; lengths and other non-negative quantities. One
     reservation covers the longest encoding (9 bytes for 63 bits). *)
  let varint w n =
    assert (n >= 0);
    if w.len + 9 > Bytes.length w.bytes then reserve w 9;
    w.len <- put_varint w.bytes w.len n

  (* Zigzag-encoded signed int, for quantities that may go negative. *)
  let vint w n = varint w ((n lsl 1) lxor (n asr (Sys.int_size - 1)))
  let bool w b = byte w (if b then 1 else 0)
  let float w f = int64 w (Int64.bits_of_float f)

  let blit w b pos len =
    reserve w len;
    Bytes.blit b pos w.bytes w.len len;
    w.len <- w.len + len

  let bytes w b pos len =
    varint w len;
    blit w b pos len

  let string w s = bytes w (Bytes.unsafe_of_string s) 0 (String.length s)

  let borrow w src pos len ~crc =
    if pos < 0 || len < 0 || pos > Bytes.length src - len then
      invalid_arg "Snapshot.W.borrow";
    if len > 0 then
      w.pieces <-
        { at = w.len; src; src_pos = pos; src_len = len; crc } :: w.pieces

  let list w f xs =
    varint w (List.length xs);
    List.iter (f w) xs

  let array w f xs =
    varint w (Array.length xs);
    Array.iter (f w) xs

  let option w f = function
    | None -> bool w false
    | Some x ->
      bool w true;
      f w x
end

module R = struct
  exception Corrupt of string

  (* A cursor over [buf] that never reads at or past [lim]: the whole
     string for a frame, one section's body for a checkpoint restorer. *)
  type t = { buf : string; mutable pos : int; lim : int }

  let corrupt fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt
  let of_string buf = { buf; pos = 0; lim = String.length buf }
  let at_end r = r.pos >= r.lim

  let byte r =
    if r.pos >= r.lim then corrupt "truncated (byte at %d)" r.pos;
    let c = Char.code (String.unsafe_get r.buf r.pos) in
    r.pos <- r.pos + 1;
    c

  (* Fixed-width fields are read whole; one that runs past [lim] fails
     at the first byte missing, as a byte-by-byte read would. *)
  let u32 r =
    if r.pos + 4 > r.lim then corrupt "truncated (byte at %d)" (max r.pos r.lim);
    let v = Int32.to_int (String.get_int32_le r.buf r.pos) land 0xffff_ffff in
    r.pos <- r.pos + 4;
    v

  let int64 r =
    if r.pos + 8 > r.lim then corrupt "truncated (byte at %d)" (max r.pos r.lim);
    let v = String.get_int64_le r.buf r.pos in
    r.pos <- r.pos + 8;
    v

  (* The rest of a varint whose bits below [shift] are [acc]. *)
  let rec varint_from r shift acc =
    if shift >= Sys.int_size then corrupt "varint overflow at %d" r.pos;
    let b = byte r in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else varint_from r (shift + 7) acc

  (* Most lengths, counts and indices fit one byte: that case takes one
     bounds check; anything else, truncation included, takes the loop. *)
  let varint r =
    let pos = r.pos in
    if pos < r.lim then begin
      let b = Char.code (String.unsafe_get r.buf pos) in
      if b < 0x80 then begin
        r.pos <- pos + 1;
        b
      end
      else varint_from r 0 0
    end
    else varint_from r 0 0

  let vint r =
    let n = varint r in
    (n lsr 1) lxor (-(n land 1))

  let bool r =
    match byte r with
    | 0 -> false
    | 1 -> true
    | n -> corrupt "bad bool %d at %d" n (r.pos - 1)

  let float r = Int64.float_of_bits (int64 r)

  (* A length or element count from the input: every element takes at
     least one byte, so a count past the bytes left is corrupt. *)
  let count r =
    let n = varint r in
    if n < 0 || n > r.lim - r.pos then
      corrupt "count %d at %d exceeds the bytes left" n r.pos;
    n

  let string r =
    let len = count r in
    let s = String.sub r.buf r.pos len in
    r.pos <- r.pos + len;
    s

  (* A {!string} field read in place: [f] gets a window over its bytes. *)
  let nested r f =
    let n = count r in
    let v = f { r with lim = r.pos + n } in
    r.pos <- r.pos + n;
    v

  let list r f = List.init (count r) (fun _ -> f r)
  let array r f = Array.init (count r) (fun _ -> f r)

  let option r f = if bool r then Some (f r) else None
end

(* --- container ------------------------------------------------------------ *)

type section = string * (W.t -> unit)

(* Stream the container through [emit] without assembling the file: one
   writer is reused for every section body, each body is CRC'd once in
   place (a borrowed piece not at all: its CRC is combined in), and the
   file CRC is extended over the body by combining that CRC instead of a
   second pass. Each body is emitted before the next saver runs, which is
   what keeps a borrowed piece unchanged until it is read. Returns the
   4-byte trailer instead of emitting it, so [write_torn] can cut it. *)
let stream emit sections =
  let head = W.create () and body = W.create () in
  let crc = ref 0 in
  let frame f =
    W.clear head;
    f head;
    crc := crc32_bytes !crc head.W.bytes 0 head.W.len;
    emit head.W.bytes 0 head.W.len
  in
  frame (fun w ->
      W.blit w (Bytes.unsafe_of_string magic) 0 4;
      W.u32 w version);
  List.iter
    (fun (name, save) ->
      W.clear body;
      save body;
      let len = W.size body and body_crc = W.crc body in
      frame (fun w ->
          W.byte w (Char.code 'S');
          W.string w name;
          W.varint w len;
          W.u32 w body_crc);
      crc := crc32_combine !crc body_crc len;
      W.iter body emit)
    sections;
  frame (fun w -> W.byte w (Char.code 'E'));
  W.clear head;
  W.u32 head !crc;
  W.contents head

let encode sections =
  let b = Buffer.create 4096 in
  Buffer.add_string b (stream (Buffer.add_subbytes b) sections);
  Buffer.contents b

(* A verified file and each section's (name, body offset, body length). *)
type sections = { data : string; index : (string * int * int) list }

(* Each body is CRC'd once, against its frame; the file CRC is derived by
   hashing the frame headers and combining the body CRCs in. *)
let decode s =
  try
    if String.length s < 8 || String.sub s 0 4 <> magic then
      R.corrupt "bad magic";
    let r = { (R.of_string s) with R.pos = 4 } in
    let v = R.u32 r in
    if v <> version then R.corrupt "unsupported version %d" v;
    let rec sections crc acc =
      let frame = r.R.pos in
      match Char.chr (R.byte r) with
      | 'S' ->
        let name = R.string r in
        let len = R.count r in
        let body_crc = R.u32 r in
        let start = r.R.pos in
        if len > String.length s - start then
          R.corrupt "truncated section %S" name;
        if crc32_update 0 s start len <> body_crc then
          R.corrupt "checksum mismatch in section %S" name;
        r.R.pos <- start + len;
        let crc = crc32_update crc s frame (start - frame) in
        sections (crc32_combine crc body_crc len) ((name, start, len) :: acc)
      | 'E' ->
        let crc = crc32_update crc s frame 1 in
        if R.u32 r <> crc then R.corrupt "file checksum mismatch";
        List.rev acc
      | c -> R.corrupt "bad frame tag %C" c
    in
    Ok { data = s; index = sections (crc32_update 0 s 0 8) [] }
  with R.Corrupt m -> Error m

let find { data; index } name =
  List.find_map
    (fun (n, pos, len) ->
      if String.equal n name then Some { R.buf = data; pos; lim = pos + len }
      else None)
    index

(* --- file I/O with generations -------------------------------------------- *)

let previous_generation path = path ^ ".1"

let rotate path =
  if Sys.file_exists path then Sys.rename path (previous_generation path)

(* Stream to [path ^ ".tmp"], keeping at most [keep] bytes and then [cut]
   bytes of the trailer; only once every section is written is the old
   generation rotated and the temp file renamed into place. A saver that
   raises leaves no temp file and both generations untouched. *)
let save_file ~path ~keep ~cut sections =
  let tmp = path ^ ".tmp" in
  (try
     Out_channel.with_open_bin tmp (fun oc ->
         let left = ref (max 0 keep) in
         let emit b pos len =
           let n = min !left len in
           Out_channel.output oc b pos n;
           left := !left - n
         in
         let trailer = stream emit sections in
         emit (Bytes.unsafe_of_string trailer) 0 cut)
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  rotate path;
  Sys.rename tmp path

let write ~path sections = save_file ~path ~keep:max_int ~cut:4 sections

(* Chaos hook: simulate the host dying mid-checkpoint. The previous
   generation is rotated out of the way (as a real checkpoint would), and
   the primary is left torn at [keep_bytes], never past the trailer's
   third byte — the on-disk state a kill -9 mid-write of a non-atomic
   writer would leave. [load] must reject it. *)
let write_torn ~path ~keep_bytes sections =
  save_file ~path ~keep:keep_bytes ~cut:3 sections

let read_file path =
  if not (Sys.file_exists path) then Error (path ^ ": no such file")
  else Ok (In_channel.with_open_bin path In_channel.input_all)

type generation = Primary | Previous

let load ~path =
  let attempt p =
    Result.bind (read_file p) (fun data ->
        Result.map_error (fun e -> p ^ ": " ^ e) (decode data))
  in
  match attempt path with
  | Ok sections -> Ok (Primary, sections)
  | Error primary_err -> (
    match attempt (previous_generation path) with
    | Ok sections -> Ok (Previous, sections)
    | Error fallback_err ->
      Error (Printf.sprintf "%s; fallback %s" primary_err fallback_err))
