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

external crc32_unchecked :
  int -> string -> int -> int -> int = "lastcpu_crc32_update" [@@noalloc]

let crc32_update crc s pos len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Snapshot.crc32_update";
  crc32_unchecked crc s pos len

(* --- field codec ---------------------------------------------------------- *)

(* The tree's one string-backed field codec: bus frames, app protocols,
   WAL records and checkpoint sections all use this layout (Wire aliases
   [W]/[R] as its Writer/Reader). Ints are little-endian, lengths and
   counts unsigned LEB128, strings and lists length-prefixed. *)
module W = struct
  type t = Buffer.t

  (* Small on purpose: kv-read encodes one short reply per op. *)
  let create () = Buffer.create 64
  let contents w = Buffer.contents w
  let byte w n = Buffer.add_char w (Char.chr (n land 0xff))

  let u32 w n =
    byte w n;
    byte w (n lsr 8);
    byte w (n lsr 16);
    byte w (n lsr 24)

  let int64 w n =
    for shift = 0 to 7 do
      byte w (Int64.to_int (Int64.shift_right_logical n (8 * shift)))
    done

  (* Unsigned LEB128; lengths and other non-negative quantities. *)
  let rec varint w n =
    assert (n >= 0);
    if n < 0x80 then byte w n
    else begin
      byte w (0x80 lor (n land 0x7f));
      varint w (n lsr 7)
    end

  (* Zigzag-encoded signed int, for quantities that may go negative. *)
  let vint w n = varint w ((n lsl 1) lxor (n asr (Sys.int_size - 1)))
  let bool w b = byte w (if b then 1 else 0)
  let float w f = int64 w (Int64.bits_of_float f)

  let string w s =
    varint w (String.length s);
    Buffer.add_string w s

  let bytes w b pos len =
    varint w len;
    Buffer.add_subbytes w b pos len

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

  type t = { buf : string; mutable pos : int }

  let corrupt fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt
  let of_string buf = { buf; pos = 0 }
  let at_end r = r.pos >= String.length r.buf

  let byte r =
    if r.pos >= String.length r.buf then corrupt "truncated (byte at %d)" r.pos;
    let c = Char.code r.buf.[r.pos] in
    r.pos <- r.pos + 1;
    c

  let u32 r =
    let a = byte r in
    let b = byte r in
    let c = byte r in
    let d = byte r in
    a lor (b lsl 8) lor (c lsl 16) lor (d lsl 24)

  let int64 r =
    let v = ref 0L in
    for shift = 0 to 7 do
      v := Int64.logor !v (Int64.shift_left (Int64.of_int (byte r)) (8 * shift))
    done;
    !v

  let varint r =
    let rec go shift acc =
      if shift >= Sys.int_size then corrupt "varint overflow at %d" r.pos;
      let b = byte r in
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b land 0x80 = 0 then acc else go (shift + 7) acc
    in
    go 0 0

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
    if n < 0 || n > String.length r.buf - r.pos then
      corrupt "count %d at %d exceeds the bytes left" n r.pos;
    n

  let string r =
    let len = count r in
    let s = String.sub r.buf r.pos len in
    r.pos <- r.pos + len;
    s

  let string_into r dst pos len =
    let n = count r in
    if n <> len then corrupt "string of %d bytes at %d, expected %d" n r.pos len;
    Bytes.blit_string r.buf r.pos dst pos n;
    r.pos <- r.pos + n

  let list r f = List.init (count r) (fun _ -> f r)
  let array r f = Array.init (count r) (fun _ -> f r)

  let option r f = if bool r then Some (f r) else None
end

(* --- container ------------------------------------------------------------ *)

type section = { name : string; body : string }

(* Stream the container through [emit], folding the file CRC over each
   piece as it goes, so the file is never assembled in memory. Returns the
   4-byte trailer instead of emitting it, so [write_torn] can cut it. *)
let stream emit sections =
  let crc = ref 0 in
  let put s =
    crc := crc32_update !crc s 0 (String.length s);
    emit s
  in
  let frame f =
    let w = W.create () in
    f w;
    put (W.contents w)
  in
  frame (fun w ->
      Buffer.add_string w magic;
      W.u32 w version);
  List.iter
    (fun { name; body } ->
      frame (fun w ->
          W.byte w (Char.code 'S');
          W.string w name;
          W.varint w (String.length body);
          W.u32 w (crc32 body));
      put body)
    sections;
  frame (fun w -> W.byte w (Char.code 'E'));
  let trailer = W.create () in
  W.u32 trailer !crc;
  W.contents trailer

let encode sections =
  let b = Buffer.create 4096 in
  Buffer.add_string b (stream (Buffer.add_string b) sections);
  Buffer.contents b

let decode s =
  try
    let r = R.of_string s in
    if String.length s < 8 || String.sub s 0 4 <> magic then
      R.corrupt "bad magic";
    r.R.pos <- 4;
    let v = R.u32 r in
    if v <> version then R.corrupt "unsupported version %d" v;
    let rec sections acc =
      match Char.chr (R.byte r) with
      | 'S' ->
        let name = R.string r in
        let len = R.count r in
        let crc = R.u32 r in
        let start = r.R.pos in
        if len > String.length s - start then
          R.corrupt "truncated section %S" name;
        if crc32_update 0 s start len <> crc then
          R.corrupt "checksum mismatch in section %S" name;
        let body = String.sub s start len in
        r.R.pos <- start + len;
        sections ({ name; body } :: acc)
      | 'E' ->
        let prefix = r.R.pos in
        if R.u32 r <> crc32_update 0 s 0 prefix then
          R.corrupt "file checksum mismatch";
        List.rev acc
      | c -> R.corrupt "bad frame tag %C" c
    in
    Ok (sections [])
  with R.Corrupt m -> Error m

let find sections name =
  List.find_map (fun s -> if s.name = name then Some s.body else None) sections

(* --- file I/O with generations -------------------------------------------- *)

let previous_generation path = path ^ ".1"

let rotate path =
  if Sys.file_exists path then Sys.rename path (previous_generation path)

let write ~path sections =
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc ->
      output_string oc (stream (output_string oc) sections));
  rotate path;
  Sys.rename tmp path

(* Chaos hook: simulate the host dying mid-checkpoint. The previous
   generation has already been rotated out of the way (as a real
   checkpoint would), and the primary is left torn at [keep_bytes], never
   past the trailer's third byte — the on-disk state a kill -9 mid-write
   of a non-atomic writer would leave. [load] must reject it. *)
let write_torn ~path ~keep_bytes sections =
  rotate path;
  Out_channel.with_open_bin path (fun oc ->
      let left = ref (max 0 keep_bytes) in
      let emit s =
        let n = min !left (String.length s) in
        output_substring oc s 0 n;
        left := !left - n
      in
      emit (String.sub (stream emit sections) 0 3))

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
