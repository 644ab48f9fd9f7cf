(* Deterministic mutation primitives for the protocol fuzzer.

   Everything here draws from one SplitMix stream: the same seed yields
   the same mutant sequence on every run, which is what makes a fuzzing
   campaign a reproducible experiment (and a committable golden) instead
   of a flaky side-show. The primitives are byte- and scalar-level only —
   structure awareness (which field of which frame) lives with the code
   that owns the frame types. *)

type t = { rng : Rng.t }

let create ~seed = { rng = Rng.create ~seed }

(* Campaign checkpoint: the mutator is one stream position, so a resumed
   campaign continues the exact mutant sequence the uninterrupted one
   would have produced. The harness that owns the campaign (Protofuzz)
   embeds these in its own snapshot section. *)
let save w t = Snapshot.W.int64 w (Rng.state t.rng)
let restore r t = Rng.set_state t.rng (Snapshot.R.int64 r)
let pick t n = Rng.int t.rng n
let choice t arr = arr.(Rng.int t.rng (Array.length arr))
let byte t = Rng.int t.rng 256

(* Boundary values that historically break length/offset arithmetic. *)
let interesting_int64 =
  [|
    0L;
    1L;
    -1L;
    Int64.max_int;
    Int64.min_int;
    0x7FFFFFFFL;
    0xFFFFFFFFL;
    0x100000000L;
    4096L;
    -4096L;
  |]

let interesting_int = [| 0; 1; -1; max_int; min_int; 255; 256; 65535; 65536 |]

let mutate_int64 t v =
  match pick t 4 with
  | 0 -> choice t interesting_int64
  | 1 -> Int64.logxor v (Int64.shift_left 1L (pick t 64))
  | 2 -> Int64.add v (Int64.of_int (pick t 17 - 8))
  | _ -> Rng.int64 t.rng

let mutate_int t v =
  match pick t 4 with
  | 0 -> choice t interesting_int
  | 1 -> v lxor (1 lsl pick t 62)
  | 2 -> v + pick t 17 - 8
  | _ -> Int64.to_int (Rng.int64 t.rng)

let mutate_string t s =
  match pick t 4 with
  | 0 -> ""
  | 1 -> s ^ String.make (1 + pick t 8) (Char.chr (byte t))
  | 2 when String.length s > 0 -> String.sub s 0 (pick t (String.length s))
  | _ ->
    String.init
      (1 + pick t 12)
      (fun _ -> Char.chr (0x20 + pick t 0x5f))

(* --- byte-buffer mutations ---------------------------------------------- *)

let flip_bit t s =
  let n = String.length s in
  if n = 0 then s
  else begin
    let b = Bytes.of_string s in
    let bit = pick t (n * 8) in
    let i = bit / 8 in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (bit mod 8))));
    Bytes.to_string b
  end

let overwrite_byte t s =
  let n = String.length s in
  if n = 0 then s
  else begin
    let b = Bytes.of_string s in
    Bytes.set b (pick t n) (Char.chr (byte t));
    Bytes.to_string b
  end

let truncate t s =
  let n = String.length s in
  if n = 0 then s else String.sub s 0 (pick t n)

let extend t s = s ^ String.init (1 + pick t 8) (fun _ -> Char.chr (byte t))

let mutate_bytes t s =
  match pick t 4 with
  | 0 -> flip_bit t s
  | 1 -> overwrite_byte t s
  | 2 -> truncate t s
  | _ -> extend t s
