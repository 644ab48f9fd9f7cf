(* SplitMix64 (Steele, Lea & Flood 2014). One 64-bit word of state; each
   output is a strong mix of a Weyl-sequence step, so [split] can derive an
   independent stream by seeding a new generator from the next output. *)

type t = {
  mutable state : int64;
  (* Zipf sampling caches the harmonic normalisation for a given (n, theta)
     because a workload draws millions of samples per config. *)
  mutable zipf_cache : (int * float * float) option;
}

let golden_gamma = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create ~seed = { state = seed; zipf_cache = None }

(* Stream-position accessors for checkpoint/restore. The zipf cache is
   deliberately not part of the captured state: it memoizes a pure
   function of (n, theta), so a restored generator recomputes it on first
   use with no observable difference. *)
let state t = t.state
let set_state t s = t.state <- s

let int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t = { state = int64 t; zipf_cache = None }

let copy t = { state = t.state; zipf_cache = t.zipf_cache }

let int t bound =
  assert (bound > 0);
  (* Rejection-free for practical bounds: take the high bits of the mix,
     reduce modulo bound. Bias is negligible for bound << 2^63. *)
  let r = Int64.shift_right_logical (int64 t) 1 in
  Int64.to_int (Int64.rem r (Int64.of_int bound))

let float t =
  (* 53 random bits into the mantissa. *)
  let bits = Int64.shift_right_logical (int64 t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let exponential t ~mean =
  let u = float t in
  (* u = 0. would give infinity; nudge into (0, 1]. *)
  let u = if u <= 0. then 1e-12 else u in
  -.mean *. log u

(* Zipf via the standard inverse-CDF over the generalized harmonic numbers;
   we cache zetan for the active (n, theta). Matches the YCSB generator's
   distribution (without its scrambling). *)
let zetan ~n ~theta =
  let acc = ref 0. in
  for i = 1 to n do
    acc := !acc +. (1. /. Float.pow (float_of_int i) theta)
  done;
  !acc

let zipf t ~n ~theta =
  assert (n > 0);
  if theta <= 0. then int t n
  else begin
    let zn =
      match t.zipf_cache with
      | Some (n', theta', z) when n' = n && theta' = theta -> z
      | Some _ | None ->
        let z = zetan ~n ~theta in
        t.zipf_cache <- Some (n, theta, z);
        z
    in
    let u = float t *. zn in
    let rec search i acc =
      if i > n then n - 1
      else
        let acc = acc +. (1. /. Float.pow (float_of_int i) theta) in
        if acc >= u then i - 1 else search (i + 1) acc
    in
    search 1 0.
  end

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
