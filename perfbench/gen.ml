(* Seeded input generators. Every workload's inputs are a pure function of
   the benchmark seed; the machine under test only ever sees the values
   produced here (ops, keys, values, start offsets, its spec seed). *)

module Kv_proto = Lastcpu_kv.Kv_proto

let state ~seed ~salt = Random.State.make [| seed; salt |]
let key i = Printf.sprintf "k%05d" i

(* A value names the key it was written for and its version, padded to
   [bytes]. The correctness gate checks every Get reply against it. *)
let value ~key ~version ~bytes =
  let head = Printf.sprintf "%s=%d|" key version in
  let n = String.length head in
  if n >= bytes then head else head ^ String.make (bytes - n) 'v'

let key_of_value v =
  match String.index_opt v '=' with
  | Some i -> Some (String.sub v 0 i)
  | None -> None

(* Zipf over [0, n) as a cumulative table; a draw is one uniform float and
   a binary search. *)
let zipf_table ~n ~theta =
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. (1. /. Float.pow (float_of_int (i + 1)) theta);
    cdf.(i) <- !acc
  done;
  Array.map (fun c -> c /. !acc) cdf

let zipf_draw st cdf =
  let u = Random.State.float st 1. in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

type kv_mix = {
  clients : int;
  ops_per_client : int;
  keys : int;
  value_bytes : int;
  get_pct : int;
  zipf_theta : float option;  (** [None] = uniform key choice *)
}

let preload mix =
  List.init mix.keys (fun i ->
      let k = key i in
      (k, value ~key:k ~version:0 ~bytes:mix.value_bytes))

(* One op array per client. Put versions are unique across the whole run,
   so every value ever written is distinguishable. *)
let kv_ops mix ~seed =
  let cdf =
    Option.map (fun theta -> zipf_table ~n:mix.keys ~theta) mix.zipf_theta
  in
  Array.init mix.clients (fun c ->
      let st = state ~seed ~salt:(c + 1) in
      Array.init mix.ops_per_client (fun j ->
          let k =
            key
              (match cdf with
              | Some cdf -> zipf_draw st cdf
              | None -> Random.State.int st mix.keys)
          in
          if Random.State.int st 100 < mix.get_pct then Kv_proto.Get k
          else
            let version = 1 + (c * mix.ops_per_client) + j in
            Kv_proto.Put (k, value ~key:k ~version ~bytes:mix.value_bytes)))

(* Control-churn apps: a seeded start offset (so the apps' cycles
   interleave differently per seed) and a seeded VA slot. *)
type churn_app = { stagger_ns : int64; va : int64 }

let churn_apps ~apps ~seed =
  let st = state ~seed ~salt:0xc4 in
  Array.init apps (fun i ->
      let stagger_ns = Int64.of_int (Random.State.int st 20_000) in
      let slot = Random.State.int st 16 in
      let va =
        Int64.add 0x6000_0000L (Int64.of_int ((i * 0x100_0000) + (slot * 0x10000)))
      in
      { stagger_ns; va })

(* The machine's own spec seed, drawn rather than passed through, so that
   seeds 1 and 2 do not give neighbouring engine streams. *)
let spec_seed ~seed ~salt = Random.State.int64 (state ~seed ~salt) Int64.max_int
