type key = int64

type t = {
  issuer : Types.device_id;
  subject : Types.device_id;
  pasid : Types.pasid;
  resource : string;
  base : Types.addr;
  length : int64;
  perm : Types.perm;
  nonce : int64;
  epoch : int;
  mac : int64;
}

(* Keyed FNV-1a over the serialised fields, then a SplitMix-style finaliser
   so single-bit changes diffuse across the whole MAC. *)
let fnv_prime = 0x100000001B3L

let mix_byte h b =
  Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) fnv_prime

let mix_int64 h v =
  let h = ref h in
  for shift = 0 to 7 do
    h := mix_byte !h (Int64.to_int (Int64.shift_right_logical v (shift * 8)))
  done;
  !h

let mix_string h s =
  let h = ref h in
  String.iter (fun c -> h := mix_byte !h (Char.code c)) s;
  !h

let finalize z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let compute_mac ~key t =
  let h = Int64.logxor 0xCBF29CE484222325L key in
  let h = mix_int64 h (Int64.of_int t.issuer) in
  let h = mix_int64 h (Int64.of_int t.subject) in
  let h = mix_int64 h (Int64.of_int t.pasid) in
  let h = mix_string h t.resource in
  let h = mix_int64 h t.base in
  let h = mix_int64 h t.length in
  let perm_bits =
    (if t.perm.Types.read then 1 else 0)
    lor (if t.perm.Types.write then 2 else 0)
    lor if t.perm.Types.exec then 4 else 0
  in
  let h = mix_int64 h (Int64.of_int perm_bits) in
  let h = mix_int64 h t.nonce in
  let h = mix_int64 h (Int64.of_int t.epoch) in
  finalize h

let mint ?(epoch = 0) ~key ~issuer ~subject ~pasid ~resource ~base ~length
    ~perm ~nonce () =
  let t =
    { issuer; subject; pasid; resource; base; length; perm; nonce; epoch;
      mac = 0L }
  in
  { t with mac = compute_mac ~key t }

let verify ~key t = Int64.equal (compute_mac ~key t) t.mac
