(* Correctness gate. Every check that fails counts one failed op and keeps
   the first message; a run with any failure exits nonzero. *)

module Kv_proto = Lastcpu_kv.Kv_proto

type t = { mutable failed : int; mutable first : string option }

let create () = { failed = 0; first = None }

let fail ?(count = 1) t msg =
  t.failed <- t.failed + count;
  if t.first = None then t.first <- Some msg

let ok t = t.failed = 0

let require t cond msg = if not cond then fail t (msg ())

(* Every key is preloaded, so a Get must find a value, and that value must
   have been written for the key it was read from. *)
let check_reply op reply =
  match (op, reply) with
  | Kv_proto.Get k, Kv_proto.Value (Some v) ->
    if Gen.key_of_value v = Some k then Ok ()
    else Error (Printf.sprintf "get %s returned a value written for another key" k)
  | Kv_proto.Get k, Kv_proto.Value None -> Error (Printf.sprintf "get %s: missing" k)
  | Kv_proto.Put _, Kv_proto.Done -> Ok ()
  | _, Kv_proto.Failed m -> Error ("op failed: " ^ m)
  | _ -> Error "reply does not match its op"

(* The digest of an uninterrupted t16 ring at seed 42, pinned in
   DIGESTS_dataplane.txt. *)
let ring_digest_seed42 = 0xf95e7d50e64fa893L

let check_ring ~seed ~uninterrupted ~resumed =
  if resumed <> uninterrupted then
    Error
      (Printf.sprintf "resumed digest 0x%016Lx <> uninterrupted 0x%016Lx" resumed
         uninterrupted)
  else if seed = 42 && uninterrupted <> ring_digest_seed42 then
    Error (Printf.sprintf "seed-42 ring digest moved: 0x%016Lx" uninterrupted)
  else Ok ()
