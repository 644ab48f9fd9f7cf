open Wire

(* Tag space: one byte per payload constructor. Keep stable; tests pin it. *)
let tag_of_payload : Message.payload -> int = function
  | Device_alive _ -> 0
  | Heartbeat -> 1
  | Discover_request _ -> 2
  | Discover_response _ -> 3
  | Open_service _ -> 4
  | Open_response _ -> 5
  | Close_service _ -> 6
  | Alloc_request _ -> 7
  | Alloc_response _ -> 8
  | Map_directive _ -> 9
  | Grant_request _ -> 10
  | Map_complete _ -> 11
  | Free_request _ -> 12
  | Unmap_directive _ -> 13
  | Doorbell _ -> 14
  | Fault_notify _ -> 15
  | Resource_failed _ -> 16
  | Device_failed _ -> 17
  | Reset_device -> 18
  | Reset_resource _ -> 19
  | Load_image _ -> 20
  | Auth_request _ -> 21
  | Auth_response _ -> 22
  | Error_msg _ -> 23
  | App_message _ -> 24

let service_kind_tag (k : Types.service_kind) =
  match k with
  | File_service -> 0
  | Block_service -> 1
  | Memory_service -> 2
  | Socket_service -> 3
  | Console_service -> 4
  | Auth_service -> 5
  | Loader_service -> 6
  | Kv_service -> 7
  | Compute_service -> 8

let service_kind_of_tag = function
  | 0 -> Types.File_service
  | 1 -> Types.Block_service
  | 2 -> Types.Memory_service
  | 3 -> Types.Socket_service
  | 4 -> Types.Console_service
  | 5 -> Types.Auth_service
  | 6 -> Types.Loader_service
  | 7 -> Types.Kv_service
  | 8 -> Types.Compute_service
  | n -> raise (Malformed (Printf.sprintf "bad service kind %d" n))

let error_code_tag (e : Types.error_code) =
  match e with
  | E_no_such_service -> 0
  | E_access_denied -> 1
  | E_no_memory -> 2
  | E_bad_address -> 3
  | E_bad_token -> 4
  | E_device_failed -> 5
  | E_resource_failed -> 6
  | E_busy -> 7
  | E_not_found -> 8
  | E_exists -> 9
  | E_invalid -> 10

let error_code_of_tag = function
  | 0 -> Types.E_no_such_service
  | 1 -> Types.E_access_denied
  | 2 -> Types.E_no_memory
  | 3 -> Types.E_bad_address
  | 4 -> Types.E_bad_token
  | 5 -> Types.E_device_failed
  | 6 -> Types.E_resource_failed
  | 7 -> Types.E_busy
  | 8 -> Types.E_not_found
  | 9 -> Types.E_exists
  | 10 -> Types.E_invalid
  | n -> raise (Malformed (Printf.sprintf "bad error code %d" n))

(* --- encoding ----------------------------------------------------------- *)

let w_perm w (p : Types.perm) =
  Writer.byte w
    ((if p.read then 1 else 0)
    lor (if p.write then 2 else 0)
    lor if p.exec then 4 else 0)

let w_service w (s : Message.service_desc) =
  Writer.byte w (service_kind_tag s.kind);
  Writer.string w s.name;
  Writer.varint w s.version

let w_token w (t : Token.t) =
  Writer.varint w t.issuer;
  Writer.varint w t.subject;
  Writer.varint w t.pasid;
  Writer.string w t.resource;
  Writer.int64 w t.base;
  Writer.int64 w t.length;
  w_perm w t.perm;
  Writer.int64 w t.nonce;
  Writer.varint w t.epoch;
  Writer.int64 w t.mac

let w_kv w (k, v) =
  Writer.string w k;
  Writer.string w v

let w_payload w (p : Message.payload) =
  Writer.byte w (tag_of_payload p);
  match p with
  | Device_alive { services } -> Writer.list w w_service services
  | Heartbeat -> ()
  | Discover_request { kind; query } ->
    Writer.byte w (service_kind_tag kind);
    Writer.string w query
  | Discover_response { provider; service; query } ->
    Writer.varint w provider;
    w_service w service;
    Writer.string w query
  | Open_service { service; pasid; auth; params } ->
    w_service w service;
    Writer.varint w pasid;
    Writer.option w w_token auth;
    Writer.list w w_kv params
  | Open_response { accepted; connection; shm_bytes; error } ->
    Writer.bool w accepted;
    Writer.varint w connection;
    Writer.int64 w shm_bytes;
    Writer.option w (fun w e -> Writer.byte w (error_code_tag e)) error
  | Close_service { connection } -> Writer.varint w connection
  | Alloc_request { pasid; va; bytes; perm } ->
    Writer.varint w pasid;
    Writer.int64 w va;
    Writer.int64 w bytes;
    w_perm w perm
  | Alloc_response { ok; va; bytes; grant; error } ->
    Writer.bool w ok;
    Writer.int64 w va;
    Writer.int64 w bytes;
    Writer.option w w_token grant;
    Writer.option w (fun w e -> Writer.byte w (error_code_tag e)) error
  | Map_directive { device; pasid; va; pa; bytes; perm; auth } ->
    Writer.varint w device;
    Writer.varint w pasid;
    Writer.int64 w va;
    Writer.int64 w pa;
    Writer.int64 w bytes;
    w_perm w perm;
    w_token w auth
  | Grant_request { to_device; pasid; va; bytes; perm; auth } ->
    Writer.varint w to_device;
    Writer.varint w pasid;
    Writer.int64 w va;
    Writer.int64 w bytes;
    w_perm w perm;
    w_token w auth
  | Map_complete { pasid; va; ok } ->
    Writer.varint w pasid;
    Writer.int64 w va;
    Writer.bool w ok
  | Free_request { pasid; va; bytes } ->
    Writer.varint w pasid;
    Writer.int64 w va;
    Writer.int64 w bytes
  | Unmap_directive { device; pasid; va; bytes; auth } ->
    Writer.varint w device;
    Writer.varint w pasid;
    Writer.int64 w va;
    Writer.int64 w bytes;
    w_token w auth
  | Doorbell { queue } -> Writer.varint w queue
  | Fault_notify { pasid; va; detail } ->
    Writer.varint w pasid;
    Writer.int64 w va;
    Writer.string w detail
  | Resource_failed { resource } -> Writer.string w resource
  | Device_failed { device } -> Writer.varint w device
  | Reset_device -> ()
  | Reset_resource { resource } -> Writer.string w resource
  | Load_image { image; bytes } ->
    Writer.string w image;
    Writer.int64 w bytes
  | Auth_request { user; credential } ->
    Writer.string w user;
    Writer.string w credential
  | Auth_response { ok; session } ->
    Writer.bool w ok;
    Writer.option w w_token session
  | Error_msg { code; detail } ->
    Writer.byte w (error_code_tag code);
    Writer.string w detail
  | App_message { tag; body } ->
    Writer.string w tag;
    Writer.string w body

let w_dest w (d : Types.dest) =
  match d with
  | Device id ->
    Writer.byte w 0;
    Writer.varint w id
  | Bus -> Writer.byte w 1
  | Broadcast -> Writer.byte w 2

let w_message w (m : Message.t) =
  Writer.varint w m.src;
  w_dest w m.dst;
  Writer.varint w m.corr;
  w_payload w m.payload;
  (* Deadline trailer, after the payload so the header layout pinned by
     the conformance tests is untouched. Every frame carries it; one that
     ends at the payload is malformed. *)
  Writer.option w Writer.int64 m.deadline_ns

(* --- decoding ----------------------------------------------------------- *)

let r_perm r : Types.perm =
  let b = Reader.byte r in
  if b land lnot 7 <> 0 then raise (Malformed "bad perm bits");
  { read = b land 1 <> 0; write = b land 2 <> 0; exec = b land 4 <> 0 }

let r_service r : Message.service_desc =
  let kind = service_kind_of_tag (Reader.byte r) in
  let name = Reader.string r in
  let version = Reader.varint r in
  { kind; name; version }

let r_token r : Token.t =
  let issuer = Reader.varint r in
  let subject = Reader.varint r in
  let pasid = Reader.varint r in
  let resource = Reader.string r in
  let base = Reader.int64 r in
  let length = Reader.int64 r in
  let perm = r_perm r in
  let nonce = Reader.int64 r in
  let epoch = Reader.varint r in
  let mac = Reader.int64 r in
  { issuer; subject; pasid; resource; base; length; perm; nonce; epoch; mac }

let r_kv r =
  let k = Reader.string r in
  let v = Reader.string r in
  (k, v)

let decode_payload r : Message.payload =
  match Reader.byte r with
  | 0 -> Device_alive { services = Reader.list r r_service }
  | 1 -> Heartbeat
  | 2 ->
    let kind = service_kind_of_tag (Reader.byte r) in
    let query = Reader.string r in
    Discover_request { kind; query }
  | 3 ->
    let provider = Reader.varint r in
    let service = r_service r in
    let query = Reader.string r in
    Discover_response { provider; service; query }
  | 4 ->
    let service = r_service r in
    let pasid = Reader.varint r in
    let auth = Reader.option r r_token in
    let params = Reader.list r r_kv in
    Open_service { service; pasid; auth; params }
  | 5 ->
    let accepted = Reader.bool r in
    let connection = Reader.varint r in
    let shm_bytes = Reader.int64 r in
    let error = Reader.option r (fun r -> error_code_of_tag (Reader.byte r)) in
    Open_response { accepted; connection; shm_bytes; error }
  | 6 -> Close_service { connection = Reader.varint r }
  | 7 ->
    let pasid = Reader.varint r in
    let va = Reader.int64 r in
    let bytes = Reader.int64 r in
    let perm = r_perm r in
    Alloc_request { pasid; va; bytes; perm }
  | 8 ->
    let ok = Reader.bool r in
    let va = Reader.int64 r in
    let bytes = Reader.int64 r in
    let grant = Reader.option r r_token in
    let error = Reader.option r (fun r -> error_code_of_tag (Reader.byte r)) in
    Alloc_response { ok; va; bytes; grant; error }
  | 9 ->
    let device = Reader.varint r in
    let pasid = Reader.varint r in
    let va = Reader.int64 r in
    let pa = Reader.int64 r in
    let bytes = Reader.int64 r in
    let perm = r_perm r in
    let auth = r_token r in
    Map_directive { device; pasid; va; pa; bytes; perm; auth }
  | 10 ->
    let to_device = Reader.varint r in
    let pasid = Reader.varint r in
    let va = Reader.int64 r in
    let bytes = Reader.int64 r in
    let perm = r_perm r in
    let auth = r_token r in
    Grant_request { to_device; pasid; va; bytes; perm; auth }
  | 11 ->
    let pasid = Reader.varint r in
    let va = Reader.int64 r in
    let ok = Reader.bool r in
    Map_complete { pasid; va; ok }
  | 12 ->
    let pasid = Reader.varint r in
    let va = Reader.int64 r in
    let bytes = Reader.int64 r in
    Free_request { pasid; va; bytes }
  | 13 ->
    let device = Reader.varint r in
    let pasid = Reader.varint r in
    let va = Reader.int64 r in
    let bytes = Reader.int64 r in
    let auth = r_token r in
    Unmap_directive { device; pasid; va; bytes; auth }
  | 14 -> Doorbell { queue = Reader.varint r }
  | 15 ->
    let pasid = Reader.varint r in
    let va = Reader.int64 r in
    let detail = Reader.string r in
    Fault_notify { pasid; va; detail }
  | 16 -> Resource_failed { resource = Reader.string r }
  | 17 -> Device_failed { device = Reader.varint r }
  | 18 -> Reset_device
  | 19 -> Reset_resource { resource = Reader.string r }
  | 20 ->
    let image = Reader.string r in
    let bytes = Reader.int64 r in
    Load_image { image; bytes }
  | 21 ->
    let user = Reader.string r in
    let credential = Reader.string r in
    Auth_request { user; credential }
  | 22 ->
    let ok = Reader.bool r in
    let session = Reader.option r r_token in
    Auth_response { ok; session }
  | 23 ->
    let code = error_code_of_tag (Reader.byte r) in
    let detail = Reader.string r in
    Error_msg { code; detail }
  | 24 ->
    let tag = Reader.string r in
    let body = Reader.string r in
    App_message { tag; body }
  | n -> raise (Malformed (Printf.sprintf "bad payload tag %d" n))

let r_dest r : Types.dest =
  match Reader.byte r with
  | 0 -> Device (Reader.varint r)
  | 1 -> Bus
  | 2 -> Broadcast
  | n -> raise (Malformed (Printf.sprintf "bad dest tag %d" n))

let encode (m : Message.t) =
  let w = Writer.create () in
  w_message w m;
  Writer.contents w

let decode s =
  let r = Reader.of_string s in
  let src = Reader.varint r in
  let dst = r_dest r in
  let corr = Reader.varint r in
  let payload = decode_payload r in
  let deadline_ns = Reader.option r Reader.int64 in
  if not (Reader.at_end r) then raise (Malformed "trailing bytes");
  Message.make ?deadline_ns ~src ~dst ~corr payload

(* Framed form: the plain encoding plus a CRC-32 trailer. The unframed
   codec above is the pinned conformance surface (its byte layout is
   asserted by tests); framing wraps it for channels that want end-to-end
   corruption detection, e.g. under fault injection. *)
let frame body =
  let w = Writer.create () in
  Writer.int64 w (Int64.of_int (Wire.crc32 body));
  body ^ Writer.contents w

let encode_framed m = frame (encode m)

let decode_framed s =
  let n = String.length s in
  if n < 8 then raise (Malformed "framed message too short");
  let body = String.sub s 0 (n - 8) in
  let r = Reader.of_string (String.sub s (n - 8) 8) in
  let crc = Reader.int64 r in
  if Int64.of_int (Wire.crc32 body) <> crc then
    raise (Malformed "CRC mismatch");
  decode body

(* Typed decode surface for untrusted bytes. Anything a hostile or faulty
   peer puts on a lane must land here, never in the exception-raising
   decoders: a truncated varint, an out-of-range tag or a bad CRC become a
   value the caller can count and NACK, not an exception that unwinds the
   engine's event loop. *)
let result_of_decoder f s =
  match f s with
  | m -> Ok m
  | exception Malformed reason -> Error reason
  | exception Invalid_argument reason -> Error ("invalid: " ^ reason)
  | exception Failure reason -> Error ("failure: " ^ reason)

let decode_result s = result_of_decoder decode s
let decode_framed_result s = result_of_decoder decode_framed s
