(* Security tests: the isolation properties §2.2 assigns to the bus/IOMMU
   split, exercised end to end against a booted system. *)

module Types = Lastcpu_proto.Types
module Message = Lastcpu_proto.Message
module Token = Lastcpu_proto.Token
module Engine = Lastcpu_sim.Engine
module System = Lastcpu_core.System
module Scenario = Lastcpu_core.Scenario_kvs
module Sysbus = Lastcpu_bus.Sysbus
module Device = Lastcpu_device.Device
module Smart_nic = Lastcpu_devices.Smart_nic
module Smart_ssd = Lastcpu_devices.Smart_ssd
module Memctl = Lastcpu_devices.Memctl
module Auth_dev = Lastcpu_devices.Auth_dev
module Dma = Lastcpu_virtio.Dma
module Vq = Lastcpu_virtio.Virtqueue
module Iommu = Lastcpu_iommu.Iommu
module File_client = Lastcpu_devices.File_client
module Codec = Lastcpu_proto.Codec
module Slice = Lastcpu_proto.Slice
module Fuzz = Lastcpu_sim.Fuzz
module Netsim = Lastcpu_net.Netsim
module Kv_proto = Lastcpu_kv.Kv_proto
module Wal = Lastcpu_kv.Wal
module Ssd_proto = Lastcpu_devices.Ssd_proto
module Accel_proto = Lastcpu_devices.Accel_proto

let booted ?spec () =
  let system = System.build ?spec () in
  match System.boot system with
  | Ok () -> system
  | Error e -> Alcotest.fail e

let test_cross_pasid_no_access () =
  (* App A allocates memory; app B (same device, different PASID) cannot
     read it: the address is simply unmapped in B's address space. *)
  let system = booted () in
  let dev = Smart_nic.device (System.nic system 0) in
  let mc = Memctl.id (System.memctl system) in
  let pasid_a = System.fresh_pasid system in
  let pasid_b = System.fresh_pasid system in
  let allocated = ref false in
  Device.alloc dev ~memctl:mc ~pasid:pasid_a ~va:0x4000_0000L ~bytes:4096L
    ~perm:Types.perm_rw (fun r -> allocated := Result.is_ok r);
  System.run_until_quiescent system;
  Alcotest.(check bool) "A allocated" true !allocated;
  let dma_a = Device.dma dev ~pasid:pasid_a in
  Dma.write_field64 dma_a 0x4000_0000 0x5EC2E7L;
  let dma_b = Device.dma dev ~pasid:pasid_b in
  match Dma.read_field64 dma_b 0x4000_0000 with
  | _ -> Alcotest.fail "PASID isolation breached"
  | exception Dma.Dma_fault f ->
    Alcotest.(check bool) "not mapped for B" true (f.Iommu.reason = Iommu.Not_mapped)

let test_forged_alloc_response_cannot_map () =
  (* A malicious device sends a Map_directive with a token it minted
     itself (it is not the registered controller): the bus refuses. *)
  let system = booted () in
  let bus = System.bus system in
  let dev = Smart_nic.device (System.nic system 0) in
  let evil_key = 0xE717L in
  let token =
    Token.mint ~key:evil_key ~issuer:(Device.id dev) ~subject:(Device.id dev)
      ~pasid:33 ~resource:"dram" ~base:0x1000_0000L ~length:4096L
      ~perm:Types.perm_rw ~nonce:1L ()
  in
  Device.request dev ~dst:Types.Bus
    (Message.Map_directive
       {
         device = Device.id dev;
         pasid = 33;
         va = 0x4000_0000L;
         pa = 0x1000_0000L;
         bytes = 4096L;
         perm = Types.perm_rw;
         auth = token;
       })
    (fun _ -> ());
  System.run_until_quiescent system;
  Alcotest.(check bool) "token failure recorded" true
    ((Sysbus.counters bus).Sysbus.token_failures > 0);
  let dma = Device.dma dev ~pasid:33 in
  match Dma.read_field dma 0x4000_0000 1 with
  | _ -> Alcotest.fail "forged mapping installed"
  | exception Dma.Dma_fault _ -> ()

let test_replayed_token_for_wrong_range () =
  (* A legitimate token cannot be stretched: mapping outside its physical
     range is refused even with a valid MAC. *)
  let system = booted () in
  let dev = Smart_nic.device (System.nic system 0) in
  let mc = Memctl.id (System.memctl system) in
  let pasid = System.fresh_pasid system in
  let token = ref None in
  Device.alloc dev ~memctl:mc ~pasid ~va:0x4000_0000L ~bytes:4096L
    ~perm:Types.perm_rw (fun r -> token := Result.to_option r);
  System.run_until_quiescent system;
  match !token with
  | None -> Alcotest.fail "alloc failed"
  | Some tok ->
    (* Try to wield the token for a *different* virtual range with no
       backing mapping: grant must fail (owner has no mapping there). *)
    let denied = ref false in
    Device.grant dev
      ~to_device:(Smart_ssd.id (System.ssd system 0))
      ~pasid ~va:0x7777_0000L ~bytes:4096L ~perm:Types.perm_rw ~auth:tok
      (fun r -> denied := Result.is_error r);
    System.run_until_quiescent system;
    Alcotest.(check bool) "grant outside mapping denied" true !denied

let test_grant_perm_cannot_exceed_token () =
  let system = booted () in
  let dev = Smart_nic.device (System.nic system 0) in
  let mc = Memctl.id (System.memctl system) in
  let pasid = System.fresh_pasid system in
  let token = ref None in
  (* Read-only allocation. *)
  Device.alloc dev ~memctl:mc ~pasid ~va:0x4000_0000L ~bytes:4096L
    ~perm:Types.perm_r (fun r -> token := Result.to_option r);
  System.run_until_quiescent system;
  match !token with
  | None -> Alcotest.fail "alloc failed"
  | Some tok ->
    let denied = ref false in
    Device.grant dev
      ~to_device:(Smart_ssd.id (System.ssd system 0))
      ~pasid ~va:0x4000_0000L ~bytes:4096L ~perm:Types.perm_rw ~auth:tok
      (fun r -> denied := Result.is_error r);
    System.run_until_quiescent system;
    Alcotest.(check bool) "rw grant from r token denied" true !denied

let test_fs_access_control_cross_user () =
  (* §4 access control: per-file enforcement happens on the SSD. *)
  match Scenario.run ~smoke_ops:0 () with
  | Error e -> Alcotest.fail e
  | Ok outcome ->
    let system = outcome.Scenario.system in
    let fs = Smart_ssd.fs (System.ssd system 0) in
    (match Lastcpu_fs.Fs.chmod fs ~user:"root" "/kv/data.log" ~mode:0o600 with
    | Ok () -> ()
    | Error e -> Alcotest.fail (Lastcpu_fs.Fs.error_to_string e));
    (* A second client under a different user cannot read the KVS log. *)
    let dev = Smart_nic.device (System.nic system 0) in
    let fc = ref None in
    File_client.connect dev
      ~memctl:(Memctl.id (System.memctl system))
      ~pasid:(System.fresh_pasid system)
      ~shm_va:0xB000_0000L ~user:"mallory" ~path_hint:"/kv/data.log"
      (fun r -> fc := Result.to_option r);
    System.run_until_quiescent system;
    (match !fc with
    | None -> Alcotest.fail "connect failed"
    | Some fc ->
      let result = ref None in
      File_client.read fc "/kv/data.log" ~off:0 ~len:16 (fun r -> result := Some r);
      System.run_until_quiescent system;
      match !result with
      | Some (Error _) -> ()
      | Some (Ok _) -> Alcotest.fail "mallory read the log"
      | None -> Alcotest.fail "read never completed")

let test_session_tokens_required_when_auth_enabled () =
  let spec =
    {
      System.default_spec with
      with_auth = true;
      users = [ ("alice", "pw") ];
    }
  in
  let system = booted ~spec () in
  let dev = Smart_nic.device (System.nic system 0) in
  let mc = Memctl.id (System.memctl system) in
  (* Without a session token, opening the file service is denied. *)
  let fc = ref None in
  File_client.connect dev ~memctl:mc ~pasid:(System.fresh_pasid system)
    ~shm_va:0x4000_0000L ~user:"alice" ~path_hint:"" (fun r -> fc := Some r);
  System.run_until_quiescent system;
  (match !fc with
  | Some (Error _) -> ()
  | Some (Ok _) -> Alcotest.fail "open accepted without session"
  | None -> Alcotest.fail "connect never completed");
  (* Authenticate, then retry with the session token. *)
  let auth =
    match System.auth system with Some a -> a | None -> Alcotest.fail "no auth dev"
  in
  let session = ref None in
  Device.request dev ~dst:(Types.Device (Auth_dev.id auth))
    (Message.Auth_request { user = "alice"; credential = "pw" })
    (fun p ->
      match p with
      | Message.Auth_response { ok = true; session = Some s } -> session := Some s
      | _ -> ());
  System.run_until_quiescent system;
  match !session with
  | None -> Alcotest.fail "authentication failed"
  | Some s ->
    let fc2 = ref None in
    File_client.connect dev ~memctl:mc ~pasid:(System.fresh_pasid system)
      ~shm_va:0x4800_0000L ~user:"alice" ~path_hint:"" ~auth:s (fun r ->
        fc2 := Some r);
    System.run_until_quiescent system;
    (match !fc2 with
    | Some (Ok _) -> ()
    | Some (Error e) -> Alcotest.fail ("authorized open failed: " ^ e)
    | None -> Alcotest.fail "connect never completed")

let test_session_token_wrong_user_rejected () =
  let spec =
    {
      System.default_spec with
      with_auth = true;
      users = [ ("alice", "pw"); ("bob", "pw2") ];
    }
  in
  let system = booted ~spec () in
  let dev = Smart_nic.device (System.nic system 0) in
  let auth = Option.get (System.auth system) in
  let session = ref None in
  Device.request dev ~dst:(Types.Device (Auth_dev.id auth))
    (Message.Auth_request { user = "bob"; credential = "pw2" })
    (fun p ->
      match p with
      | Message.Auth_response { session = s; _ } -> session := s
      | _ -> ());
  System.run_until_quiescent system;
  match !session with
  | None -> Alcotest.fail "bob auth failed"
  | Some bob_session ->
    (* Present bob's session while claiming to be alice. *)
    let fc = ref None in
    File_client.connect dev
      ~memctl:(Memctl.id (System.memctl system))
      ~pasid:(System.fresh_pasid system)
      ~shm_va:0x4000_0000L ~user:"alice" ~path_hint:"" ~auth:bob_session
      (fun r -> fc := Some r);
    System.run_until_quiescent system;
    (match !fc with
    | Some (Error _) -> ()
    | Some (Ok _) -> Alcotest.fail "identity confusion accepted"
    | None -> Alcotest.fail "connect never completed")

(* --- Untrusted bytes ----------------------------------------------------- *)

(* A 9-byte LEB128 varint that decodes to -1: the length or count a
   hostile peer can put in any prefix position. *)
let negative_varint = "\xff\xff\xff\xff\xff\xff\xff\xff\x7f"

(* What a decoder of peer bytes is fed: every truncation of a valid
   encoding, the negative varint inserted at and written over every
   offset (so it lands in each length and count field), and seeded byte
   mutations. *)
let hostile_variants fuzz valid =
  let n = String.length valid in
  let offsets = List.init (n + 1) Fun.id in
  let truncations = List.map (fun k -> String.sub valid 0 k) offsets in
  let spliced =
    List.concat_map
      (fun i ->
        let pre = String.sub valid 0 i in
        let rest = String.sub valid i (n - i) in
        let over = if i < n then String.sub valid (i + 1) (n - i - 1) else "" in
        [ pre ^ negative_varint ^ rest; pre ^ negative_varint ^ over ])
      offsets
  in
  let mutants =
    List.init 64 (fun _ -> Fuzz.mutate_bytes fuzz (Fuzz.mutate_bytes fuzz valid))
  in
  truncations @ spliced @ mutants

(* [decode] must decode each valid encoding and return (never raise) on
   every hostile variant of it. *)
let check_total name decode valids =
  let fuzz = Fuzz.create ~seed:(Int64.of_int (Hashtbl.hash name)) in
  List.iter
    (fun valid ->
      (match decode valid with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s rejected a valid encoding: %s" name e);
      List.iter
        (fun input ->
          match decode input with
          | Ok _ | Error _ -> ()
          | exception e ->
            Alcotest.failf "%s raised %s on %S" name (Printexc.to_string e)
              input)
        (hostile_variants fuzz valid))
    valids

(* Slice decoders read a window inside a larger slice, so a count that
   runs past the window still lands on readable bytes. *)
let in_window decode s =
  decode ~pos:3 ~len:(String.length s) (Slice.of_string ("pad" ^ s ^ "tail"))

let kv_requests =
  List.map
    (fun op -> Kv_proto.encode_request { Kv_proto.corr = 300; op })
    [ Kv_proto.Get "key"; Put ("key", "value"); Del "k"; Scan "pre" ]

let kv_responses =
  List.map
    (fun reply -> Kv_proto.encode_response { Kv_proto.corr = 7; reply })
    [
      Kv_proto.Value (Some "v");
      Value None;
      Done;
      Deleted true;
      Pairs [ ("a", "1"); ("bc", "22") ];
      Failed "busy";
    ]

let ssd_requests =
  List.map Ssd_proto.encode_request
    [
      Ssd_proto.Write { path = "/f"; off = 200; data = "hello" };
      Read { path = "/f"; off = 0; len = 4096 };
      Rename { from_path = "/a"; to_path = "/b" };
      Bwrite { handle = 1; lba = 9; data = "blk" };
      Bread { handle = 1; lba = 9; count = 2 };
    ]

let ssd_responses =
  List.map Ssd_proto.encode_response
    [
      Ssd_proto.Ok_names [ "a"; "bc"; "" ];
      Ok_stat { size = 300; kind_dir = false; owner = "alice"; mode = 0o644 };
      Ok_data "payload";
      Ok_handle 4;
      Err "no such file";
    ]

let accel_jobs =
  List.map Accel_proto.encode_job
    [
      Accel_proto.Checksum { va = 0x4000_0000L; len = 300 };
      Upper { src = 0x4000_0000L; dst = 0x4000_1000L; len = 64 };
      Histogram { va = 0x4000_0000L; len = 128; dst = 0x4000_2000L };
    ]

let accel_outcomes =
  List.map Accel_proto.encode_outcome
    [ Accel_proto.Value 5L; Written 300; Fault "unmapped" ]

(* WAL record and framed bus frame bodies: the mutations are applied to
   the body, then framed with a valid CRC, so they reach the decoder. *)
let wal_frame body =
  let u32 v = String.init 4 (fun i -> Char.chr ((v lsr (8 * i)) land 0xff)) in
  u32 (String.length body lor 0x8000_0000)
  ^ u32 (Lastcpu_proto.Wire.crc32 body)
  ^ body

let wal_bodies =
  List.map
    (fun r ->
      let s = Wal.encode r in
      String.sub s 8 (String.length s - 8))
    [ Wal.Put { key = "key"; value = "value" }; Del { key = "gone" } ]

let codec_bodies =
  List.map
    (fun payload -> Codec.encode (Message.make ~src:2 ~dst:Types.Bus ~corr:5 payload))
    [
      Message.Device_alive
        {
          services =
            [
              { Message.kind = Types.Kv_service; name = "kv"; version = 1 };
              { kind = Types.File_service; name = "fs"; version = 2 };
            ];
        };
      App_message { tag = "job-submit"; body = "body" };
    ]

let test_app_decoders_total () =
  check_total "Kv_proto.decode_request" Kv_proto.decode_request kv_requests;
  check_total "Kv_proto.decode_response" Kv_proto.decode_response kv_responses;
  check_total "Ssd_proto.decode_request" Ssd_proto.decode_request ssd_requests;
  check_total "Ssd_proto.decode_request_view"
    (in_window (fun ~pos ~len -> Ssd_proto.decode_request_view ~pos ~len))
    ssd_requests;
  check_total "Ssd_proto.decode_response" Ssd_proto.decode_response
    ssd_responses;
  check_total "Ssd_proto.decode_response_view"
    (in_window (fun ~pos ~len -> Ssd_proto.decode_response_view ~pos ~len))
    ssd_responses;
  check_total "Accel_proto.decode_job" Accel_proto.decode_job accel_jobs;
  check_total "Accel_proto.decode_outcome" Accel_proto.decode_outcome
    accel_outcomes;
  check_total "Smart_ssd.decode_vq_attach" Smart_ssd.decode_vq_attach
    [
      Smart_ssd.encode_vq_attach ~queue:2 ~base:0x4000_0000L ~size:256
        ~pasid:7 ~user:"alice";
    ];
  check_total "Wal.decode_all"
    (fun body -> Ok (Wal.decode_all (wal_frame body)))
    wal_bodies;
  check_total "Codec.decode_framed_result"
    (fun body -> Codec.decode_framed_result (Codec.frame body))
    codec_bodies

(* A KV request whose key length is the negative varint: corr 1, op Get,
   then a length of -1. *)
let test_hostile_kv_frame_contained () =
  match Scenario.run ~smoke_ops:1 () with
  | Error e -> Alcotest.fail e
  | Ok outcome ->
    let system = outcome.Scenario.system in
    let nic_addr = Smart_nic.endpoint_address (System.nic system 0) in
    let peer = Netsim.endpoint (System.net system) ~name:"hostile-peer" in
    let replies = ref [] in
    Netsim.set_receiver peer (fun ~src:_ frame ->
        match Kv_proto.decode_response frame with
        | Ok r -> replies := r :: !replies
        | Error e -> Alcotest.fail e);
    let frame = "\x01\x00" ^ negative_varint in
    Alcotest.(check int) "an 11-byte frame" 11 (String.length frame);
    Netsim.send peer ~dst:nic_addr frame;
    System.run_until_quiescent system;
    Netsim.send peer ~dst:nic_addr
      (Kv_proto.encode_request { Kv_proto.corr = 2; op = Kv_proto.Get "absent" });
    System.run_until_quiescent system;
    match !replies with
    | [ { Kv_proto.corr = 2; reply = Kv_proto.Value None } ] -> ()
    | _ -> Alcotest.fail "the Get after the hostile frame was not answered"

(* A NIC-side virtqueue of 8 descriptors attached to SSD 0 over granted
   shared memory at [shm], with a Stat request written at [req_va]. [post]
   chains a request and a response buffer; [serve] rings the doorbell,
   runs the system and returns the completions. *)
let attached_ssd_queue () =
  let system = booted () in
  let dev = Smart_nic.device (System.nic system 0) in
  let ssd = Smart_ssd.id (System.ssd system 0) in
  let pasid = System.fresh_pasid system in
  let shm = 0x4000_0000L and bytes = 65536L in
  let token = ref None in
  Device.alloc dev ~memctl:(Memctl.id (System.memctl system)) ~pasid ~va:shm
    ~bytes ~perm:Types.perm_rw (fun r -> token := Result.to_option r);
  System.run_until_quiescent system;
  let granted = ref false in
  (match !token with
  | None -> Alcotest.fail "alloc failed"
  | Some auth ->
    Device.grant dev ~to_device:ssd ~pasid ~va:shm ~bytes ~perm:Types.perm_rw
      ~auth (fun r -> granted := Result.is_ok r));
  System.run_until_quiescent system;
  Alcotest.(check bool) "shared memory granted" true !granted;
  let dma = Device.dma dev ~pasid in
  let driver = Vq.Driver.create ~dma ~base:shm ~size:8 in
  let queue = Device.fresh_queue_id dev in
  let attached = ref false in
  Device.request dev ~dst:(Types.Device ssd)
    (Message.App_message
       {
         tag = "vq-attach";
         body =
           Smart_ssd.encode_vq_attach ~queue ~base:shm ~size:8 ~pasid
             ~user:"root";
       })
    (function
      | Message.App_message { tag = "vq-ok"; _ } -> attached := true
      | _ -> ());
  System.run_until_quiescent system;
  Alcotest.(check bool) "queue attached" true !attached;
  let request = Ssd_proto.encode_request (Ssd_proto.Stat { path = "/" }) in
  let req_va = Int64.add shm 8192L in
  Dma.write_bytes dma req_va request;
  let post req resp =
    match
      Vq.Driver.add driver
        [
          { Vq.va = req; len = String.length request; writable = false };
          { Vq.va = resp; len = 512; writable = true };
        ]
    with
    | Ok head -> head
    | Error e -> Alcotest.fail e
  in
  let serve () =
    Device.doorbell dev ~dst:ssd ~queue;
    System.run_until_quiescent system;
    let rec completions acc =
      match Vq.Driver.poll_used driver with
      | Some c -> completions (c :: acc)
      | None -> List.rev acc
    in
    completions []
  in
  (dma, shm, req_va, post, serve)

let check_directory_stat dma resp_va written =
  match Ssd_proto.decode_response (Dma.read_bytes dma resp_va written) with
  | Ok (Ssd_proto.Ok_stat { kind_dir = true; _ }) -> ()
  | _ -> Alcotest.fail "the good chain's response is not a directory stat"

(* Descriptor buffer addresses are written by the peer. A buffer outside
   the SSD's mapping faults its own chain only: that chain completes with
   nothing written and the chain after it is still served. *)
let test_ssd_bad_chain_contained () =
  let dma, shm, req_va, post, serve = attached_ssd_queue () in
  let resp_va = Int64.add shm 12288L in
  let outside = 0x7000_0000L in
  let bad_request = post outside resp_va in
  let bad_response = post req_va outside in
  let good = post req_va resp_va in
  match serve () with
  | [ (h1, 0); (h2, 0); (h3, written) ] when written > 0 ->
    Alcotest.(check (list int)) "completion order"
      [ bad_request; bad_response; good ] [ h1; h2; h3 ];
    check_directory_stat dma resp_va written
  | _ -> Alcotest.fail "expected two empty completions, then the good chain"

(* Descriptor links are written by the peer too. A chain whose last
   descriptor links back to its head loops, and one whose link names a
   descriptor past the table points outside the grant: each completes
   with nothing written, no exception leaves the SSD, and the chain after
   them is still served. *)
let test_ssd_bad_links_contained () =
  let dma, shm, req_va, post, serve = attached_ssd_queue () in
  let resp_va = Int64.add shm 12288L in
  (* Flags at byte 12 of a descriptor, next at byte 14. *)
  let set_link d ~next =
    Dma.write_field dma (Int64.to_int shm + (16 * d) + 12) 2 1;
    Dma.write_field dma (Int64.to_int shm + (16 * d) + 14) 2 next
  in
  let second head = Dma.read_field dma (Int64.to_int shm + (16 * head) + 14) 2 in
  let looped = post req_va (Int64.add shm 16384L) in
  set_link (second looped) ~next:looped;
  let escaping = post req_va (Int64.add shm 20480L) in
  set_link (second escaping) ~next:65535;
  let good = post req_va resp_va in
  match serve () with
  | [ (h1, 0); (h2, 0); (h3, written) ] when written > 0 ->
    Alcotest.(check (list int)) "completion order" [ looped; escaping; good ]
      [ h1; h2; h3 ];
    check_directory_stat dma resp_va written
  | _ -> Alcotest.fail "expected two empty completions, then the good chain"

(* Descriptor links the client posted are peer memory once posted. When
   one is rewritten before the SSD serves the chain, File_client still
   answers that request, with an error, and its slot and descriptors come
   back: every slot then serves a request again. *)
let test_file_client_rewritten_link () =
  let system = booted () in
  let dev = Smart_nic.device (System.nic system 0) in
  let pasid = System.fresh_pasid system in
  let shm = 0x4000_0000L in
  let fc = ref None in
  File_client.connect dev ~memctl:(Memctl.id (System.memctl system)) ~pasid
    ~shm_va:shm ~user:"root" ~path_hint:"/" (fun r -> fc := Result.to_option r);
  System.run_until_quiescent system;
  let fc = match !fc with Some fc -> fc | None -> Alcotest.fail "connect failed" in
  let first = ref None in
  File_client.stat fc "/" (fun r -> first := Some r);
  (* The first chain heads descriptor 0 and links to 1; its next field
     is at byte 14. Point it at free descriptor 2. *)
  Dma.write_field (Device.dma dev ~pasid) (Int64.to_int shm + 14) 2 2;
  System.run_until_quiescent system;
  (match !first with
  | Some (Error _) -> ()
  | Some (Ok _) -> Alcotest.fail "the rewritten chain answered Ok"
  | None -> Alcotest.fail "the rewritten chain was never answered");
  let answered = ref 0 in
  for _ = 1 to 32 do
    File_client.stat fc "/" (function Ok (_, true) -> incr answered | _ -> ())
  done;
  System.run_until_quiescent system;
  Alcotest.(check int) "every slot serves again" 32 !answered

let () =
  Alcotest.run "security"
    [
      ( "memory isolation",
        [
          Alcotest.test_case "cross-pasid" `Quick test_cross_pasid_no_access;
          Alcotest.test_case "forged directive" `Quick test_forged_alloc_response_cannot_map;
          Alcotest.test_case "token range pinned" `Quick test_replayed_token_for_wrong_range;
          Alcotest.test_case "grant perm bounded" `Quick test_grant_perm_cannot_exceed_token;
        ] );
      ( "access control",
        [
          Alcotest.test_case "fs cross-user" `Quick test_fs_access_control_cross_user;
          Alcotest.test_case "session required" `Quick
            test_session_tokens_required_when_auth_enabled;
          Alcotest.test_case "session user binding" `Quick
            test_session_token_wrong_user_rejected;
        ] );
      ( "untrusted bytes",
        [
          Alcotest.test_case "app decoders never raise" `Quick
            test_app_decoders_total;
          Alcotest.test_case "hostile kv frame contained" `Quick
            test_hostile_kv_frame_contained;
          Alcotest.test_case "ssd bad chain contained" `Quick
            test_ssd_bad_chain_contained;
          Alcotest.test_case "ssd bad links contained" `Quick
            test_ssd_bad_links_contained;
          Alcotest.test_case "file client rewritten link" `Quick
            test_file_client_rewritten_link;
        ] );
    ]
