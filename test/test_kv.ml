(* Tests for the KVS: WAL codec, store logic over the memory backend, and
   the full stack over the smart SSD data plane. *)

module Wal = Lastcpu_kv.Wal
module Store = Lastcpu_kv.Store
module Kv_proto = Lastcpu_kv.Kv_proto
module Kv_app = Lastcpu_kv.Kv_app
module Scenario = Lastcpu_core.Scenario_kvs
module System = Lastcpu_core.System

(* --- WAL ---------------------------------------------------------------- *)

let test_wal_roundtrip () =
  let records =
    [
      Wal.Put { key = "k1"; value = "v1" };
      Wal.Del { key = "k1" };
      Wal.Put { key = ""; value = "" };
      Wal.Put { key = "binary\x00key"; value = String.make 300 '\xff' };
    ]
  in
  let encoded = String.concat "" (List.map Wal.encode records) in
  let decoded, stop = Wal.decode_all encoded in
  Alcotest.(check int) "full parse" (String.length encoded) stop;
  Alcotest.(check int) "count" (List.length records) (List.length decoded);
  Alcotest.(check bool) "equal" true (records = decoded)

(* The record bytes are pinned: a Put and a Del with key lengths on both
   sides of the one-byte varint limit and values from empty to past
   64 KiB, each as its length, its first 16 bytes and its MD5 (taken when
   records were built by the growable field writer). Key byte [i] is
   [7i + 3] and value byte [i] is [13i + 5], both mod 256. *)
let test_wal_bytes_pinned () =
  let key n = String.init n (fun i -> Char.chr (((i * 7) + 3) land 0xff)) in
  let value n = String.init n (fun i -> Char.chr (((i * 13) + 5) land 0xff)) in
  let hex s =
    String.concat ""
      (List.init (min 16 (String.length s)) (fun i ->
           Printf.sprintf "%02x" (Char.code s.[i])))
  in
  let pins =
    [
      (0, Some 0, 11, "0300008012d941ff000000", "df4fb38c26877ac268e56055c700d15b");
      (0, Some 1, 12, "04000080d21a354800000105", "09df3d36c13e067e990391b0f088b39a");
      (0, Some 4096, 4108, "04100080478bb79a0000802005121f2c", "5adc46d67b2e2e39a18330a2cdd8163a");
      (0, Some 70000, 70013, "75110180ae5f816a0000f0a20405121f", "cd342747763ec5f46ec209041e18ed43");
      (0, None, 10, "02000080be23c2580100", "e56a48ef4ea26e647a605c2c999fca59");
      (127, Some 0, 138, "820000808089ab71007f030a11181f26", "74a1f550eb0d4e9137c2d2c8a176efcf");
      (127, Some 1, 139, "83000080ea02ba56007f030a11181f26", "82460c488043d556cf3b2ca4bd494f19");
      (127, Some 4096, 4235, "83100080e248002c007f030a11181f26", "b521900ec9115dab6dd6ad7fbf2f30f8");
      (127, Some 70000, 70140, "f411018082e8cb5d007f030a11181f26", "d74c499f3642ee797384d14f580e9027");
      (127, None, 137, "8100008081e785aa017f030a11181f26", "f02dbccc1b1db3d936ccfcda21efce84");
      (128, Some 0, 140, "84000080d7d72d19008001030a11181f", "87b0ded6010a15dd4d01fc9ba45c4c31");
      (128, Some 1, 141, "85000080e340dda3008001030a11181f", "0592c82e7a1007417c6584559ad1e174");
      (128, Some 4096, 4237, "85100080fe649f54008001030a11181f", "dad092b26c72afac5bf8692f3c73225e");
      (128, Some 70000, 70142, "f61101806bbe6174008001030a11181f", "756a8f3c6f0698ab5c06336243137a1e");
      (128, None, 139, "830000803f776f2c018001030a11181f", "b98cb195e33406e2bade55f5f8cfcfb9");
      (300, Some 0, 312, "3001008045b1268e00ac02030a11181f", "4295023aa8fcba141face84aae1729d1");
      (300, Some 1, 313, "31010080edb94bbd00ac02030a11181f", "b8f1e3146d6951c02a405636313db480");
      (300, Some 4096, 4409, "311100804c99a42300ac02030a11181f", "328c6de3a6861ca048d39adb6903bb19");
      (300, Some 70000, 70314, "a2120180e3e7942200ac02030a11181f", "7c54527fec3aff28788c2c2cd73ac561");
      (300, None, 311, "2f01008097132bff01ac02030a11181f", "39be9110b7e906e94c43de9173cea33a");
    ]
  in
  let records =
    List.map
      (fun (k, v, len, head, md5) ->
        let r =
          match v with
          | Some v -> Wal.Put { key = key k; value = value v }
          | None -> Wal.Del { key = key k }
        in
        let bytes = Wal.encode r in
        let name =
          Printf.sprintf "key %d, %s" k
            (match v with Some v -> Printf.sprintf "value %d" v | None -> "del")
        in
        Alcotest.(check (triple int string string))
          name (len, head, md5)
          (String.length bytes, hex bytes, Digest.to_hex (Digest.string bytes));
        (r, bytes))
      pins
  in
  let log = String.concat "" (List.map snd records) in
  let decoded, stop = Wal.decode_all log in
  Alcotest.(check int) "full parse" (String.length log) stop;
  Alcotest.(check bool) "round trip" true (List.map fst records = decoded)

let test_wal_torn_tail () =
  let r1 = Wal.encode (Wal.Put { key = "a"; value = "1" }) in
  let r2 = Wal.encode (Wal.Put { key = "b"; value = "2" }) in
  let torn = r1 ^ String.sub r2 0 (String.length r2 - 1) in
  let decoded, stop = Wal.decode_all torn in
  Alcotest.(check int) "one record" 1 (List.length decoded);
  Alcotest.(check int) "stops at torn record" (String.length r1) stop

let test_wal_garbage_tail () =
  let r1 = Wal.encode (Wal.Del { key = "x" }) in
  let garbage = r1 ^ "\x05\x00\x00\x00\xffgarb" in
  let decoded, _ = Wal.decode_all garbage in
  Alcotest.(check int) "garbage ignored" 1 (List.length decoded)

(* A record body damaged in place (bit rot, not truncation) must fail its
   CRC and stop the parse exactly like a torn tail. *)
let test_wal_crc_detects_bit_rot () =
  let r1 = Wal.encode (Wal.Put { key = "a"; value = "1" }) in
  let r2 = Wal.encode (Wal.Put { key = "b"; value = "2" }) in
  let flip s i =
    let b = Bytes.of_string s in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
    Bytes.to_string b
  in
  (* Flip one bit in r2's body (past its 8-byte header). *)
  let damaged = r1 ^ flip r2 9 in
  let decoded, stop = Wal.decode_all damaged in
  Alcotest.(check int) "stops before damaged record" 1 (List.length decoded);
  Alcotest.(check int) "damage point" (String.length r1) stop;
  (* A flipped CRC word (header damage) is caught the same way. *)
  let decoded, _ = Wal.decode_all (r1 ^ flip r2 5) in
  Alcotest.(check int) "crc word damage" 1 (List.length decoded)

(* A record framed without the CRC marker ([u32 len | body], no top bit)
   is not a record: replay keeps everything before it and stops there,
   exactly as at a torn tail. *)
let test_wal_rejects_unmarked_records () =
  let unmarked r =
    let framed = Wal.encode r in
    let body = String.sub framed 8 (String.length framed - 8) in
    let len = String.length body in
    let b = Bytes.create 4 in
    Bytes.set b 0 (Char.chr (len land 0xff));
    Bytes.set b 1 (Char.chr ((len lsr 8) land 0xff));
    Bytes.set b 2 (Char.chr ((len lsr 16) land 0xff));
    Bytes.set b 3 (Char.chr ((len lsr 24) land 0xff));
    Bytes.to_string b ^ body
  in
  let good = Wal.encode (Wal.Put { key = "new"; value = "v" }) in
  let log =
    good
    ^ unmarked (Wal.Put { key = "old"; value = "value" })
    ^ Wal.encode (Wal.Del { key = "new" })
  in
  let decoded, stop = Wal.decode_all log in
  Alcotest.(check bool) "records before it kept" true
    (decoded = [ Wal.Put { key = "new"; value = "v" } ]);
  Alcotest.(check int) "stops at the unmarked record" (String.length good) stop;
  let decoded, stop = Wal.decode_all (unmarked (Wal.Del { key = "old" })) in
  Alcotest.(check int) "nothing replayed" 0 (List.length decoded);
  Alcotest.(check int) "at start" 0 stop

let wal_prop =
  QCheck.Test.make ~name:"wal roundtrip arbitrary records" ~count:200
    QCheck.(list (pair string (option string)))
    (fun pairs ->
      let records =
        List.map
          (fun (key, v) ->
            match v with
            | Some value -> Wal.Put { key; value }
            | None -> Wal.Del { key })
          pairs
      in
      let encoded = String.concat "" (List.map Wal.encode records) in
      let decoded, _ = Wal.decode_all encoded in
      records = decoded)

(* --- Store over the memory backend ----------------------------------------- *)

let sync r = match !r with Some v -> v | None -> Alcotest.fail "not completed"

let test_store_basic () =
  let store = Store.create (Store.memory_backend ()) in
  let r = ref None in
  Store.put store ~key:"a" ~value:"1" (fun x -> r := Some x);
  (match sync r with Ok () -> () | Error e -> Alcotest.fail e);
  let g = ref None in
  Store.get store "a" (fun x -> g := Some x);
  Alcotest.(check (option string)) "get" (Some "1") (sync g);
  let d = ref None in
  Store.delete store "a" (fun x -> d := Some x);
  (match sync d with Ok true -> () | _ -> Alcotest.fail "delete");
  let g2 = ref None in
  Store.get store "a" (fun x -> g2 := Some x);
  Alcotest.(check (option string)) "gone" None (sync g2);
  let d2 = ref None in
  Store.delete store "a" (fun x -> d2 := Some x);
  match sync d2 with
  | Ok false -> ()
  | _ -> Alcotest.fail "absent delete should be Ok false"

let test_store_overwrite () =
  let store = Store.create (Store.memory_backend ()) in
  Store.put store ~key:"k" ~value:"old" (fun _ -> ());
  Store.put store ~key:"k" ~value:"new" (fun _ -> ());
  let g = ref None in
  Store.get store "k" (fun x -> g := Some x);
  Alcotest.(check (option string)) "latest" (Some "new") (sync g)

let test_store_recover_replays_log () =
  let backend = Store.memory_backend () in
  let store = Store.create backend in
  Store.put store ~key:"a" ~value:"1" (fun _ -> ());
  Store.put store ~key:"b" ~value:"2" (fun _ -> ());
  Store.delete store "a" (fun _ -> ());
  Store.put store ~key:"c" ~value:"3" (fun _ -> ());
  (* A second store over the same backend recovers the same state. *)
  let store2 = Store.create backend in
  let n = ref None in
  Store.recover store2 (fun x -> n := Some x);
  (match sync n with
  | Ok records -> Alcotest.(check int) "records" 4 records
  | Error e -> Alcotest.fail e);
  let check key expect =
    let g = ref None in
    Store.get store2 key (fun x -> g := Some x);
    Alcotest.(check (option string)) key expect (sync g)
  in
  check "a" None;
  check "b" (Some "2");
  check "c" (Some "3")

let test_store_scan_prefix () =
  let store = Store.create (Store.memory_backend ()) in
  List.iter
    (fun (k, v) -> Store.put store ~key:k ~value:v (fun _ -> ()))
    [ ("user:1", "alice"); ("user:2", "bob"); ("item:1", "x") ];
  let got = ref None in
  Store.scan_prefix store ~prefix:"user:" (fun pairs -> got := Some pairs);
  Alcotest.(check (list (pair string string)))
    "scan sorted"
    [ ("user:1", "alice"); ("user:2", "bob") ]
    (sync got)

let test_store_compact_preserves_state () =
  let backend = Store.memory_backend () in
  let store = Store.create backend in
  for i = 1 to 50 do
    Store.put store ~key:"hot" ~value:(string_of_int i) (fun _ -> ())
  done;
  Store.put store ~key:"cold" ~value:"keep" (fun _ -> ());
  let c = ref None in
  Store.compact store (fun x -> c := Some x);
  (match sync c with Ok () -> () | Error e -> Alcotest.fail e);
  (* Recovery after compaction sees only live records. *)
  let store2 = Store.create backend in
  let n = ref None in
  Store.recover store2 (fun x -> n := Some x);
  (match sync n with
  | Ok records -> Alcotest.(check int) "compacted to live set" 2 records
  | Error e -> Alcotest.fail e);
  let g = ref None in
  Store.get store2 "hot" (fun x -> g := Some x);
  Alcotest.(check (option string)) "hot" (Some "50") (sync g)

let store_model_prop =
  QCheck.Test.make ~name:"store matches Hashtbl model (memory backend)" ~count:100
    QCheck.(list (pair (int_bound 20) (option (string_of_size (Gen.return 5)))))
    (fun script ->
      let store = Store.create (Store.memory_backend ()) in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (k, v) ->
          let key = Printf.sprintf "k%d" k in
          match v with
          | Some value ->
            Store.put store ~key ~value (fun _ -> ());
            Hashtbl.replace model key value
          | None ->
            Store.delete store key (fun _ -> ());
            Hashtbl.remove model key)
        script;
      Hashtbl.fold
        (fun key expect acc ->
          let g = ref None in
          Store.get store key (fun x -> g := Some x);
          acc && !g = Some (Some expect))
        model true
      && Store.size store = Hashtbl.length model)

(* --- Kv_proto ------------------------------------------------------------------ *)

let test_kv_proto_roundtrips () =
  let reqs =
    [
      { Kv_proto.corr = 0; op = Kv_proto.Get "k" };
      { Kv_proto.corr = 123456; op = Kv_proto.Put ("key", String.make 200 'v') };
      { Kv_proto.corr = 7; op = Kv_proto.Del "" };
      { Kv_proto.corr = 9; op = Kv_proto.Scan "user:" };
    ]
  in
  List.iter
    (fun r ->
      match Kv_proto.decode_request (Kv_proto.encode_request r) with
      | Ok r' -> Alcotest.(check bool) "request roundtrip" true (r = r')
      | Error e -> Alcotest.fail e)
    reqs;
  let resps =
    [
      { Kv_proto.corr = 1; reply = Kv_proto.Value (Some "v") };
      { Kv_proto.corr = 2; reply = Kv_proto.Value None };
      { Kv_proto.corr = 3; reply = Kv_proto.Done };
      { Kv_proto.corr = 4; reply = Kv_proto.Deleted true };
      { Kv_proto.corr = 5; reply = Kv_proto.Pairs [ ("a", "1"); ("b", "2") ] };
      { Kv_proto.corr = 6; reply = Kv_proto.Failed "boom" };
    ]
  in
  List.iter
    (fun r ->
      match Kv_proto.decode_response (Kv_proto.encode_response r) with
      | Ok r' -> Alcotest.(check bool) "response roundtrip" true (r = r')
      | Error e -> Alcotest.fail e)
    resps

let test_kv_proto_rejects_garbage () =
  (match Kv_proto.decode_request "\xff\xff\xff" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage request accepted");
  match Kv_proto.decode_response "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty response accepted"

(* --- Full stack over the smart SSD ------------------------------------------------ *)

let test_kv_app_end_to_end_and_recovery () =
  match Scenario.run ~smoke_ops:0 () with
  | Error e -> Alcotest.fail e
  | Ok outcome ->
    let system = outcome.Scenario.system in
    let app = outcome.Scenario.app in
    (* Write a batch through the data plane. *)
    let pending = ref 0 in
    for i = 1 to 20 do
      incr pending;
      Kv_app.local_op app
        (Kv_proto.Put (Printf.sprintf "key%02d" i, Printf.sprintf "val%02d" i))
        (fun reply ->
          (match reply with
          | Kv_proto.Done -> ()
          | _ -> Alcotest.fail "put failed");
          decr pending)
    done;
    System.run_until_quiescent system;
    Alcotest.(check int) "all puts done" 0 !pending;
    (* Delete a few. *)
    for i = 1 to 5 do
      Kv_app.local_op app (Kv_proto.Del (Printf.sprintf "key%02d" i)) (fun _ -> ())
    done;
    System.run_until_quiescent system;
    (* Relaunch the app (same log file): state must be recovered from the
       SSD-resident WAL. *)
    let relaunched = ref None in
    let pasid = System.fresh_pasid system in
    Kv_app.launch ~nic:(System.nic system 0)
      ~memctl:(Lastcpu_devices.Memctl.id (System.memctl system))
      ~pasid ~shm_va:0x8000_0000L ~user:"kvs" ~log_path:"/kv/data.log"
      ~start_device:false ()
      (fun r -> relaunched := Some r);
    System.run_until_quiescent system;
    (match !relaunched with
    | Some (Ok app2) ->
      Alcotest.(check bool) "records recovered" true
        (Kv_app.recovered_records app2 >= 25);
      let check key expect =
        let g = ref None in
        Kv_app.local_op app2 (Kv_proto.Get key) (fun reply -> g := Some reply);
        System.run_until_quiescent system;
        match (!g, expect) with
        | Some (Kv_proto.Value got), _ ->
          Alcotest.(check (option string)) key expect got
        | _ -> Alcotest.fail "get failed"
      in
      check "key03" None;
      check "key10" (Some "val10");
      check "key20" (Some "val20")
    | Some (Error e) -> Alcotest.fail e
    | None -> Alcotest.fail "relaunch never completed")

let test_kv_network_path () =
  match Scenario.run ~smoke_ops:1 () with
  | Error e -> Alcotest.fail e
  | Ok outcome ->
    let system = outcome.Scenario.system in
    let net = System.net system in
    let nic_addr =
      Lastcpu_devices.Smart_nic.endpoint_address (System.nic system 0)
    in
    let client = Lastcpu_net.Netsim.endpoint net ~name:"remote-client" in
    let replies = ref [] in
    Lastcpu_net.Netsim.set_receiver client (fun ~src:_ frame ->
        match Kv_proto.decode_response frame with
        | Ok r -> replies := r :: !replies
        | Error e -> Alcotest.fail e);
    let send op corr =
      Lastcpu_net.Netsim.send client ~dst:nic_addr
        (Kv_proto.encode_request { Kv_proto.corr; op })
    in
    send (Kv_proto.Put ("remote", "hello")) 1;
    System.run_until_quiescent system;
    send (Kv_proto.Get "remote") 2;
    System.run_until_quiescent system;
    send (Kv_proto.Get "absent") 3;
    System.run_until_quiescent system;
    let by_corr c = List.find_opt (fun r -> r.Kv_proto.corr = c) !replies in
    (match by_corr 1 with
    | Some { Kv_proto.reply = Kv_proto.Done; _ } -> ()
    | _ -> Alcotest.fail "remote put failed");
    (match by_corr 2 with
    | Some { Kv_proto.reply = Kv_proto.Value (Some "hello"); _ } -> ()
    | _ -> Alcotest.fail "remote get failed");
    match by_corr 3 with
    | Some { Kv_proto.reply = Kv_proto.Value None; _ } -> ()
    | _ -> Alcotest.fail "absent get failed"

(* Crash consistency: write a prefix of the log (simulating a crash mid
   append), recover, and check the store equals the model of the durable
   prefix. *)
let crash_recovery_prop =
  QCheck.Test.make ~name:"recovery equals model of the durable prefix" ~count:50
    QCheck.(pair (list (pair (int_bound 10) (string_of_size (Gen.return 6)))) (int_bound 1000))
    (fun (ops, cut_permille) ->
      (* Build the full log. *)
      let records =
        List.map
          (fun (k, v) ->
            let key = Printf.sprintf "k%d" k in
            if String.length v > 0 && v.[0] < 'h' then Wal.Del { key }
            else Wal.Put { key; value = v })
          ops
      in
      let full = String.concat "" (List.map Wal.encode records) in
      (* Cut it at an arbitrary byte (torn write). *)
      let cut = String.length full * min cut_permille 1000 / 1000 in
      let torn = String.sub full 0 cut in
      let durable, _ = Wal.decode_all torn in
      (* Recover a store over the torn log. *)
      let backend =
        {
          Store.append = (fun _ k -> k (Ok ()));
          read_log = (fun k -> k (Ok torn));
          reset_log = (fun k -> k (Ok ()));
          replace_log = (fun _ k -> k (Ok ()));
        }
      in
      let store = Store.create backend in
      let recovered = ref (-1) in
      Store.recover store (fun r ->
          match r with Ok n -> recovered := n | Error _ -> ());
      (* Model over the durable prefix. *)
      let model = Hashtbl.create 8 in
      List.iter
        (function
          | Wal.Put { key; value } -> Hashtbl.replace model key value
          | Wal.Del { key } -> Hashtbl.remove model key)
        durable;
      !recovered = List.length durable
      && Store.size store = Hashtbl.length model
      && Hashtbl.fold
           (fun key expect acc ->
             let g = ref None in
             Store.get store key (fun x -> g := x);
             acc && !g = Some expect)
           model true)

let test_loader_service () =
  match Scenario.run ~smoke_ops:0 () with
  | Error e -> Alcotest.fail e
  | Ok outcome ->
    let system = outcome.Scenario.system in
    let ssd = System.ssd system 0 in
    let dev =
      Lastcpu_devices.Smart_nic.device (System.nic system 0)
    in
    (* Discover the loader service, then upload an image. *)
    let found = ref None in
    Lastcpu_device.Device.discover dev
      ~kind:Lastcpu_proto.Types.Loader_service ~query:"" (fun r -> found := r);
    System.run_until_quiescent system;
    (match !found with
    | Some (id, _) ->
      Alcotest.(check int) "loader on the ssd" (Lastcpu_devices.Smart_ssd.id ssd) id
    | None -> Alcotest.fail "loader not discovered");
    let loaded = ref None in
    Lastcpu_device.Device.request dev
      ~dst:(Lastcpu_proto.Types.Device (Lastcpu_devices.Smart_ssd.id ssd))
      (Lastcpu_proto.Message.Load_image { image = "kvs-v2.bin"; bytes = 8192L })
      (fun p -> loaded := Some p);
    System.run_until_quiescent system;
    (match !loaded with
    | Some (Lastcpu_proto.Message.App_message { tag = "load-ok"; _ }) -> ()
    | _ -> Alcotest.fail "load failed");
    (* The image landed in the SSD's file system. *)
    let fs = Lastcpu_devices.Smart_ssd.fs ssd in
    match Lastcpu_fs.Fs.stat fs "/images/kvs-v2.bin" with
    | Ok st -> Alcotest.(check int) "image size" 8192 st.Lastcpu_fs.Fs.size
    | Error e -> Alcotest.fail (Lastcpu_fs.Fs.error_to_string e)

let test_compact_through_data_plane () =
  match Scenario.run ~smoke_ops:0 () with
  | Error e -> Alcotest.fail e
  | Ok outcome ->
    let system = outcome.Scenario.system in
    let app = outcome.Scenario.app in
    let store = Kv_app.store app in
    (* Churn one key so the log holds mostly dead records. *)
    for i = 1 to 30 do
      Store.put store ~key:"churn" ~value:(string_of_int i) (fun _ -> ())
    done;
    Store.put store ~key:"keep" ~value:"stable" (fun _ -> ());
    System.run_until_quiescent system;
    let compacted = ref None in
    Store.compact store (fun r -> compacted := Some r);
    System.run_until_quiescent system;
    (match !compacted with
    | Some (Ok ()) -> ()
    | _ -> Alcotest.fail "compact failed");
    (* Relaunch: recovery must see only the live records. *)
    let relaunched = ref None in
    Kv_app.launch ~nic:(System.nic system 0)
      ~memctl:(Lastcpu_devices.Memctl.id (System.memctl system))
      ~pasid:(System.fresh_pasid system)
      ~shm_va:0x8800_0000L ~user:"kvs" ~log_path:"/kv/data.log"
      ~start_device:false ()
      (fun r -> relaunched := Some r);
    System.run_until_quiescent system;
    match !relaunched with
    | Some (Ok app2) ->
      Alcotest.(check int) "live records only" 2 (Kv_app.recovered_records app2);
      let g = ref None in
      Kv_app.local_op app2 (Kv_proto.Get "churn") (fun r -> g := Some r);
      System.run_until_quiescent system;
      (match !g with
      | Some (Kv_proto.Value (Some "30")) -> ()
      | _ -> Alcotest.fail "latest value lost by compaction")
    | _ -> Alcotest.fail "relaunch failed"

let test_crashed_compaction_leaves_old_log () =
  (* A compaction that crashed after writing the sidecar but before the
     rename must not affect recovery: the live log is untouched. *)
  match Scenario.run ~smoke_ops:0 () with
  | Error e -> Alcotest.fail e
  | Ok outcome ->
    let system = outcome.Scenario.system in
    let app = outcome.Scenario.app in
    for i = 1 to 8 do
      Store.put (Kv_app.store app)
        ~key:(Printf.sprintf "k%d" i) ~value:"v" (fun _ -> ())
    done;
    System.run_until_quiescent system;
    (* Simulate the crashed compaction: a stale sidecar full of garbage. *)
    let fs = Lastcpu_devices.Smart_ssd.fs (Lastcpu_core.System.ssd system 0) in
    (match Lastcpu_fs.Fs.create fs ~user:"kvs" "/kv/data.log.new" with
    | Ok () -> ()
    | Error e -> Alcotest.fail (Lastcpu_fs.Fs.error_to_string e));
    (match
       Lastcpu_fs.Fs.write fs ~user:"kvs" "/kv/data.log.new" ~off:0
         "\xde\xad\xbe\xef garbage snapshot"
     with
    | Ok () -> ()
    | Error e -> Alcotest.fail (Lastcpu_fs.Fs.error_to_string e));
    let relaunched = ref None in
    Kv_app.launch ~nic:(System.nic system 0)
      ~memctl:(Lastcpu_devices.Memctl.id (System.memctl system))
      ~pasid:(System.fresh_pasid system)
      ~shm_va:0x8C00_0000L ~user:"kvs" ~log_path:"/kv/data.log"
      ~start_device:false ()
      (fun r -> relaunched := Some r);
    System.run_until_quiescent system;
    (match !relaunched with
    | Some (Ok app2) ->
      Alcotest.(check int) "all records intact" 8 (Kv_app.recovered_records app2);
      (* And a fresh compaction overwrites the stale sidecar cleanly. *)
      let compacted = ref None in
      Store.compact (Kv_app.store app2) (fun r -> compacted := Some r);
      System.run_until_quiescent system;
      (match !compacted with
      | Some (Ok ()) -> ()
      | _ -> Alcotest.fail "compaction after crash failed")
    | _ -> Alcotest.fail "relaunch failed")

let () =
  Alcotest.run "kv"
    [
      ( "wal",
        [
          Alcotest.test_case "roundtrip" `Quick test_wal_roundtrip;
          Alcotest.test_case "bytes pinned" `Quick test_wal_bytes_pinned;
          Alcotest.test_case "torn tail" `Quick test_wal_torn_tail;
          Alcotest.test_case "garbage tail" `Quick test_wal_garbage_tail;
          Alcotest.test_case "crc detects bit rot" `Quick
            test_wal_crc_detects_bit_rot;
          Alcotest.test_case "legacy records" `Quick
            test_wal_rejects_unmarked_records;
          QCheck_alcotest.to_alcotest wal_prop;
        ] );
      ( "store",
        [
          Alcotest.test_case "basic ops" `Quick test_store_basic;
          Alcotest.test_case "overwrite" `Quick test_store_overwrite;
          Alcotest.test_case "recover" `Quick test_store_recover_replays_log;
          Alcotest.test_case "scan prefix" `Quick test_store_scan_prefix;
          Alcotest.test_case "compact" `Quick test_store_compact_preserves_state;
          QCheck_alcotest.to_alcotest store_model_prop;
        ] );
      ( "proto",
        [
          Alcotest.test_case "roundtrips" `Quick test_kv_proto_roundtrips;
          Alcotest.test_case "rejects garbage" `Quick test_kv_proto_rejects_garbage;
        ] );
      ( "full stack",
        [
          Alcotest.test_case "end to end + recovery" `Quick
            test_kv_app_end_to_end_and_recovery;
          Alcotest.test_case "network path" `Quick test_kv_network_path;
          Alcotest.test_case "loader service" `Quick test_loader_service;
          Alcotest.test_case "compaction" `Quick test_compact_through_data_plane;
          Alcotest.test_case "crashed compaction" `Quick
            test_crashed_compaction_leaves_old_log;
          QCheck_alcotest.to_alcotest crash_recovery_prop;
        ] );
    ]
