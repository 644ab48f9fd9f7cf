(* Tests for the SSD's block service: handle-based virtual block devices
   over the shared data plane, with per-connection handle isolation. *)

module System = Lastcpu_core.System
module Fs = Lastcpu_fs.Fs
module Smart_ssd = Lastcpu_devices.Smart_ssd
module Smart_nic = Lastcpu_devices.Smart_nic
module Memctl = Lastcpu_devices.Memctl
module File_client = Lastcpu_devices.File_client
module Ssd_proto = Lastcpu_devices.Ssd_proto

let rig () =
  let system = System.build () in
  let fs = Smart_ssd.fs (System.ssd system 0) in
  (match Fs.mkdir fs ~user:"root" ~mode:0o777 "/vol" with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Fs.error_to_string e));
  (match System.boot system with Ok () -> () | Error e -> Alcotest.fail e);
  let dev = Smart_nic.device (System.nic system 0) in
  let mc = Memctl.id (System.memctl system) in
  let fc = ref None in
  File_client.connect dev ~memctl:mc ~pasid:(System.fresh_pasid system)
    ~shm_va:0x4000_0000L ~user:"blk" ~path_hint:"/vol/disk0" (fun r ->
      fc := Result.to_option r);
  System.run_until_quiescent system;
  match !fc with
  | Some fc -> (system, dev, mc, fc)
  | None -> Alcotest.fail "connect failed"

let sync system r =
  System.run_until_quiescent system;
  match !r with Some v -> v | None -> Alcotest.fail "request never completed"

let bopen system fc path =
  let r = ref None in
  File_client.bopen fc path (fun x -> r := Some x);
  match sync system r with
  | Ok h -> h
  | Error e -> Alcotest.fail ("bopen: " ^ e)

let test_block_roundtrip () =
  let system, _, _, fc = rig () in
  let h = bopen system fc "/vol/disk0" in
  let block = String.init 512 (fun i -> Char.chr (i land 0xff)) in
  let w = ref None in
  File_client.bwrite fc ~handle:h ~lba:7 block (fun x -> w := Some x);
  (match sync system w with Ok () -> () | Error e -> Alcotest.fail e);
  let r = ref None in
  File_client.bread fc ~handle:h ~lba:7 ~count:1 (fun x -> r := Some x);
  (match sync system r with
  | Ok data -> Alcotest.(check string) "block data" block data
  | Error e -> Alcotest.fail e);
  (* Unwritten blocks read as zeroes (zero-padded). *)
  let r2 = ref None in
  File_client.bread fc ~handle:h ~lba:100 ~count:2 (fun x -> r2 := Some x);
  match sync system r2 with
  | Ok data ->
    Alcotest.(check int) "two blocks" 1024 (String.length data);
    Alcotest.(check char) "zero" '\000' data.[0]
  | Error e -> Alcotest.fail e

let test_block_alignment_enforced () =
  let system, _, _, fc = rig () in
  let h = bopen system fc "/vol/disk0" in
  let w = ref None in
  File_client.bwrite fc ~handle:h ~lba:0 "short" (fun x -> w := Some x);
  match sync system w with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unaligned write accepted"

let test_bad_handle_rejected () =
  let system, _, _, fc = rig () in
  let r = ref None in
  File_client.bread fc ~handle:999 ~lba:0 ~count:1 (fun x -> r := Some x);
  (match sync system r with
  | Error "bad handle" -> ()
  | Error e -> Alcotest.fail ("unexpected: " ^ e)
  | Ok _ -> Alcotest.fail "bad handle accepted");
  (* Close invalidates. *)
  let h = bopen system fc "/vol/disk0" in
  let c = ref None in
  File_client.bclose fc ~handle:h (fun x -> c := Some x);
  (match sync system c with Ok () -> () | Error e -> Alcotest.fail e);
  let r2 = ref None in
  File_client.bread fc ~handle:h ~lba:0 ~count:1 (fun x -> r2 := Some x);
  match sync system r2 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "closed handle accepted"

let test_handles_are_connection_scoped () =
  (* A handle opened on one connection is invalid on another, even for the
     same user and backing file: the device isolates instances (§2.1). *)
  let system, dev, mc, fc1 = rig () in
  let h = bopen system fc1 "/vol/disk0" in
  let fc2 = ref None in
  File_client.connect dev ~memctl:mc ~pasid:(System.fresh_pasid system)
    ~shm_va:0x4800_0000L ~user:"blk" ~path_hint:"/vol/disk0" (fun r ->
      fc2 := Result.to_option r);
  System.run_until_quiescent system;
  match !fc2 with
  | None -> Alcotest.fail "second connect failed"
  | Some fc2 ->
    let r = ref None in
    File_client.bread fc2 ~handle:h ~lba:0 ~count:1 (fun x -> r := Some x);
    (match sync system r with
    | Error "bad handle" -> ()
    | Error e -> Alcotest.fail ("unexpected: " ^ e)
    | Ok _ -> Alcotest.fail "cross-connection handle accepted")

let test_block_data_durable_via_fs () =
  (* Block writes land in the backing file: visible through the file API
     and thus durable through the same FTL. *)
  let system, _, _, fc = rig () in
  let h = bopen system fc "/vol/disk0" in
  let block = String.make 512 'B' in
  let w = ref None in
  File_client.bwrite fc ~handle:h ~lba:2 block (fun x -> w := Some x);
  (match sync system w with Ok () -> () | Error e -> Alcotest.fail e);
  let fs = Smart_ssd.fs (System.ssd system 0) in
  match Fs.read fs ~user:"root" "/vol/disk0" ~off:1024 ~len:512 with
  | Ok data -> Alcotest.(check string) "backing file holds the block" block data
  | Error e -> Alcotest.fail (Fs.error_to_string e)

let test_block_proto_roundtrip () =
  let reqs =
    [
      Ssd_proto.Bopen { path = "/vol/x"; block_size = 4096 };
      Ssd_proto.Bread { handle = 3; lba = 99; count = 8 };
      Ssd_proto.Bwrite { handle = 3; lba = 0; data = String.make 512 'x' };
      Ssd_proto.Bclose { handle = 3 };
    ]
  in
  List.iter
    (fun r ->
      match Ssd_proto.decode_request (Ssd_proto.encode_request r) with
      | Ok r' -> Alcotest.(check bool) "roundtrip" true (r = r')
      | Error e -> Alcotest.fail e)
    reqs;
  match Ssd_proto.decode_response (Ssd_proto.encode_response (Ssd_proto.Ok_handle 7)) with
  | Ok (Ssd_proto.Ok_handle 7) -> ()
  | _ -> Alcotest.fail "handle response roundtrip"

(* Zero-copy Ssd_proto variants: the into/view codecs must agree byte-for-
   byte with the string codecs, and the sizers with the encoders — the
   data plane trusts [request_size] to reserve virtqueue slot space. *)
let test_ssd_proto_view_roundtrip () =
  let module Slice = Lastcpu_proto.Slice in
  let reqs =
    [
      Ssd_proto.Create { path = "/vol/a"; mode = 0o644 };
      Ssd_proto.Unlink { path = "/vol/a" };
      Ssd_proto.Mkdir { path = "/vol/d"; mode = 0o755 };
      Ssd_proto.Read { path = "/vol/a"; off = 17; len = 4096 };
      Ssd_proto.Write { path = "/vol/a"; off = 0; data = String.make 100 '\xfe' };
      Ssd_proto.Stat { path = "/vol/a" };
      Ssd_proto.Readdir { path = "/vol" };
      Ssd_proto.Truncate { path = "/vol/a"; len = 12 };
      Ssd_proto.Fsync { path = "/vol/a" };
      Ssd_proto.Rename { from_path = "/vol/a"; to_path = "/vol/b" };
      Ssd_proto.Bopen { path = "/vol/x"; block_size = 4096 };
      Ssd_proto.Bread { handle = 3; lba = 99; count = 8 };
      Ssd_proto.Bwrite { handle = 3; lba = 0; data = String.make 512 'x' };
      Ssd_proto.Bclose { handle = 3 };
    ]
  in
  List.iter
    (fun r ->
      let str = Ssd_proto.encode_request r in
      Alcotest.(check int) "request_size = encode length" (String.length str)
        (Ssd_proto.request_size r);
      let v = Slice.create (String.length str + 5) in
      let n = Ssd_proto.encode_request_into r v ~pos:5 in
      Alcotest.(check int) "encode_into returns the sizer's answer"
        (Ssd_proto.request_size r) n;
      Alcotest.(check string) "same bytes as the string codec" str
        (Slice.to_string v ~pos:5 ~len:n);
      match Ssd_proto.decode_request_view ~pos:5 ~len:n v with
      | Ok r' -> Alcotest.(check bool) "view decode roundtrips" true (r = r')
      | Error e -> Alcotest.fail e)
    reqs;
  let resps =
    [
      Ssd_proto.Ok_unit;
      Ssd_proto.Ok_data (String.make 4096 '\x5a');
      Ssd_proto.Ok_names [ "a"; "b"; "longer-name" ];
      Ssd_proto.Ok_stat { size = 123; kind_dir = false; owner = "app1"; mode = 0o644 };
      Ssd_proto.Ok_handle 7;
      Ssd_proto.Err "no such file";
    ]
  in
  List.iter
    (fun r ->
      let str = Ssd_proto.encode_response r in
      Alcotest.(check int) "response_size = encode length" (String.length str)
        (Ssd_proto.response_size r);
      let v = Slice.create (String.length str) in
      let n = Ssd_proto.encode_response_into r v ~pos:0 in
      Alcotest.(check string) "same bytes as the string codec" str
        (Slice.to_string v ~pos:0 ~len:n);
      match Ssd_proto.decode_response_view v with
      | Ok r' -> Alcotest.(check bool) "view decode roundtrips" true (r = r')
      | Error e -> Alcotest.fail e)
    resps;
  (* A truncated window must fail cleanly, not read past ~len. *)
  let str = Ssd_proto.encode_request (Ssd_proto.Stat { path = "/vol/a" }) in
  let v = Slice.of_string str in
  match Ssd_proto.decode_request_view ~pos:0 ~len:(String.length str - 1) v with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated view decoded"

let () =
  Alcotest.run "block"
    [
      ( "block service",
        [
          Alcotest.test_case "proto roundtrip" `Quick test_block_proto_roundtrip;
          Alcotest.test_case "proto view roundtrip" `Quick
            test_ssd_proto_view_roundtrip;
          Alcotest.test_case "read/write roundtrip" `Quick test_block_roundtrip;
          Alcotest.test_case "alignment enforced" `Quick test_block_alignment_enforced;
          Alcotest.test_case "bad handle" `Quick test_bad_handle_rejected;
          Alcotest.test_case "connection-scoped handles" `Quick
            test_handles_are_connection_scoped;
          Alcotest.test_case "durable via fs" `Quick test_block_data_durable_via_fs;
        ] );
    ]
