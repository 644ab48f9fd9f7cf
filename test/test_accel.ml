(* Tests for the accelerator device: job protocol, kernels, grant-gated
   data access, fault containment, and offload-vs-local equivalence. *)

module Types = Lastcpu_proto.Types
module System = Lastcpu_core.System
module Device = Lastcpu_device.Device
module Smart_nic = Lastcpu_devices.Smart_nic
module Memctl = Lastcpu_devices.Memctl
module Accel_dev = Lastcpu_devices.Accel_dev
module Accel_proto = Lastcpu_devices.Accel_proto
module Dma = Lastcpu_virtio.Dma
module Engine = Lastcpu_sim.Engine

(* --- protocol ------------------------------------------------------------ *)

let test_job_roundtrips () =
  let jobs =
    [
      Accel_proto.Checksum { va = 0x1000L; len = 64 };
      Accel_proto.Word_count { va = 0x2000L; len = 1024 };
      Accel_proto.Upper { src = 0x1000L; dst = 0x2000L; len = 100 };
      Accel_proto.Histogram { va = 0x1000L; len = 4096; dst = 0x8000L };
    ]
  in
  List.iter
    (fun j ->
      match Accel_proto.decode_job (Accel_proto.encode_job j) with
      | Ok j' -> Alcotest.(check bool) "job roundtrip" true (j = j')
      | Error e -> Alcotest.fail e)
    jobs;
  let outcomes =
    [ Accel_proto.Value 42L; Accel_proto.Written 2048; Accel_proto.Fault "x" ]
  in
  List.iter
    (fun o ->
      match Accel_proto.decode_outcome (Accel_proto.encode_outcome o) with
      | Ok o' -> Alcotest.(check bool) "outcome roundtrip" true (o = o')
      | Error e -> Alcotest.fail e)
    outcomes

let test_job_bytes () =
  Alcotest.(check int) "checksum" 100
    (Accel_proto.job_bytes (Accel_proto.Checksum { va = 0L; len = 100 }));
  Alcotest.(check int) "upper reads+writes" 200
    (Accel_proto.job_bytes (Accel_proto.Upper { src = 0L; dst = 0L; len = 100 }))

(* --- rig ------------------------------------------------------------------- *)

let rig () =
  let spec = { System.default_spec with System.accel_count = 1 } in
  let system = System.build ~spec () in
  (match System.boot system with Ok () -> () | Error e -> Alcotest.fail e);
  let dev = Smart_nic.device (System.nic system 0) in
  let mc = Memctl.id (System.memctl system) in
  let accel = System.accel system 0 in
  let pasid = System.fresh_pasid system in
  let va = 0x4000_0000L in
  let token = ref None in
  Device.alloc dev ~memctl:mc ~pasid ~va ~bytes:65536L ~perm:Types.perm_rw
    (fun r -> token := Result.to_option r);
  System.run_until_quiescent system;
  let token = match !token with Some t -> t | None -> Alcotest.fail "alloc" in
  let granted = ref false in
  Device.grant dev ~to_device:(Accel_dev.id accel) ~pasid ~va ~bytes:65536L
    ~perm:Types.perm_rw ~auth:token (fun r -> granted := Result.is_ok r);
  System.run_until_quiescent system;
  Alcotest.(check bool) "granted" true !granted;
  (system, dev, accel, pasid, va)

let submit_sync system dev accel pasid job =
  let outcome = ref None in
  Accel_dev.submit dev ~accel:(Accel_dev.id accel) ~pasid job (fun o ->
      outcome := Some o);
  System.run_until_quiescent system;
  match !outcome with Some o -> o | None -> Alcotest.fail "job never completed"

(* --- behaviour -------------------------------------------------------------- *)

let test_discoverable () =
  let system, dev, accel, _, _ = rig () in
  let found = ref None in
  Device.discover dev ~kind:Types.Compute_service ~query:"" (fun r ->
      found := Option.map fst r);
  System.run_until_quiescent system;
  Alcotest.(check (option int)) "found" (Some (Accel_dev.id accel)) !found

let test_checksum_matches_local () =
  let system, dev, accel, pasid, va = rig () in
  let dma = Device.dma dev ~pasid in
  Dma.write_bytes dma va "the quick brown fox jumps over the lazy dog";
  let remote = submit_sync system dev accel pasid (Accel_proto.Checksum { va; len = 44 }) in
  let local = ref None in
  Accel_dev.run_locally dev ~pasid (Accel_proto.Checksum { va; len = 44 })
    (fun o -> local := Some o);
  System.run_until_quiescent system;
  match (remote, !local) with
  | Accel_proto.Value a, Some (Accel_proto.Value b) ->
    Alcotest.(check int64) "same digest" a b
  | _ -> Alcotest.fail "checksum failed"

let test_word_count () =
  let system, dev, accel, pasid, va = rig () in
  let dma = Device.dma dev ~pasid in
  Dma.write_bytes dma va "  one two\tthree\nfour five  ";
  match submit_sync system dev accel pasid (Accel_proto.Word_count { va; len = 27 }) with
  | Accel_proto.Value n -> Alcotest.(check int64) "five words" 5L n
  | _ -> Alcotest.fail "word count failed"

let test_upper_transform () =
  let system, dev, accel, pasid, va = rig () in
  let dma = Device.dma dev ~pasid in
  Dma.write_bytes dma va "Hello, World!";
  let dst = Int64.add va 1024L in
  (match
     submit_sync system dev accel pasid
       (Accel_proto.Upper { src = va; dst; len = 13 })
   with
  | Accel_proto.Written 13 -> ()
  | _ -> Alcotest.fail "upper failed");
  Alcotest.(check string) "uppercased" "HELLO, WORLD!" (Dma.read_bytes dma dst 13)

let test_histogram () =
  let system, dev, accel, pasid, va = rig () in
  let dma = Device.dma dev ~pasid in
  Dma.write_bytes dma va "aabbbc";
  let dst = Int64.add va 2048L in
  (match
     submit_sync system dev accel pasid
       (Accel_proto.Histogram { va; len = 6; dst })
   with
  | Accel_proto.Written _ -> ()
  | _ -> Alcotest.fail "histogram failed");
  let count c =
    Dma.read_field64 dma (Int64.to_int dst + (8 * Char.code c))
  in
  Alcotest.(check int64) "a x2" 2L (count 'a');
  Alcotest.(check int64) "b x3" 3L (count 'b');
  Alcotest.(check int64) "c x1" 1L (count 'c');
  Alcotest.(check int64) "d x0" 0L (count 'd')

let test_ungranted_memory_faults () =
  let system, dev, accel, pasid, _ = rig () in
  (match
     submit_sync system dev accel pasid
       (Accel_proto.Checksum { va = 0x9999_0000L; len = 16 })
   with
  | Accel_proto.Fault _ -> ()
  | _ -> Alcotest.fail "ungranted access did not fault");
  Alcotest.(check int) "fault counted" 1 (Accel_dev.job_faults accel);
  (* The accelerator survives and still serves good jobs. *)
  let dma = Device.dma dev ~pasid in
  Dma.write_bytes dma 0x4000_0000L "ok";
  match
    submit_sync system dev accel pasid
      (Accel_proto.Checksum { va = 0x4000_0000L; len = 2 })
  with
  | Accel_proto.Value _ -> ()
  | _ -> Alcotest.fail "accelerator did not survive the fault"

let test_read_only_grant_blocks_writes () =
  (* Grant only read permission: a Histogram (which writes the result into
     the region) must fault; a Checksum must succeed. *)
  let spec = { System.default_spec with System.accel_count = 1 } in
  let system = System.build ~spec () in
  (match System.boot system with Ok () -> () | Error e -> Alcotest.fail e);
  let dev = Smart_nic.device (System.nic system 0) in
  let mc = Memctl.id (System.memctl system) in
  let accel = System.accel system 0 in
  let pasid = System.fresh_pasid system in
  let va = 0x4000_0000L in
  let token = ref None in
  Device.alloc dev ~memctl:mc ~pasid ~va ~bytes:8192L ~perm:Types.perm_rw
    (fun r -> token := Result.to_option r);
  System.run_until_quiescent system;
  let token = match !token with Some t -> t | None -> Alcotest.fail "alloc" in
  let granted = ref false in
  Device.grant dev ~to_device:(Accel_dev.id accel) ~pasid ~va ~bytes:8192L
    ~perm:Types.perm_r ~auth:token (fun r -> granted := Result.is_ok r);
  System.run_until_quiescent system;
  Alcotest.(check bool) "granted r/o" true !granted;
  (match
     submit_sync system dev accel pasid (Accel_proto.Checksum { va; len = 16 })
   with
  | Accel_proto.Value _ -> ()
  | _ -> Alcotest.fail "read under r/o grant failed");
  match
    submit_sync system dev accel pasid
      (Accel_proto.Histogram { va; len = 16; dst = Int64.add va 4096L })
  with
  | Accel_proto.Fault _ -> ()
  | _ -> Alcotest.fail "write under r/o grant did not fault"

let test_offload_time_scales_with_bytes () =
  let system, dev, accel, pasid, va = rig () in
  let engine = System.engine system in
  let time_of len =
    let t0 = Engine.now engine in
    ignore (submit_sync system dev accel pasid (Accel_proto.Checksum { va; len }));
    Int64.sub (Engine.now engine) t0
  in
  let small = time_of 64 in
  let large = time_of 32768 in
  Alcotest.(check bool) "large costs more" true (large > small);
  (* The difference should be roughly (32768-64) * accel_byte_ns. *)
  let expected = Int64.of_int (32768 - 64) in
  let diff = Int64.sub large small in
  Alcotest.(check bool)
    (Printf.sprintf "scaling ~1ns/B (diff %Ld vs %Ld)" diff expected)
    true
    (Int64.abs (Int64.sub diff expected) < 2000L)

let () =
  Alcotest.run "accel"
    [
      ( "protocol",
        [
          Alcotest.test_case "roundtrips" `Quick test_job_roundtrips;
          Alcotest.test_case "job bytes" `Quick test_job_bytes;
        ] );
      ( "jobs",
        [
          Alcotest.test_case "discoverable" `Quick test_discoverable;
          Alcotest.test_case "checksum offload==local" `Quick test_checksum_matches_local;
          Alcotest.test_case "word count" `Quick test_word_count;
          Alcotest.test_case "upper" `Quick test_upper_transform;
          Alcotest.test_case "histogram" `Quick test_histogram;
        ] );
      ( "isolation",
        [
          Alcotest.test_case "ungranted faults" `Quick test_ungranted_memory_faults;
          Alcotest.test_case "r/o grant blocks writes" `Quick
            test_read_only_grant_blocks_writes;
        ] );
      ( "costs",
        [
          Alcotest.test_case "scales with bytes" `Quick
            test_offload_time_scales_with_bytes;
        ] );
    ]
