(* Containment tests: capability epochs and revocation, the quarantine
   state machine, re-admission handshakes, hardened decoding, free
   ownership, and frame scrubbing — the negative-path surface the rogue
   device (T17) and the protocol fuzzer lean on. *)

module Types = Lastcpu_proto.Types
module Message = Lastcpu_proto.Message
module Token = Lastcpu_proto.Token
module Codec = Lastcpu_proto.Codec
module Engine = Lastcpu_sim.Engine
module Snapshot = Lastcpu_sim.Snapshot
module Iommu = Lastcpu_iommu.Iommu
module Sysbus = Lastcpu_bus.Sysbus
module System = Lastcpu_core.System
module Checkpoint = Lastcpu_core.Checkpoint
module Experiments = Lastcpu_core.Experiments
module Device = Lastcpu_device.Device
module Smart_nic = Lastcpu_devices.Smart_nic
module Memctl = Lastcpu_devices.Memctl
module Dma = Lastcpu_virtio.Dma

(* --- Token.verify negative paths ----------------------------------------- *)

let key = 0xFEED_FACEL

let mk_token ?(epoch = 0) () =
  Token.mint ~epoch ~key ~issuer:1 ~subject:2 ~pasid:7 ~resource:"dram"
    ~base:0x4000L ~length:8192L ~perm:Types.perm_rw ~nonce:0xABCL ()

let test_every_field_covered () =
  let t = mk_token () in
  Alcotest.(check bool) "pristine verifies" true (Token.verify ~key t);
  let mutants =
    [
      ("issuer", { t with Token.issuer = t.Token.issuer + 1 });
      ("subject", { t with Token.subject = t.Token.subject + 1 });
      ("pasid", { t with Token.pasid = t.Token.pasid + 1 });
      ("resource", { t with Token.resource = "dram2" });
      ("base", { t with Token.base = Int64.add t.Token.base 4096L });
      ("length", { t with Token.length = Int64.add t.Token.length 4096L });
      ("perm", { t with Token.perm = Types.perm_r });
      ("nonce", { t with Token.nonce = Int64.add t.Token.nonce 1L });
      ("epoch", { t with Token.epoch = t.Token.epoch + 1 });
      ("mac", { t with Token.mac = Int64.lognot t.Token.mac });
    ]
  in
  List.iter
    (fun (field, mutant) ->
      Alcotest.(check bool)
        (field ^ " alteration detected")
        false
        (Token.verify ~key mutant))
    mutants;
  Alcotest.(check bool)
    "wrong key rejected" false
    (Token.verify ~key:(Int64.add key 1L) t)

let test_epoch_in_mac () =
  (* Same fields, different epoch: different MAC — a revoked-era token
     cannot be "promoted" by rewriting its epoch field. *)
  let t0 = mk_token ~epoch:0 () in
  let t1 = mk_token ~epoch:1 () in
  Alcotest.(check bool) "epoch-1 mint verifies" true (Token.verify ~key t1);
  Alcotest.(check bool)
    "macs differ across epochs" false
    (Int64.equal t0.Token.mac t1.Token.mac);
  Alcotest.(check bool)
    "rewritten epoch fails" false
    (Token.verify ~key { t0 with Token.epoch = 1 })

(* --- hardened decoding ---------------------------------------------------- *)

let test_decode_never_raises () =
  let good = Codec.encode_framed (Message.make ~src:3 ~dst:Types.Bus ~corr:1 Message.Heartbeat) in
  (match Codec.decode_framed_result good with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("well-formed frame rejected: " ^ e));
  let hostile =
    [
      "";
      "\x00";
      "\xde\xad\xbe\xef";
      String.sub good 0 (String.length good - 3) (* truncated trailer *);
      String.map (fun c -> Char.chr (Char.code c lxor 0x41)) good;
      String.make 64 '\xff';
    ]
  in
  List.iteri
    (fun i bytes ->
      match Codec.decode_framed_result bytes with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "hostile frame %d decoded" i))
    hostile;
  (* Body valid, CRC valid, but payload bytes corrupted: must surface as a
     typed error from the body decoder, not an exception. *)
  let body = Codec.encode (Message.make ~src:3 ~dst:Types.Bus ~corr:1 Message.Heartbeat) in
  let corrupt = Codec.frame (body ^ "\xff\xff\xff") in
  match Codec.decode_framed_result corrupt with
  | Error _ | Ok _ -> ()

(* --- epoch revocation on the bus ------------------------------------------ *)

type raw_dev = {
  id : Types.device_id;
  inbox : Message.t list ref;
}

let attach_raw bus name =
  let iommu = Iommu.create () in
  let inbox = ref [] in
  let id =
    Sysbus.attach bus ~name ~iommu ~handler:(fun m -> inbox := m :: !inbox)
  in
  ignore iommu;
  { id; inbox }

let announce bus dev =
  Sysbus.send bus
    (Message.make ~src:dev.id ~dst:Types.Bus ~corr:0
       (Message.Device_alive { services = [] }))

let quarantine_config =
  { Sysbus.default_config with Sysbus.quarantine = true }

(* A deterministic three-slot rig: a controller and two subject devices.
   [seed] keeps rebuilds identical for the checkpoint round-trip test. *)
let epoch_rig ?(seed = 7L) () =
  let engine = Engine.create ~seed () in
  let bus = Sysbus.create ~config:quarantine_config engine in
  let mc = attach_raw bus "mc" in
  let a = attach_raw bus "a" in
  let b = attach_raw bus "b" in
  Sysbus.register_controller bus mc.id ~resource:"dram" ~key;
  announce bus mc;
  announce bus a;
  announce bus b;
  Engine.run engine;
  (engine, bus, mc, a, b)

let map_token bus ~mc ~subject =
  Token.mint
    ~epoch:(Sysbus.current_epoch bus subject)
    ~key ~issuer:mc ~subject ~pasid:5 ~resource:"dram" ~base:0x10_0000L
    ~length:8192L ~perm:Types.perm_rw ~nonce:42L ()

let directive ~mc ~subject ~corr token =
  Message.make ~src:mc ~dst:Types.Bus ~corr
    (Message.Map_directive
       {
         device = subject;
         pasid = 5;
         va = 0x9000_0000L;
         pa = 0x10_0000L;
         bytes = 8192L;
         perm = Types.perm_rw;
         auth = token;
       })

let last_error dev =
  List.find_map
    (fun (m : Message.t) ->
      match m.Message.payload with
      | Message.Error_msg { code; detail } -> Some (code, detail)
      | _ -> None)
    !(dev.inbox)

let test_revocation_stales_tokens () =
  let engine, bus, mc, a, _b = epoch_rig () in
  let token = map_token bus ~mc:mc.id ~subject:a.id in
  Sysbus.send bus (directive ~mc:mc.id ~subject:a.id ~corr:1 token);
  Engine.run engine;
  Alcotest.(check int) "no stale uses yet" 0 (Sysbus.stale_tokens bus);
  Alcotest.(check int) "epoch starts at 0" 0 (Sysbus.current_epoch bus a.id);
  Sysbus.revoke bus a.id;
  Alcotest.(check int) "epoch bumped" 1 (Sysbus.current_epoch bus a.id);
  Alcotest.(check int) "revocation counted" 1 (Sysbus.revocations bus);
  (* Replay of the pre-revocation token: genuine MAC, dead generation. *)
  mc.inbox := [];
  Sysbus.send bus (directive ~mc:mc.id ~subject:a.id ~corr:2 token);
  Engine.run engine;
  Alcotest.(check int) "stale use counted" 1 (Sysbus.stale_tokens bus);
  (match last_error mc with
  | Some (Types.E_bad_token, detail) ->
    Alcotest.(check bool)
      "NACK names the epoch" true
      (String.length detail > 0)
  | _ -> Alcotest.fail "stale replay was not NACKed E_bad_token");
  (* A token minted under the current epoch verifies again. *)
  let fresh = map_token bus ~mc:mc.id ~subject:a.id in
  mc.inbox := [];
  Sysbus.send bus (directive ~mc:mc.id ~subject:a.id ~corr:3 fresh);
  Engine.run engine;
  Alcotest.(check int) "no new stale use" 1 (Sysbus.stale_tokens bus);
  match last_error mc with
  | None -> ()
  | Some (_, detail) -> Alcotest.fail ("fresh-epoch directive denied: " ^ detail)

let test_wrong_wielder_rejected () =
  (* The same genuine token in the wrong hands: a Map_directive is
     issuer-wielded, so a subject replaying it is rejected; a Grant_request
     is subject-wielded, so a third device replaying it is rejected. *)
  let engine, bus, mc, a, b = epoch_rig () in
  let token = map_token bus ~mc:mc.id ~subject:a.id in
  Sysbus.send bus (directive ~mc:a.id ~subject:a.id ~corr:4 token);
  Engine.run engine;
  (match last_error a with
  | Some (Types.E_bad_token, _) -> ()
  | _ -> Alcotest.fail "subject-wielded map directive accepted");
  Sysbus.send bus
    (Message.make ~src:b.id ~dst:Types.Bus ~corr:5
       (Message.Grant_request
          {
            to_device = b.id;
            pasid = 5;
            va = 0x9000_0000L;
            bytes = 8192L;
            perm = Types.perm_rw;
            auth = token;
          }));
  Engine.run engine;
  match last_error b with
  | Some (Types.E_bad_token, _) -> ()
  | _ -> Alcotest.fail "third-party grant with stolen token accepted"

let test_epoch_survives_checkpoint () =
  (* Revocation must hold across a snapshot/restore: the epoch table rides
     the bus's snapshot, so a restored process still rejects the old era. *)
  let path = Filename.temp_file "lastcpu-epoch" ".snap" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; Snapshot.previous_generation path ])
    (fun () ->
      let engine, bus, mc, a, _b = epoch_rig () in
      let token = map_token bus ~mc:mc.id ~subject:a.id in
      Sysbus.revoke bus a.id;
      Checkpoint.save ~path ~tag:"epoch-test" (Checkpoint.Single engine);
      (* Fresh identical rig, then overlay the snapshot. *)
      let engine2, bus2, mc2, a2, _b2 = epoch_rig () in
      (match
         Checkpoint.restore ~path ~tag:"epoch-test" (Checkpoint.Single engine2)
       with
      | Ok _ -> ()
      | Error e -> Alcotest.fail ("restore failed: " ^ e));
      Alcotest.(check int)
        "epoch restored" 1
        (Sysbus.current_epoch bus2 a2.id);
      Sysbus.send bus2 (directive ~mc:mc2.id ~subject:a2.id ~corr:6 token);
      Engine.run engine2;
      Alcotest.(check int)
        "stale replay rejected after restore" 1
        (Sysbus.stale_tokens bus2))

(* The containment counters answer "why was this device quarantined?", so
   they must read right in a resumed run too. A clean kill after boundary 2
   resumes from the intact primary, past the barrage: the resumed process
   never bumps these counters, and they must still report the restored
   registry values, not 0. *)
let test_counters_read_after_resume () =
  let path = Filename.temp_file "lastcpu-t17" ".snap" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; Snapshot.previous_generation path ])
    (fun () ->
      let seed = 42L in
      let full = Experiments.t17_soak ~seed () in
      ignore
        (Experiments.t17_soak ~seed ~snapshot_path:path ~stop_after:2 ()
          : Experiments.t17_result);
      let resumed =
        Experiments.t17_soak ~seed ~snapshot_path:path ~resume:true ()
      in
      Alcotest.(check bool)
        "restored the primary" true
        (resumed.Experiments.t17_restored = Some Snapshot.Primary);
      let same name field =
        Alcotest.(check int) name (field full) (field resumed)
      in
      same "quarantines" (fun r -> r.Experiments.t17_quarantines);
      same "fenced" (fun r -> r.Experiments.t17_fenced);
      same "malformed" (fun r -> r.Experiments.t17_malformed);
      same "revocations" (fun r -> r.Experiments.t17_revocations);
      Alcotest.(check int64) "digest" full.Experiments.t17_digest
        resumed.Experiments.t17_digest)

(* --- quarantine state machine --------------------------------------------- *)

let test_scoring_walks_trust_states () =
  let engine, bus, _mc, a, b = epoch_rig () in
  Alcotest.(check bool)
    "starts trusted" true
    (Sysbus.trust_of bus a.id = Sysbus.Trusted);
  (* Malformed frames score 2 each; suspect at 4, quarantined at 10. *)
  let garbage () =
    Sysbus.send_raw bus ~src:a.id "\xde\xad";
    Engine.run engine
  in
  garbage ();
  garbage ();
  Alcotest.(check bool)
    "suspect at threshold" true
    (Sysbus.trust_of bus a.id = Sysbus.Suspect);
  Alcotest.(check int) "malformed counted" 2 (Sysbus.malformed_frames_of bus a.id);
  garbage ();
  garbage ();
  garbage ();
  Alcotest.(check bool)
    "quarantined at threshold" true
    (Sysbus.trust_of bus a.id = Sysbus.Quarantined);
  Alcotest.(check int) "quarantine counted" 1 (Sysbus.quarantines bus);
  Alcotest.(check bool) "fenced from routing" false (Sysbus.is_live bus a.id);
  (* Frames from the quarantined slot die at the fence — even well-formed
     ones, even re-announces. *)
  b.inbox := [];
  Sysbus.send_raw bus ~src:a.id
    (Codec.encode_framed
       (Message.make ~src:a.id ~dst:(Types.Device b.id) ~corr:9
          Message.Heartbeat));
  announce bus a;
  Engine.run engine;
  Alcotest.(check int) "unicast fenced" 0 (List.length !(b.inbox));
  Alcotest.(check bool)
    "self-announce cannot lift quarantine" false
    (Sysbus.is_live bus a.id);
  Alcotest.(check bool) "fence counted" true (Sysbus.messages_fenced bus > 0)

let test_release_requires_reset_handshake () =
  let engine, bus, _mc, a, _b = epoch_rig () in
  for _ = 1 to 5 do
    Sysbus.send_raw bus ~src:a.id "\xde\xad"
  done;
  Engine.run engine;
  Alcotest.(check bool)
    "quarantined" true
    (Sysbus.trust_of bus a.id = Sysbus.Quarantined);
  a.inbox := [];
  Sysbus.release_quarantine bus a.id;
  (* Parole: reset line delivered, slot on parole but NOT live yet. *)
  Alcotest.(check bool)
    "reset line delivered" true
    (List.exists
       (fun (m : Message.t) -> m.Message.payload = Message.Reset_device)
       !(a.inbox));
  Alcotest.(check bool)
    "on parole (suspect)" true
    (Sysbus.trust_of bus a.id = Sysbus.Suspect);
  Alcotest.(check bool) "not live before re-announce" false (Sysbus.is_live bus a.id);
  Alcotest.(check int) "score cleared" 0 (Sysbus.misbehavior_score bus a.id);
  announce bus a;
  Engine.run engine;
  Alcotest.(check bool) "live after re-announce" true (Sysbus.is_live bus a.id)

let test_sweep_death_needs_reannounce () =
  (* A device swept dead by heartbeat timeout must not resurrect on a bare
     heartbeat; only the Device_alive handshake re-admits it. *)
  let engine = Engine.create ~seed:7L () in
  let config =
    { Sysbus.default_config with Sysbus.heartbeat_timeout_ns = 1_000_000L }
  in
  let bus = Sysbus.create ~config engine in
  let a = attach_raw bus "a" in
  announce bus a;
  Engine.run_until_quiescent engine;
  Alcotest.(check bool) "live after boot" true (Sysbus.is_live bus a.id);
  (* Fall silent past the timeout; a dummy event pulls virtual time (and
     the static sweep) forward. *)
  Engine.schedule engine ~delay:2_500_000L (fun () -> ());
  Engine.run_until_quiescent engine;
  Alcotest.(check bool) "swept dead" false (Sysbus.is_live bus a.id);
  Sysbus.send bus
    (Message.make ~src:a.id ~dst:Types.Bus ~corr:0 Message.Heartbeat);
  Engine.run_until_quiescent engine;
  Alcotest.(check bool)
    "bare heartbeat does not resurrect" false
    (Sysbus.is_live bus a.id);
  announce bus a;
  Engine.run_until_quiescent engine;
  Alcotest.(check bool) "re-announce re-admits" true (Sysbus.is_live bus a.id)

let test_spoofed_source_dropped () =
  let engine, bus, _mc, a, b = epoch_rig () in
  b.inbox := [];
  (* A frame on a's physical lane claiming b as its source: dropped and
     scored as spoofing (weight 4 -> straight to suspect). *)
  Sysbus.send_raw bus ~src:a.id
    (Codec.encode_framed
       (Message.make ~src:b.id ~dst:(Types.Device b.id) ~corr:1
          Message.Heartbeat));
  Engine.run engine;
  Alcotest.(check int) "spoofed frame not delivered" 0 (List.length !(b.inbox));
  Alcotest.(check bool)
    "spoof scored to suspect" true
    (Sysbus.trust_of bus a.id = Sysbus.Suspect)

let test_unknown_device_ids_nack () =
  (* Decoded hostile frames can name any device id; every dereference must
     NACK instead of crashing the bus (a bug the fuzzer actually found). *)
  let engine, bus, mc, a, _b = epoch_rig () in
  a.inbox := [];
  Sysbus.send_raw bus ~src:a.id
    (Codec.encode_framed
       (Message.make ~src:a.id ~dst:(Types.Device 57) ~corr:2 Message.Heartbeat));
  Engine.run engine;
  (match last_error a with
  | Some (Types.E_bad_address, _) -> ()
  | _ -> Alcotest.fail "unknown routing target not NACKed");
  (* Map_directive whose (token-covered) target device does not exist. *)
  let ghost =
    Token.mint ~key ~issuer:mc.id ~subject:57 ~pasid:5 ~resource:"dram"
      ~base:0x10_0000L ~length:4096L ~perm:Types.perm_rw ~nonce:3L ()
  in
  mc.inbox := [];
  Sysbus.send bus
    (Message.make ~src:mc.id ~dst:Types.Bus ~corr:3
       (Message.Map_directive
          {
            device = 57;
            pasid = 5;
            va = 0L;
            pa = 0x10_0000L;
            bytes = 4096L;
            perm = Types.perm_rw;
            auth = ghost;
          }));
  Engine.run engine;
  match last_error mc with
  | Some (Types.E_bad_address, _) -> ()
  | _ -> Alcotest.fail "map directive to unknown device not NACKed"

(* --- revocation cascade + memory hygiene (full system) -------------------- *)

let booted_quarantine () =
  let spec =
    {
      System.default_spec with
      System.nic_count = 2;
      quarantine = true;
    }
  in
  let system = System.build ~spec () in
  match System.boot system with
  | Ok () -> system
  | Error e -> Alcotest.fail e

let test_quarantine_revokes_memctl_grants () =
  let system = booted_quarantine () in
  let bus = System.bus system in
  let mc = System.memctl system in
  let rogue = Smart_nic.device (System.nic system 1) in
  let rogue_id = Device.id rogue in
  let pasid = System.fresh_pasid system in
  let ok = ref false in
  Device.alloc rogue ~memctl:(Memctl.id mc) ~pasid ~va:0x7000_0000L
    ~bytes:8192L ~perm:Types.perm_rw (fun r ->
      ok := Result.is_ok r);
  System.run_until_quiescent system;
  Alcotest.(check bool) "allocation granted" true !ok;
  Alcotest.(check bool)
    "allocation recorded" true
    (Memctl.allocations_of mc ~pasid <> []);
  for _ = 1 to 5 do
    Sysbus.send_raw bus ~src:rogue_id "\xbad"
  done;
  System.run_until_quiescent system;
  Alcotest.(check bool)
    "quarantined" true
    (Sysbus.trust_of bus rogue_id = Sysbus.Quarantined);
  Alcotest.(check (list (pair int64 int64)))
    "memctl tore down the rogue's allocations" []
    (Memctl.allocations_of mc ~pasid);
  Alcotest.(check (list int))
    "iommu cleared" []
    (Iommu.pasids (Sysbus.iommu_of bus rogue_id))

let test_free_requires_ownership () =
  let system = booted_quarantine () in
  let bus = System.bus system in
  let mc = System.memctl system in
  let owner = Smart_nic.device (System.nic system 0) in
  let thief_id = Device.id (Smart_nic.device (System.nic system 1)) in
  let pasid = System.fresh_pasid system in
  Device.alloc owner ~memctl:(Memctl.id mc) ~pasid ~va:0x7100_0000L
    ~bytes:4096L ~perm:Types.perm_rw (fun _ -> ());
  System.run_until_quiescent system;
  Alcotest.(check int) "one allocation" 1
    (List.length (Memctl.allocations_of mc ~pasid));
  (* The second NIC tries to free the first NIC's region. *)
  Sysbus.send bus
    (Message.make ~src:thief_id ~dst:(Types.Device (Memctl.id mc)) ~corr:404
       (Message.Free_request { pasid; va = 0x7100_0000L; bytes = 4096L }));
  System.run_until_quiescent system;
  Alcotest.(check int) "cross-tenant free denied" 1
    (List.length (Memctl.allocations_of mc ~pasid));
  (* The owner's own free still works. *)
  let freed = ref false in
  Device.free owner ~memctl:(Memctl.id mc) ~pasid ~va:0x7100_0000L
    ~bytes:4096L (fun r -> freed := Result.is_ok r);
  System.run_until_quiescent system;
  Alcotest.(check bool) "owner free succeeds" true !freed;
  Alcotest.(check (list (pair int64 int64)))
    "allocation gone" []
    (Memctl.allocations_of mc ~pasid)

let test_freed_frames_scrubbed () =
  (* Free, then re-allocate the same physical frame under another tenant:
     no residual bytes may leak across. The buddy allocator reuses the
     just-freed block, so the second allocation lands on the same frame. *)
  let system = booted_quarantine () in
  let bus = System.bus system in
  let mc = System.memctl system in
  let dev = Smart_nic.device (System.nic system 0) in
  let dev_id = Device.id dev in
  let pasid_a = System.fresh_pasid system in
  let pasid_b = System.fresh_pasid system in
  Device.alloc dev ~memctl:(Memctl.id mc) ~pasid:pasid_a ~va:0x7200_0000L
    ~bytes:4096L ~perm:Types.perm_rw (fun _ -> ());
  System.run_until_quiescent system;
  let pa_a =
    match
      Iommu.probe (Sysbus.iommu_of bus dev_id) ~pasid:pasid_a ~va:0x7200_0000L
    with
    | Some pa -> pa
    | None -> Alcotest.fail "tenant A region not mapped"
  in
  let dma_a = Device.dma dev ~pasid:pasid_a in
  Dma.write_bytes dma_a 0x7200_0000L (String.make 4096 'S');
  Device.free dev ~memctl:(Memctl.id mc) ~pasid:pasid_a ~va:0x7200_0000L
    ~bytes:4096L (fun _ -> ());
  System.run_until_quiescent system;
  Device.alloc dev ~memctl:(Memctl.id mc) ~pasid:pasid_b ~va:0x7300_0000L
    ~bytes:4096L ~perm:Types.perm_rw (fun _ -> ());
  System.run_until_quiescent system;
  let pa_b =
    match
      Iommu.probe (Sysbus.iommu_of bus dev_id) ~pasid:pasid_b ~va:0x7300_0000L
    with
    | Some pa -> pa
    | None -> Alcotest.fail "tenant B region not mapped"
  in
  Alcotest.(check int64) "frame reused (LIFO buddy)" pa_a pa_b;
  let dma_b = Device.dma dev ~pasid:pasid_b in
  let got = Dma.read_bytes dma_b 0x7300_0000L 4096 in
  Alcotest.(check bool)
    "no residual bytes from tenant A" true
    (String.for_all (fun c -> c = '\000') got)

let () =
  Alcotest.run "containment"
    [
      ( "token negative paths",
        [
          Alcotest.test_case "every field covered" `Quick test_every_field_covered;
          Alcotest.test_case "epoch under the mac" `Quick test_epoch_in_mac;
        ] );
      ( "hardened decoding",
        [ Alcotest.test_case "never raises" `Quick test_decode_never_raises ] );
      ( "epochs and revocation",
        [
          Alcotest.test_case "revocation stales tokens" `Quick
            test_revocation_stales_tokens;
          Alcotest.test_case "wrong wielder" `Quick test_wrong_wielder_rejected;
          Alcotest.test_case "epoch survives checkpoint" `Quick
            test_epoch_survives_checkpoint;
          Alcotest.test_case "counters read after resume" `Quick
            test_counters_read_after_resume;
        ] );
      ( "quarantine",
        [
          Alcotest.test_case "trust walk" `Quick test_scoring_walks_trust_states;
          Alcotest.test_case "release handshake" `Quick
            test_release_requires_reset_handshake;
          Alcotest.test_case "no silent resurrection" `Quick
            test_sweep_death_needs_reannounce;
          Alcotest.test_case "spoof dropped" `Quick test_spoofed_source_dropped;
          Alcotest.test_case "unknown ids NACK" `Quick
            test_unknown_device_ids_nack;
        ] );
      ( "cascade and hygiene",
        [
          Alcotest.test_case "revocation cascade" `Quick
            test_quarantine_revokes_memctl_grants;
          Alcotest.test_case "free ownership" `Quick test_free_requires_ownership;
          Alcotest.test_case "frames scrubbed" `Quick test_freed_frames_scrubbed;
        ] );
    ]
