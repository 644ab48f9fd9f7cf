(* Tests for the system management bus: liveness, routing, privileged
   operations and token checks — exercised with raw handlers, below the
   device framework. *)

module Types = Lastcpu_proto.Types
module Message = Lastcpu_proto.Message
module Token = Lastcpu_proto.Token
module Engine = Lastcpu_sim.Engine
module Iommu = Lastcpu_iommu.Iommu
module Sysbus = Lastcpu_bus.Sysbus

type raw_dev = {
  id : Types.device_id;
  iommu : Iommu.t;
  inbox : Message.t list ref;
}

let attach_raw bus name =
  let iommu = Iommu.create () in
  let inbox = ref [] in
  let id =
    Sysbus.attach bus ~name ~iommu ~handler:(fun m -> inbox := m :: !inbox)
  in
  { id; iommu; inbox }

let announce bus dev =
  Sysbus.send bus
    (Message.make ~src:dev.id ~dst:Types.Bus ~corr:0
       (Message.Device_alive { services = [] }))

let rig () =
  let engine = Engine.create () in
  let bus = Sysbus.create engine in
  let a = attach_raw bus "a" in
  let b = attach_raw bus "b" in
  announce bus a;
  announce bus b;
  Engine.run engine;
  (engine, bus, a, b)

let payloads dev = List.rev_map (fun (m : Message.t) -> m.Message.payload) !(dev.inbox)

let test_liveness () =
  let engine = Engine.create () in
  let bus = Sysbus.create engine in
  let a = attach_raw bus "a" in
  Alcotest.(check bool) "not live before alive" false (Sysbus.is_live bus a.id);
  announce bus a;
  Engine.run engine;
  Alcotest.(check bool) "live after alive" true (Sysbus.is_live bus a.id);
  Alcotest.(check (list int)) "live list" [ a.id ] (Sysbus.live_devices bus)

let test_unicast_routing () =
  let engine, bus, a, b = rig () in
  Sysbus.send bus
    (Message.make ~src:a.id ~dst:(Types.Device b.id) ~corr:7 Message.Reset_device);
  Engine.run engine;
  match !(b.inbox) with
  | [ m ] ->
    Alcotest.(check int) "src" a.id m.Message.src;
    Alcotest.(check int) "corr" 7 m.Message.corr
  | l -> Alcotest.fail (Printf.sprintf "expected 1 message, got %d" (List.length l))

(* A device's link to the bus is FIFO: two frames sent in one tick reach
   the lane, and so the receiver, in send order even when the engine runs
   same-tick events last-in first-out. *)
let test_same_tick_frames_keep_order () =
  let engine = Engine.create ~tie:Engine.Lifo () in
  let bus = Sysbus.create engine in
  let a = attach_raw bus "a" and b = attach_raw bus "b" in
  announce bus a;
  announce bus b;
  Engine.run engine;
  List.iter
    (fun corr ->
      Sysbus.send bus
        (Message.make ~src:a.id ~dst:(Types.Device b.id) ~corr
           Message.Reset_device))
    [ 1; 2; 3 ];
  Engine.run engine;
  Alcotest.(check (list int))
    "send order" [ 1; 2; 3 ]
    (List.rev_map (fun (m : Message.t) -> m.Message.corr) !(b.inbox))

let test_broadcast_excludes_sender () =
  let engine = Engine.create () in
  let bus = Sysbus.create engine in
  let devs = List.init 4 (fun i -> attach_raw bus (Printf.sprintf "d%d" i)) in
  List.iter (announce bus) devs;
  Engine.run engine;
  let sender = List.hd devs in
  Sysbus.send bus
    (Message.make ~src:sender.id ~dst:Types.Broadcast ~corr:0
       (Message.Discover_request { kind = Types.File_service; query = "" }));
  Engine.run engine;
  Alcotest.(check int) "sender not included" 0 (List.length !(sender.inbox));
  List.iter
    (fun d ->
      if d.id <> sender.id then
        Alcotest.(check int)
          (Printf.sprintf "dev %d got it" d.id)
          1
          (List.length !(d.inbox)))
    devs

let test_undeliverable_bounces_error () =
  let engine = Engine.create () in
  let bus = Sysbus.create engine in
  let a = attach_raw bus "a" in
  let b = attach_raw bus "b" in
  announce bus a;
  (* b never announces -> not live *)
  Engine.run engine;
  Sysbus.send bus
    (Message.make ~src:a.id ~dst:(Types.Device b.id) ~corr:3 Message.Reset_device);
  Engine.run engine;
  (match payloads a with
  | [ Message.Error_msg { code = Types.E_device_failed; _ } ] -> ()
  | _ -> Alcotest.fail "expected device-failed bounce");
  Alcotest.(check int) "undeliverable counted" 1 (Sysbus.counters bus).Sysbus.undeliverable

(* --- privileged operations ----------------------------------------------------- *)

let controller_key = 0xFEEDL

let mk_map_token ~issuer ~subject ~pasid ~pa ~bytes ~perm =
  Token.mint ~key:controller_key ~issuer ~subject ~pasid ~resource:"dram"
    ~base:pa ~length:bytes ~perm ~nonce:1L ()

let test_map_directive_programs_iommu () =
  let engine, bus, mc, dev = rig () in
  Sysbus.register_controller bus mc.id ~resource:"dram" ~key:controller_key;
  let token =
    mk_map_token ~issuer:mc.id ~subject:dev.id ~pasid:5 ~pa:0x10_0000L
      ~bytes:8192L ~perm:Types.perm_rw
  in
  Sysbus.send bus
    (Message.make ~src:mc.id ~dst:Types.Bus ~corr:1
       (Message.Map_directive
          {
            device = dev.id;
            pasid = 5;
            va = 0x4000_0000L;
            pa = 0x10_0000L;
            bytes = 8192L;
            perm = Types.perm_rw;
            auth = token;
          }));
  Engine.run engine;
  Alcotest.(check int) "2 pages mapped" 2 (Iommu.mapped_pages dev.iommu ~pasid:5);
  (match Iommu.translate dev.iommu ~pasid:5 ~va:0x4000_1000L ~access:Iommu.Read with
  | Iommu.Ok_pa pa -> Alcotest.(check int64) "pa" 0x10_1000L pa
  | Iommu.Fault _ -> Alcotest.fail "mapping absent");
  (* Both the issuer and the target got Map_complete. *)
  (match payloads mc with
  | [ Message.Map_complete { ok = true; _ } ] -> ()
  | _ -> Alcotest.fail "issuer missing map-complete");
  match payloads dev with
  | [ Message.Map_complete { ok = true; _ } ] -> ()
  | _ -> Alcotest.fail "target missing map-complete"

let test_map_directive_bad_mac_rejected () =
  let engine, bus, mc, dev = rig () in
  Sysbus.register_controller bus mc.id ~resource:"dram" ~key:controller_key;
  let token =
    mk_map_token ~issuer:mc.id ~subject:dev.id ~pasid:5 ~pa:0x10_0000L
      ~bytes:4096L ~perm:Types.perm_rw
  in
  let forged = { token with Token.length = 1_048_576L } in
  Sysbus.send bus
    (Message.make ~src:mc.id ~dst:Types.Bus ~corr:1
       (Message.Map_directive
          {
            device = dev.id;
            pasid = 5;
            va = 0x4000_0000L;
            pa = 0x10_0000L;
            bytes = 1_048_576L;
            perm = Types.perm_rw;
            auth = forged;
          }));
  Engine.run engine;
  Alcotest.(check int) "nothing mapped" 0 (Iommu.mapped_pages dev.iommu ~pasid:5);
  Alcotest.(check int) "token failure counted" 1
    (Sysbus.counters bus).Sysbus.token_failures;
  match payloads mc with
  | [ Message.Error_msg { code = Types.E_bad_token; _ } ] -> ()
  | _ -> Alcotest.fail "expected bad-token error"

let test_map_directive_unregistered_issuer_rejected () =
  let engine, bus, _mc, dev = rig () in
  (* No register_controller call: even a self-consistent token must fail. *)
  let token =
    mk_map_token ~issuer:dev.id ~subject:dev.id ~pasid:5 ~pa:0x10_0000L
      ~bytes:4096L ~perm:Types.perm_rw
  in
  Sysbus.send bus
    (Message.make ~src:dev.id ~dst:Types.Bus ~corr:1
       (Message.Map_directive
          {
            device = dev.id;
            pasid = 5;
            va = 0x4000_0000L;
            pa = 0x10_0000L;
            bytes = 4096L;
            perm = Types.perm_rw;
            auth = token;
          }));
  Engine.run engine;
  Alcotest.(check int) "nothing mapped" 0 (Iommu.mapped_pages dev.iommu ~pasid:5)

let test_map_directive_range_and_perm_enforced () =
  let engine, bus, mc, dev = rig () in
  Sysbus.register_controller bus mc.id ~resource:"dram" ~key:controller_key;
  (* Token over 4096 bytes r-only; directive asks for 8192 rw. *)
  let token =
    mk_map_token ~issuer:mc.id ~subject:dev.id ~pasid:5 ~pa:0x10_0000L
      ~bytes:4096L ~perm:Types.perm_r
  in
  Sysbus.send bus
    (Message.make ~src:mc.id ~dst:Types.Bus ~corr:1
       (Message.Map_directive
          {
            device = dev.id;
            pasid = 5;
            va = 0x4000_0000L;
            pa = 0x10_0000L;
            bytes = 8192L;
            perm = Types.perm_rw;
            auth = token;
          }));
  Engine.run engine;
  Alcotest.(check int) "range violation blocked" 0
    (Iommu.mapped_pages dev.iommu ~pasid:5)

let test_grant_replicates_owner_mapping () =
  let engine, bus, mc, owner = rig () in
  let grantee = attach_raw bus "grantee" in
  announce bus grantee;
  Engine.run engine;
  Sysbus.register_controller bus mc.id ~resource:"dram" ~key:controller_key;
  (* First map into the owner. *)
  let token =
    mk_map_token ~issuer:mc.id ~subject:owner.id ~pasid:9 ~pa:0x20_0000L
      ~bytes:8192L ~perm:Types.perm_rw
  in
  Sysbus.send bus
    (Message.make ~src:mc.id ~dst:Types.Bus ~corr:1
       (Message.Map_directive
          {
            device = owner.id;
            pasid = 9;
            va = 0x5000_0000L;
            pa = 0x20_0000L;
            bytes = 8192L;
            perm = Types.perm_rw;
            auth = token;
          }));
  Engine.run engine;
  (* Owner wields the token to grant read access to the grantee. *)
  Sysbus.send bus
    (Message.make ~src:owner.id ~dst:Types.Bus ~corr:2
       (Message.Grant_request
          {
            to_device = grantee.id;
            pasid = 9;
            va = 0x5000_0000L;
            bytes = 8192L;
            perm = Types.perm_r;
            auth = token;
          }));
  Engine.run engine;
  Alcotest.(check int) "grantee mapped" 2 (Iommu.mapped_pages grantee.iommu ~pasid:9);
  (match Iommu.translate grantee.iommu ~pasid:9 ~va:0x5000_0000L ~access:Iommu.Read with
  | Iommu.Ok_pa pa -> Alcotest.(check int64) "same pa" 0x20_0000L pa
  | Iommu.Fault _ -> Alcotest.fail "grantee mapping absent");
  (* Write stays forbidden: the grant was read-only. *)
  match Iommu.translate grantee.iommu ~pasid:9 ~va:0x5000_0000L ~access:Iommu.Write with
  | Iommu.Fault { reason = Iommu.Protection; _ } -> ()
  | _ -> Alcotest.fail "read-only grant allowed a write"

let test_grant_by_non_subject_rejected () =
  let engine, bus, mc, owner = rig () in
  let thief = attach_raw bus "thief" in
  announce bus thief;
  Engine.run engine;
  Sysbus.register_controller bus mc.id ~resource:"dram" ~key:controller_key;
  let token =
    mk_map_token ~issuer:mc.id ~subject:owner.id ~pasid:9 ~pa:0x20_0000L
      ~bytes:4096L ~perm:Types.perm_rw
  in
  (* The thief stole the owner's token and tries to map the region into
     itself. The bus must refuse: the sender is not the subject. *)
  Sysbus.send bus
    (Message.make ~src:thief.id ~dst:Types.Bus ~corr:2
       (Message.Grant_request
          {
            to_device = thief.id;
            pasid = 9;
            va = 0x5000_0000L;
            bytes = 4096L;
            perm = Types.perm_rw;
            auth = token;
          }));
  Engine.run engine;
  Alcotest.(check int) "thief got nothing" 0 (Iommu.mapped_pages thief.iommu ~pasid:9)

let test_unmap_revokes_everywhere () =
  let engine, bus, mc, owner = rig () in
  let grantee = attach_raw bus "grantee" in
  announce bus grantee;
  Engine.run engine;
  Sysbus.register_controller bus mc.id ~resource:"dram" ~key:controller_key;
  let token =
    mk_map_token ~issuer:mc.id ~subject:owner.id ~pasid:9 ~pa:0x20_0000L
      ~bytes:4096L ~perm:Types.perm_rw
  in
  Sysbus.send bus
    (Message.make ~src:mc.id ~dst:Types.Bus ~corr:1
       (Message.Map_directive
          {
            device = owner.id;
            pasid = 9;
            va = 0x5000_0000L;
            pa = 0x20_0000L;
            bytes = 4096L;
            perm = Types.perm_rw;
            auth = token;
          }));
  Engine.run engine;
  Sysbus.send bus
    (Message.make ~src:owner.id ~dst:Types.Bus ~corr:2
       (Message.Grant_request
          {
            to_device = grantee.id;
            pasid = 9;
            va = 0x5000_0000L;
            bytes = 4096L;
            perm = Types.perm_r;
            auth = token;
          }));
  Engine.run engine;
  (* Controller revokes. *)
  Sysbus.send bus
    (Message.make ~src:mc.id ~dst:Types.Bus ~corr:3
       (Message.Unmap_directive
          {
            device = owner.id;
            pasid = 9;
            va = 0x5000_0000L;
            bytes = 4096L;
            auth = token;
          }));
  Engine.run engine;
  Alcotest.(check int) "owner unmapped" 0 (Iommu.mapped_pages owner.iommu ~pasid:9);
  Alcotest.(check int) "grantee unmapped too" 0
    (Iommu.mapped_pages grantee.iommu ~pasid:9)

let test_tokens_disabled_skips_checks () =
  let engine = Engine.create () in
  let bus =
    Sysbus.create
      ~config:{ Sysbus.default_config with enable_tokens = false }
      engine
  in
  let a = attach_raw bus "a" in
  announce bus a;
  Engine.run engine;
  (* Garbage token, never-registered issuer: accepted in the ablation. *)
  let token =
    Token.mint ~key:1L ~issuer:a.id ~subject:a.id ~pasid:1 ~resource:"dram"
      ~base:0L ~length:0L ~perm:Types.perm_none ~nonce:0L ()
  in
  Sysbus.send bus
    (Message.make ~src:a.id ~dst:Types.Bus ~corr:1
       (Message.Map_directive
          {
            device = a.id;
            pasid = 1;
            va = 0x1000L;
            pa = 0x2000L;
            bytes = 4096L;
            perm = Types.perm_rw;
            auth = token;
          }));
  Engine.run engine;
  Alcotest.(check int) "mapped without checks" 1 (Iommu.mapped_pages a.iommu ~pasid:1)

(* --- failure ---------------------------------------------------------------------- *)

let test_fail_device_broadcasts () =
  let engine, bus, a, b = rig () in
  Sysbus.fail_device bus b.id;
  Engine.run engine;
  Alcotest.(check bool) "b down" false (Sysbus.is_live bus b.id);
  match payloads a with
  | [ Message.Device_failed { device } ] ->
    Alcotest.(check int) "names b" b.id device
  | _ -> Alcotest.fail "expected Device_failed broadcast"

let test_heartbeat_timeout_detection () =
  let engine = Engine.create () in
  let bus =
    Sysbus.create
      ~config:
        { Sysbus.default_config with heartbeat_timeout_ns = 100_000L }
      engine
  in
  let a = attach_raw bus "a" in
  let b = attach_raw bus "b" in
  announce bus a;
  announce bus b;
  Engine.run ~until:50_000L engine;
  Alcotest.(check bool) "live initially" true (Sysbus.is_live bus b.id);
  (* a heartbeats, b goes silent. *)
  let rec beat t =
    if t < 500_000L then begin
      Engine.schedule_at engine ~time:t (fun () ->
          Sysbus.send bus
            (Message.make ~src:a.id ~dst:Types.Bus ~corr:0 Message.Heartbeat));
      beat (Int64.add t 50_000L)
    end
  in
  beat 60_000L;
  Engine.run ~until:500_000L engine;
  Alcotest.(check bool) "a survives" true (Sysbus.is_live bus a.id);
  Alcotest.(check bool) "b timed out" false (Sysbus.is_live bus b.id)

let test_revive_and_reannounce () =
  let engine, bus, _a, b = rig () in
  Sysbus.fail_device bus b.id;
  Engine.run engine;
  Sysbus.revive_device bus b.id;
  Alcotest.(check bool) "still not live" false (Sysbus.is_live bus b.id);
  announce bus b;
  Engine.run engine;
  Alcotest.(check bool) "live again" true (Sysbus.is_live bus b.id)

let test_notify_fast_path () =
  let engine, bus, a, b = rig () in
  ignore a;
  Sysbus.notify bus ~src:a.id ~dst:b.id ~queue:42;
  Engine.run engine;
  (match payloads b with
  | [ Message.Doorbell { queue } ] -> Alcotest.(check int) "queue" 42 queue
  | _ -> Alcotest.fail "expected doorbell");
  (* Doorbells do not occupy the bus station. *)
  Alcotest.(check int) "station untouched by notify" 2
    (Lastcpu_sim.Station.jobs_completed (List.hd (Sysbus.stations bus)))

(* Allocation budget of the routing hot path: one Heartbeat through the
   bus (hop + station + hop) on a default engine, to a no-op handler. With
   trace and sanitize off (the default every run uses) the path formats no
   frame descriptions, so the minor words per message are the routing
   machinery alone; a change that adds per-message allocation fails here. *)
let route_words_budget = 68.

let test_route_allocation_budget () =
  let engine = Engine.create () in
  let bus = Sysbus.create engine in
  let attach name =
    Sysbus.attach bus ~name ~iommu:(Iommu.create ()) ~handler:(fun _ -> ())
  in
  let a = attach "a" and b = attach "b" in
  List.iter
    (fun src ->
      Sysbus.send bus
        (Message.make ~src ~dst:Types.Bus ~corr:0
           (Message.Device_alive { services = [] })))
    [ a; b ];
  Engine.run engine;
  let msgs = 20_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to msgs do
    Sysbus.send bus
      (Message.make ~src:a ~dst:(Types.Device b) ~corr:0 Message.Heartbeat);
    Engine.run engine
  done;
  let per_msg = (Gc.minor_words () -. w0) /. float_of_int msgs in
  if per_msg > route_words_budget then
    Alcotest.failf "bus route (trace off): %.2f minor words/msg > budget %.0f"
      per_msg route_words_budget

(* Fuzz: arbitrary well-formed messages from arbitrary sources never crash
   the bus, and mapping counters only grow via properly authorized
   directives (here: none, since no controller is registered). *)
let bus_fuzz_prop =
  QCheck.Test.make ~name:"random message storms never crash or map" ~count:50
    QCheck.(list (pair (int_bound 3) (pair (int_bound 4) small_string)))
    (fun script ->
      let engine = Engine.create () in
      let bus = Sysbus.create engine in
      let devs = List.init 4 (fun i -> attach_raw bus (Printf.sprintf "d%d" i)) in
      List.iter (announce bus) devs;
      Engine.run engine;
      List.iter
        (fun (src, (kind, s)) ->
          let src = (List.nth devs src).id in
          let token =
            Token.mint ~key:(Int64.of_int (String.length s)) ~issuer:src
              ~subject:src ~pasid:1 ~resource:s ~base:0L ~length:4096L
              ~perm:Types.perm_rw ~nonce:0L ()
          in
          let payload =
            match kind with
            | 0 -> Message.App_message { tag = s; body = s }
            | 1 ->
              Message.Map_directive
                {
                  device = src;
                  pasid = 1;
                  va = 0x1000L;
                  pa = 0x2000L;
                  bytes = 4096L;
                  perm = Types.perm_rw;
                  auth = token;
                }
            | 2 -> Message.Doorbell { queue = String.length s }
            | 3 -> Message.Fault_notify { pasid = 0; va = 0L; detail = s }
            | _ -> Message.Heartbeat
          in
          let dst =
            match kind with
            | 1 -> Types.Bus
            | 2 -> Types.Broadcast
            | _ -> Types.Device ((src + 1) mod 4)
          in
          Sysbus.send bus (Message.make ~src ~dst ~corr:0 payload))
        script;
      Engine.run engine;
      (* No unauthorized mapping ever lands. *)
      List.for_all
        (fun d -> Lastcpu_iommu.Iommu.mapped_pages d.iommu ~pasid:1 = 0)
        devs)

let () =
  Alcotest.run "bus"
    [
      ( "transport",
        [
          Alcotest.test_case "liveness" `Quick test_liveness;
          Alcotest.test_case "unicast" `Quick test_unicast_routing;
          Alcotest.test_case "same-tick frames keep order" `Quick
            test_same_tick_frames_keep_order;
          Alcotest.test_case "broadcast" `Quick test_broadcast_excludes_sender;
          Alcotest.test_case "undeliverable bounce" `Quick test_undeliverable_bounces_error;
          Alcotest.test_case "notify fast path" `Quick test_notify_fast_path;
          Alcotest.test_case "route allocation budget" `Quick
            test_route_allocation_budget;
        ] );
      ( "privileged",
        [
          Alcotest.test_case "map directive" `Quick test_map_directive_programs_iommu;
          Alcotest.test_case "bad mac rejected" `Quick test_map_directive_bad_mac_rejected;
          Alcotest.test_case "unregistered issuer" `Quick
            test_map_directive_unregistered_issuer_rejected;
          Alcotest.test_case "range/perm enforced" `Quick
            test_map_directive_range_and_perm_enforced;
          Alcotest.test_case "grant replicates" `Quick test_grant_replicates_owner_mapping;
          Alcotest.test_case "stolen token rejected" `Quick
            test_grant_by_non_subject_rejected;
          Alcotest.test_case "unmap revokes everywhere" `Quick
            test_unmap_revokes_everywhere;
          Alcotest.test_case "tokens-off ablation" `Quick test_tokens_disabled_skips_checks;
        ] );
      ( "failure",
        [
          Alcotest.test_case "fail broadcasts" `Quick test_fail_device_broadcasts;
          Alcotest.test_case "heartbeat timeout" `Quick test_heartbeat_timeout_detection;
          Alcotest.test_case "revive + reannounce" `Quick test_revive_and_reannounce;
        ] );
      ("fuzz", [ QCheck_alcotest.to_alcotest bus_fuzz_prop ]);
    ]
