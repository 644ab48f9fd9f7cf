(* Tests for the self-managing device framework + memory controller +
   auth/console devices: lifecycle, discovery, service multiplexing,
   correlated requests, alloc/grant flows. *)

module Types = Lastcpu_proto.Types
module Message = Lastcpu_proto.Message
module Engine = Lastcpu_sim.Engine
module Physmem = Lastcpu_mem.Physmem
module Sysbus = Lastcpu_bus.Sysbus
module Device = Lastcpu_device.Device
module Memctl = Lastcpu_devices.Memctl
module Auth_dev = Lastcpu_devices.Auth_dev
module Console_dev = Lastcpu_devices.Console_dev
module Dma = Lastcpu_virtio.Dma
module Iommu = Lastcpu_iommu.Iommu

let rig () =
  let engine = Engine.create () in
  let bus = Sysbus.create engine in
  let mem = Physmem.create () in
  (engine, bus, mem)

let echo_service dev name =
  {
    Device.desc = { Message.kind = Types.Kv_service; name; version = 1 };
    can_serve = (fun ~query -> query = "" || query = name);
    on_open =
      (fun ~client:_ ~pasid:_ ~auth:_ ~params:_ ->
        Ok { Device.connection = Device.fresh_connection dev; shm_bytes = 128L });
    on_close = (fun ~connection:_ -> ());
  }

let test_start_announces () =
  let engine, bus, mem = rig () in
  let dev = Device.create bus ~mem ~name:"d0" () in
  Device.add_service dev (echo_service dev "d0.svc");
  Alcotest.(check bool) "not live" false (Sysbus.is_live bus (Device.id dev));
  Device.start dev;
  Engine.run engine;
  Alcotest.(check bool) "live" true (Sysbus.is_live bus (Device.id dev));
  Alcotest.(check int) "service announced" 1
    (List.length (Sysbus.services_of bus (Device.id dev)))

let test_discover_finds_service () =
  let engine, bus, mem = rig () in
  let provider = Device.create bus ~mem ~name:"provider" () in
  Device.add_service provider (echo_service provider "provider.svc");
  Device.start provider;
  let seeker = Device.create bus ~mem ~name:"seeker" () in
  Device.start seeker;
  Engine.run engine;
  let found = ref None in
  Device.discover seeker ~kind:Types.Kv_service ~query:"" (fun r -> found := Some r);
  Engine.run engine;
  match !found with
  | Some (Some (id, svc)) ->
    Alcotest.(check int) "provider id" (Device.id provider) id;
    Alcotest.(check string) "service name" "provider.svc" svc.Message.name
  | Some None -> Alcotest.fail "discovery returned none"
  | None -> Alcotest.fail "discovery never completed"

let test_discover_timeout_when_absent () =
  let engine, bus, mem = rig () in
  let seeker = Device.create bus ~mem ~name:"seeker" () in
  Device.start seeker;
  Engine.run engine;
  let found = ref None in
  Device.discover seeker ~kind:Types.File_service ~query:"/nope" (fun r ->
      found := Some r);
  Engine.run engine;
  Alcotest.(check bool) "none after timeout" true (!found = Some None)

let test_open_close_connection_table () =
  let engine, bus, mem = rig () in
  let provider = Device.create bus ~mem ~name:"provider" () in
  Device.add_service provider (echo_service provider "p.svc");
  Device.start provider;
  let client = Device.create bus ~mem ~name:"client" () in
  Device.start client;
  Engine.run engine;
  let opened = ref None in
  Device.open_service client ~provider:(Device.id provider)
    ~service:{ Message.kind = Types.Kv_service; name = "p.svc"; version = 1 }
    ~pasid:4 (fun r -> opened := Some r);
  Engine.run engine;
  (match !opened with
  | Some (Ok { Device.connection; shm_bytes }) ->
    Alcotest.(check int64) "shm" 128L shm_bytes;
    Alcotest.(check int) "one connection" 1 (Device.connection_count provider);
    (match Device.connections provider with
    | [ info ] ->
      Alcotest.(check int) "client id" (Device.id client) info.Device.client;
      Alcotest.(check int) "pasid" 4 info.Device.conn_pasid
    | _ -> Alcotest.fail "connection table wrong");
    Device.close_service client ~provider:(Device.id provider) ~connection;
    Engine.run engine;
    Alcotest.(check int) "closed" 0 (Device.connection_count provider)
  | Some (Error e) -> Alcotest.fail (Types.error_code_to_string e)
  | None -> Alcotest.fail "open never completed")

let test_open_unknown_service_fails () =
  let engine, bus, mem = rig () in
  let provider = Device.create bus ~mem ~name:"provider" () in
  Device.start provider;
  let client = Device.create bus ~mem ~name:"client" () in
  Device.start client;
  Engine.run engine;
  let opened = ref None in
  Device.open_service client ~provider:(Device.id provider)
    ~service:{ Message.kind = Types.Kv_service; name = "ghost"; version = 1 }
    ~pasid:1 (fun r -> opened := Some r);
  Engine.run engine;
  match !opened with
  | Some (Error Types.E_no_such_service) -> ()
  | _ -> Alcotest.fail "expected no-such-service"

let test_isolation_between_connections () =
  (* Two clients open the same service; each gets a distinct connection id
     (the device multiplexes into isolated instances — paper §2.1). *)
  let engine, bus, mem = rig () in
  let provider = Device.create bus ~mem ~name:"provider" () in
  Device.add_service provider (echo_service provider "p.svc");
  Device.start provider;
  let c1 = Device.create bus ~mem ~name:"c1" () in
  let c2 = Device.create bus ~mem ~name:"c2" () in
  Device.start c1;
  Device.start c2;
  Engine.run engine;
  let conns = ref [] in
  let open_from c =
    Device.open_service c ~provider:(Device.id provider)
      ~service:{ Message.kind = Types.Kv_service; name = "p.svc"; version = 1 }
      ~pasid:(Device.id c) (fun r ->
        match r with
        | Ok { Device.connection; _ } -> conns := connection :: !conns
        | Error _ -> ())
  in
  open_from c1;
  open_from c2;
  Engine.run engine;
  Alcotest.(check int) "both opened" 2 (List.length !conns);
  Alcotest.(check bool) "distinct ids" true
    (List.length (List.sort_uniq compare !conns) = 2)

let test_app_message_request_response () =
  let engine, bus, mem = rig () in
  let server = Device.create bus ~mem ~name:"server" () in
  Device.set_app_handler server (fun msg ->
      match msg.Message.payload with
      | Message.App_message { tag = "ping"; body } ->
        Device.reply server ~to_:msg.Message.src ~corr:msg.Message.corr
          (Message.App_message { tag = "pong"; body })
      | _ -> ());
  Device.start server;
  let client = Device.create bus ~mem ~name:"client" () in
  Device.start client;
  Engine.run engine;
  let got = ref None in
  Device.request client ~dst:(Types.Device (Device.id server))
    (Message.App_message { tag = "ping"; body = "payload" })
    (fun p -> got := Some p);
  Engine.run engine;
  match !got with
  | Some (Message.App_message { tag = "pong"; body = "payload" }) -> ()
  | _ -> Alcotest.fail "ping/pong failed"

(* --- memctl flows ------------------------------------------------------------- *)

let memctl_rig () =
  let engine, bus, mem = rig () in
  let mc = Memctl.create bus ~mem ~dram_pages:1024 () in
  let dev = Device.create bus ~mem ~name:"app-dev" () in
  Device.start dev;
  Engine.run engine;
  (engine, bus, mem, mc, dev)

let test_alloc_maps_and_returns_token () =
  let engine, _, mem, mc, dev = memctl_rig () in
  let result = ref None in
  Device.alloc dev ~memctl:(Memctl.id mc) ~pasid:3 ~va:0x4000_0000L
    ~bytes:8192L ~perm:Types.perm_rw (fun r -> result := Some r);
  Engine.run engine;
  (match !result with
  | Some (Ok token) ->
    Alcotest.(check int) "token subject" (Device.id dev) token.Lastcpu_proto.Token.subject;
    Alcotest.(check int) "token pasid" 3 token.Lastcpu_proto.Token.pasid
  | Some (Error e) -> Alcotest.fail (Types.error_code_to_string e)
  | None -> Alcotest.fail "alloc never completed");
  (* The mapping is live: DMA through it works. *)
  let dma = Device.dma dev ~pasid:3 in
  Dma.write_field64 dma 0x4000_0000 0x1234L;
  Alcotest.(check int64) "dma works" 0x1234L (Dma.read_field64 dma 0x4000_0000);
  Alcotest.(check int) "memctl accounting" 2 (Memctl.used_pages mc);
  Alcotest.(check (list (pair int64 int64)))
    "allocations listed"
    [ (0x4000_0000L, 8192L) ]
    (Memctl.allocations_of mc ~pasid:3);
  ignore mem

let test_alloc_rejects_overlap_and_exhaustion () =
  let engine, _, _, mc, dev = memctl_rig () in
  let r1 = ref None and r2 = ref None and r3 = ref None in
  Device.alloc dev ~memctl:(Memctl.id mc) ~pasid:3 ~va:0x4000_0000L
    ~bytes:4096L ~perm:Types.perm_rw (fun r -> r1 := Some r);
  Engine.run engine;
  (* Same va again: rejected. *)
  Device.alloc dev ~memctl:(Memctl.id mc) ~pasid:3 ~va:0x4000_0000L
    ~bytes:4096L ~perm:Types.perm_rw (fun r -> r2 := Some r);
  Engine.run engine;
  (* Way beyond the pool: rejected. *)
  Device.alloc dev ~memctl:(Memctl.id mc) ~pasid:3 ~va:0x5000_0000L
    ~bytes:(Int64.mul 4096L 10_000L) ~perm:Types.perm_rw (fun r -> r3 := Some r);
  Engine.run engine;
  (match !r1 with Some (Ok _) -> () | _ -> Alcotest.fail "first alloc failed");
  (match !r2 with
  | Some (Error Types.E_exists) -> ()
  | _ -> Alcotest.fail "overlap accepted");
  match !r3 with
  | Some (Error Types.E_no_memory) -> ()
  | _ -> Alcotest.fail "exhaustion not detected"

let test_free_unmaps_and_releases () =
  let engine, _, _, mc, dev = memctl_rig () in
  let token = ref None in
  Device.alloc dev ~memctl:(Memctl.id mc) ~pasid:3 ~va:0x4000_0000L
    ~bytes:4096L ~perm:Types.perm_rw (fun r ->
      token := Result.to_option r);
  Engine.run engine;
  Alcotest.(check bool) "allocated" true (!token <> None);
  let freed = ref None in
  Device.free dev ~memctl:(Memctl.id mc) ~pasid:3 ~va:0x4000_0000L ~bytes:4096L
    (fun r -> freed := Some r);
  Engine.run engine;
  (match !freed with
  | Some (Ok ()) -> ()
  | _ -> Alcotest.fail "free failed");
  Alcotest.(check int) "pool restored" 0 (Memctl.used_pages mc);
  (* DMA now faults: the bus revoked the translation. *)
  let dma = Device.dma dev ~pasid:3 in
  match Dma.read_field dma 0x4000_0000 1 with
  | _ -> Alcotest.fail "mapping survived free"
  | exception Dma.Dma_fault _ -> ()

let test_grant_shares_with_other_device () =
  let engine, _, _, mc, dev = memctl_rig () in
  let peer = Device.create (Device.bus dev) ~mem:(Physmem.create ()) ~name:"x" () in
  ignore peer;
  (* peer shares the same physical memory in a real system; use the same
     Physmem to observe shared data. *)
  let engine2 = engine in
  ignore engine2;
  let token = ref None in
  Device.alloc dev ~memctl:(Memctl.id mc) ~pasid:6 ~va:0x4100_0000L
    ~bytes:4096L ~perm:Types.perm_rw (fun r -> token := Result.to_option r);
  Engine.run engine;
  match !token with
  | None -> Alcotest.fail "alloc failed"
  | Some tok ->
    let granted = ref None in
    Device.grant dev ~to_device:(Memctl.id mc) ~pasid:6 ~va:0x4100_0000L
      ~bytes:4096L ~perm:Types.perm_r ~auth:tok (fun r -> granted := Some r);
    Engine.run engine;
    (match !granted with
    | Some (Ok ()) -> ()
    | Some (Error e) -> Alcotest.fail (Types.error_code_to_string e)
    | None -> Alcotest.fail "grant never completed")

let test_quota_enforced () =
  let engine, bus, mem = rig () in
  let mc = Memctl.create bus ~mem ~dram_pages:1024 ~quota_pages:4 () in
  let dev = Device.create bus ~mem ~name:"greedy" () in
  Device.start dev;
  Engine.run engine;
  let r1 = ref None and r2 = ref None and r3 = ref None in
  (* 3 pages: fine. *)
  Device.alloc dev ~memctl:(Memctl.id mc) ~pasid:1 ~va:0x4000_0000L
    ~bytes:12288L ~perm:Types.perm_rw (fun r -> r1 := Some r);
  Engine.run engine;
  (* 2 more pages: over the 4-page quota. *)
  Device.alloc dev ~memctl:(Memctl.id mc) ~pasid:1 ~va:0x4100_0000L
    ~bytes:8192L ~perm:Types.perm_rw (fun r -> r2 := Some r);
  Engine.run engine;
  (* A different pasid has its own budget. *)
  Device.alloc dev ~memctl:(Memctl.id mc) ~pasid:2 ~va:0x4200_0000L
    ~bytes:8192L ~perm:Types.perm_rw (fun r -> r3 := Some r);
  Engine.run engine;
  (match !r1 with Some (Ok _) -> () | _ -> Alcotest.fail "within quota failed");
  (match !r2 with
  | Some (Error Types.E_no_memory) -> ()
  | _ -> Alcotest.fail "quota not enforced");
  (match !r3 with Some (Ok _) -> () | _ -> Alcotest.fail "other pasid blocked");
  Alcotest.(check int) "pasid1 charged" 3 (Memctl.pages_of mc ~pasid:1);
  (* Freeing refunds the quota. *)
  let freed = ref false in
  Device.free dev ~memctl:(Memctl.id mc) ~pasid:1 ~va:0x4000_0000L
    ~bytes:12288L (fun r -> freed := Result.is_ok r);
  Engine.run engine;
  Alcotest.(check bool) "freed" true !freed;
  Alcotest.(check int) "refunded" 0 (Memctl.pages_of mc ~pasid:1);
  let r4 = ref None in
  Device.alloc dev ~memctl:(Memctl.id mc) ~pasid:1 ~va:0x4300_0000L
    ~bytes:16384L ~perm:Types.perm_rw (fun r -> r4 := Some r);
  Engine.run engine;
  match !r4 with
  | Some (Ok _) -> ()
  | _ -> Alcotest.fail "post-refund alloc failed"

(* --- doorbells, heartbeats, faults ----------------------------------------------- *)

let test_doorbell_direct_and_registry () =
  let engine, bus, mem = rig () in
  let a = Device.create bus ~mem ~name:"a" () in
  let b = Device.create bus ~mem ~name:"b" () in
  Device.start a;
  Device.start b;
  Engine.run engine;
  let rang = ref 0 in
  Device.on_doorbell b ~queue:5 (fun () -> incr rang);
  Device.doorbell a ~dst:(Device.id b) ~queue:5;
  Device.doorbell a ~dst:(Device.id b) ~queue:5;
  Engine.run engine;
  Alcotest.(check int) "rang twice" 2 !rang;
  Device.clear_doorbell b ~queue:5;
  Device.doorbell a ~dst:(Device.id b) ~queue:5;
  Engine.run engine;
  Alcotest.(check int) "cleared" 2 !rang

let test_doorbell_via_bus_ablation () =
  let engine, bus, mem = rig () in
  let a = Device.create bus ~mem ~name:"a" () in
  let b = Device.create bus ~mem ~name:"b" () in
  Device.start a;
  Device.start b;
  Engine.run engine;
  Device.route_doorbells_via_bus a true;
  let before = (Sysbus.counters bus).Sysbus.routed in
  let rang = ref false in
  Device.on_doorbell b ~queue:1 (fun () -> rang := true);
  Device.doorbell a ~dst:(Device.id b) ~queue:1;
  Engine.run engine;
  Alcotest.(check bool) "delivered" true !rang;
  Alcotest.(check bool) "went through the bus" true
    ((Sysbus.counters bus).Sysbus.routed > before)

let test_request_timeout () =
  let engine, bus, mem = rig () in
  let mute = Device.create bus ~mem ~name:"mute" () in
  Device.start mute (* never answers app messages *);
  let client = Device.create bus ~mem ~name:"client" () in
  Device.start client;
  Engine.run engine;
  let got = ref None in
  Device.request client ~timeout:10_000L
    ~dst:(Types.Device (Device.id mute))
    (Message.App_message { tag = "ping"; body = "" })
    (fun p -> got := Some p);
  Engine.run engine;
  (match !got with
  | Some (Message.Error_msg { code = Types.E_busy; _ }) -> ()
  | _ -> Alcotest.fail "expected timeout error");
  (* A late answer after the timeout must not double-fire. *)
  let count = ref 0 in
  Device.request client ~timeout:5_000L
    ~dst:(Types.Device (Device.id mute))
    (Message.App_message { tag = "ping"; body = "" })
    (fun _ -> incr count);
  Engine.run engine;
  Alcotest.(check int) "fires exactly once" 1 !count

(* --- overload protection ------------------------------------------------------ *)

let test_bounded_queue_nacks_with_retry_after () =
  let engine = Engine.create () in
  let bus =
    Sysbus.create
      ~config:{ Sysbus.default_config with device_queue_capacity = Some 1 }
      engine
  in
  let mem = Physmem.create () in
  let mc = Memctl.create bus ~mem ~dram_pages:1024 () in
  let client = Device.create bus ~mem ~name:"client" () in
  Device.start client;
  Engine.run engine;
  (* Two back-to-back allocs against a single-slot monitor queue: the
     second lands while the memctl is still processing the first and is
     bounced immediately — E_busy with a parseable retry-after hint
     instead of queueing forever. The first completes normally. *)
  let replies = ref [] in
  for i = 1 to 2 do
    Device.request client ~timeout:100_000L
      ~dst:(Types.Device (Memctl.id mc))
      (Message.Alloc_request
         {
           pasid = 7;
           va = Int64.add 0x4000_0000L (Int64.of_int (i * 65536));
           bytes = 4096L;
           perm = Types.perm_rw;
         })
      (fun p -> replies := p :: !replies)
  done;
  Engine.run engine;
  Alcotest.(check int) "every request answered" 2 (List.length !replies);
  let served, bounced =
    List.partition
      (function Message.Alloc_response { ok = true; _ } -> true | _ -> false)
      !replies
  in
  Alcotest.(check int) "admitted alloc served" 1 (List.length served);
  (match bounced with
  | [ Message.Error_msg { code = Types.E_busy; detail } ] -> (
    match Message.retry_after_of_detail detail with
    | Some ns -> Alcotest.(check bool) "hint positive" true (ns > 0L)
    | None -> Alcotest.fail "busy NACK without retry-after hint")
  | _ -> Alcotest.fail "expected exactly one E_busy NACK");
  Alcotest.(check int) "rejection counted" 1
    (Device.queue_rejections (Memctl.device mc))

let test_circuit_breaker_opens_and_probes () =
  let engine, bus, mem = rig () in
  let blackhole = Device.create bus ~mem ~name:"blackhole" () in
  Device.start blackhole (* never answers app messages *);
  let client = Device.create bus ~mem ~name:"client" () in
  Device.start client;
  Engine.run engine;
  Device.enable_circuit_breaker client ~threshold:2 ~cooldown_ns:1_000_000L;
  let peer = Device.id blackhole in
  let answered = ref 0 in
  let req () =
    Device.request client ~timeout:10_000L ~dst:(Types.Device peer)
      (Message.App_message { tag = "ping"; body = "" })
      (fun _ -> incr answered)
  in
  req ();
  Engine.run engine;
  Alcotest.(check bool) "one failure: still closed" true
    (Device.breaker_state client ~peer = `Closed);
  req ();
  Engine.run engine;
  Alcotest.(check bool) "opens at threshold" true
    (Device.breaker_state client ~peer = `Open);
  Alcotest.(check int) "open counted" 1 (Device.breaker_opens client);
  (* While open: callers are answered locally, nothing hits the wire. *)
  let sent_before = Device.requests_sent client in
  req ();
  Engine.run engine;
  Alcotest.(check int) "fast fail counted" 1 (Device.breaker_fast_fails client);
  Alcotest.(check int) "no wire traffic while open" sent_before
    (Device.requests_sent client);
  Alcotest.(check int) "every caller answered" 3 !answered;
  (* Past the cooldown the next request is a half-open probe: it goes out,
     the peer is still dead, and the breaker reopens. *)
  Engine.schedule engine ~delay:2_000_000L req;
  Engine.run engine;
  Alcotest.(check int) "probe hit the wire" (sent_before + 1)
    (Device.requests_sent client);
  Alcotest.(check bool) "probe failure reopens" true
    (Device.breaker_state client ~peer = `Open);
  Alcotest.(check int) "reopen counted" 2 (Device.breaker_opens client);
  Alcotest.(check int) "probe answered too" 4 !answered

let test_expired_request_shed () =
  let engine, bus, mem = rig () in
  let server = Device.create bus ~mem ~name:"server" () in
  Device.set_app_handler server (fun msg ->
      match msg.Message.payload with
      | Message.App_message { tag = "ping"; body } ->
        Device.reply server ~to_:msg.Message.src ~corr:msg.Message.corr
          (Message.App_message { tag = "pong"; body })
      | _ -> ());
  Device.start server;
  let client = Device.create bus ~mem ~name:"client" () in
  Device.start client;
  Engine.run engine;
  (* A deadline already in the past when the message lands: the device
     sheds it instead of doing doomed work; the client's timeout (not a
     reply) ends the request. *)
  let got = ref None in
  Device.request client
    ~deadline_ns:(Engine.now engine)
    ~timeout:50_000L
    ~dst:(Types.Device (Device.id server))
    (Message.App_message { tag = "ping"; body = "" })
    (fun p -> got := Some p);
  Engine.run engine;
  (match !got with
  | Some (Message.Error_msg { code = Types.E_busy; _ }) -> ()
  | _ -> Alcotest.fail "expired request should end in the local timeout");
  Alcotest.(check int) "shed at the first hop" 1 (Sysbus.messages_expired bus);
  (* Without a deadline the same request round-trips. *)
  let got = ref None in
  Device.request client
    ~dst:(Types.Device (Device.id server))
    (Message.App_message { tag = "ping"; body = "x" })
    (fun p -> got := Some p);
  Engine.run engine;
  match !got with
  | Some (Message.App_message { tag = "pong"; _ }) -> ()
  | _ -> Alcotest.fail "deadline-free request should succeed"

let test_fault_handler_invoked () =
  let engine, bus, mem = rig () in
  let dev = Device.create bus ~mem ~name:"faulty" () in
  Device.start dev;
  Engine.run engine;
  let seen = ref [] in
  Device.on_fault dev (fun f -> seen := f :: !seen);
  let dma = Device.dma dev ~pasid:1 in
  (match Dma.read_field dma 0xBAD0_0000 1 with
  | _ -> Alcotest.fail "expected fault"
  | exception Dma.Dma_fault _ -> ());
  Alcotest.(check int) "handler saw it" 1 (List.length !seen);
  Alcotest.(check int) "counter" 1 (Device.fault_count dev)

let test_heartbeats_keep_device_alive () =
  let engine = Engine.create () in
  let bus =
    Sysbus.create
      ~config:
        { Sysbus.default_config with heartbeat_timeout_ns = 200_000L }
      engine
  in
  let mem = Physmem.create () in
  let a = Device.create bus ~mem ~name:"beater" () in
  let b = Device.create bus ~mem ~name:"silent" () in
  Device.start a;
  Device.start b;
  Device.enable_heartbeat a ~period:50_000L;
  Engine.run ~until:1_000_000L engine;
  Alcotest.(check bool) "beater alive" true (Sysbus.is_live bus (Device.id a));
  Alcotest.(check bool) "silent dead" false (Sysbus.is_live bus (Device.id b))

(* --- auth + console devices -------------------------------------------------------- *)

let test_auth_flow () =
  let engine, bus, mem = rig () in
  let auth = Auth_dev.create bus ~mem ~users:[ ("alice", "pw1") ] () in
  let dev = Device.create bus ~mem ~name:"client" () in
  Device.start dev;
  Engine.run engine;
  let ok_session = ref None and bad = ref None in
  Device.request dev ~dst:(Types.Device (Auth_dev.id auth))
    (Message.Auth_request { user = "alice"; credential = "pw1" })
    (fun p -> ok_session := Some p);
  Device.request dev ~dst:(Types.Device (Auth_dev.id auth))
    (Message.Auth_request { user = "alice"; credential = "wrong" })
    (fun p -> bad := Some p);
  Engine.run engine;
  (match !ok_session with
  | Some (Message.Auth_response { ok = true; session = Some token }) ->
    Alcotest.(check bool) "session verifies" true
      (Lastcpu_proto.Token.verify ~key:(Auth_dev.key auth) token);
    Alcotest.(check string) "resource" "session:alice"
      token.Lastcpu_proto.Token.resource
  | _ -> Alcotest.fail "good login failed");
  (match !bad with
  | Some (Message.Auth_response { ok = false; session = None }) -> ()
  | _ -> Alcotest.fail "bad login accepted");
  Alcotest.(check int) "attempts" 2 (Auth_dev.auth_attempts auth);
  Alcotest.(check int) "failures" 1 (Auth_dev.auth_failures auth)

let test_console_log_collection () =
  let engine, bus, mem = rig () in
  let console = Console_dev.create bus ~mem ~capacity:3 () in
  let dev = Device.create bus ~mem ~name:"logger" () in
  Device.start dev;
  Engine.run engine;
  for i = 1 to 5 do
    Device.send dev ~dst:(Types.Device (Console_dev.id console))
      (Message.App_message { tag = "log"; body = Printf.sprintf "line %d" i })
  done;
  Engine.run engine;
  Alcotest.(check int) "received all" 5 (Console_dev.lines_received console);
  Alcotest.(check (list string)) "capacity keeps newest"
    [ "line 3"; "line 4"; "line 5" ]
    (Console_dev.log_lines console);
  (* Remote read. *)
  let got = ref None in
  Device.request dev ~dst:(Types.Device (Console_dev.id console))
    (Message.App_message { tag = "log-read"; body = "2" })
    (fun p -> got := Some p);
  Engine.run engine;
  match !got with
  | Some (Message.App_message { tag = "log-data"; body }) ->
    Alcotest.(check string) "tail" "line 4\nline 5" body
  | _ -> Alcotest.fail "log-read failed"

let () =
  Alcotest.run "device"
    [
      ( "lifecycle",
        [
          Alcotest.test_case "start announces" `Quick test_start_announces;
          Alcotest.test_case "discover" `Quick test_discover_finds_service;
          Alcotest.test_case "discover timeout" `Quick test_discover_timeout_when_absent;
        ] );
      ( "services",
        [
          Alcotest.test_case "open/close" `Quick test_open_close_connection_table;
          Alcotest.test_case "unknown service" `Quick test_open_unknown_service_fails;
          Alcotest.test_case "connection isolation" `Quick test_isolation_between_connections;
          Alcotest.test_case "request/response" `Quick test_app_message_request_response;
        ] );
      ( "memory",
        [
          Alcotest.test_case "alloc+map+token" `Quick test_alloc_maps_and_returns_token;
          Alcotest.test_case "overlap/exhaustion" `Quick test_alloc_rejects_overlap_and_exhaustion;
          Alcotest.test_case "free revokes" `Quick test_free_unmaps_and_releases;
          Alcotest.test_case "grant" `Quick test_grant_shares_with_other_device;
          Alcotest.test_case "quota" `Quick test_quota_enforced;
        ] );
      ( "signals",
        [
          Alcotest.test_case "doorbell registry" `Quick test_doorbell_direct_and_registry;
          Alcotest.test_case "doorbell via bus" `Quick test_doorbell_via_bus_ablation;
          Alcotest.test_case "request timeout" `Quick test_request_timeout;
          Alcotest.test_case "faults" `Quick test_fault_handler_invoked;
          Alcotest.test_case "heartbeats" `Quick test_heartbeats_keep_device_alive;
        ] );
      ( "overload",
        [
          Alcotest.test_case "bounded queue nacks" `Quick
            test_bounded_queue_nacks_with_retry_after;
          Alcotest.test_case "circuit breaker" `Quick
            test_circuit_breaker_opens_and_probes;
          Alcotest.test_case "expired request shed" `Quick
            test_expired_request_shed;
        ] );
      ( "aux devices",
        [
          Alcotest.test_case "auth flow" `Quick test_auth_flow;
          Alcotest.test_case "console logs" `Quick test_console_log_collection;
        ] );
    ]
