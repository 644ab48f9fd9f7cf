(* Fault-injection layer: zero-plan invariance, seed determinism, wire CRC,
   NAND fault surfacing, request retry/backoff, late-response hygiene,
   doorbell accounting, crash→revive rejoin, and the full chaos soak
   (T13) with provider failover. *)

module Types = Lastcpu_proto.Types
module Message = Lastcpu_proto.Message
module Codec = Lastcpu_proto.Codec
module Wire = Lastcpu_proto.Wire
module Engine = Lastcpu_sim.Engine
module Metrics = Lastcpu_sim.Metrics
module Faults = Lastcpu_sim.Faults
module Physmem = Lastcpu_mem.Physmem
module Sysbus = Lastcpu_bus.Sysbus
module Device = Lastcpu_device.Device
module Nand = Lastcpu_flash.Nand
module Snapshot = Lastcpu_sim.Snapshot
module Experiments = Lastcpu_core.Experiments

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* A chatty plan (no crashes) for the small-rig tests: high enough rates
   that a short run reliably exercises every message-fault path. *)
let chatty =
  {
    Faults.default_chaos with
    Faults.msg_loss = 0.1;
    msg_dup = 0.05;
    msg_delay = 0.2;
    msg_corrupt = 0.05;
    crashes = [];
  }

(* --- zero plan is inert ------------------------------------------------------ *)

let test_zero_plan_inert () =
  let engine = Engine.create () in
  let faults = Engine.faults engine in
  checkb "inactive" false (Faults.active faults);
  (* No counters registered: the registry is indistinguishable from a
     build without the fault layer. *)
  let snapshot = Metrics.snapshot (Engine.metrics engine) in
  checkb "no faults actor" true
    (List.for_all (fun (actor, _, _) -> actor <> "faults") snapshot)

(* --- seed determinism -------------------------------------------------------- *)

(* Two devices chattering over a lossy bus with retries; returns the final
   registry snapshot. *)
let lossy_chatter seed =
  let engine = Engine.create ~seed ~fault_plan:chatty () in
  let bus = Sysbus.create engine in
  let mem = Physmem.create () in
  let a = Device.create bus ~mem ~name:"a" () in
  let b = Device.create bus ~mem ~name:"b" () in
  Device.set_app_handler b (fun msg ->
      match msg.Message.payload with
      | Message.App_message _ ->
        Device.reply b ~to_:msg.Message.src ~corr:msg.Message.corr
          (Message.App_message { tag = "r"; body = "" })
      | _ -> ());
  Device.start a;
  Device.start b;
  Engine.run engine;
  let done_ = ref false in
  let rec send i =
    if i = 200 then done_ := true
    else
      Device.request a ~timeout:50_000L ~retries:6
        ~dst:(Types.Device (Device.id b))
        (Message.App_message { tag = "q"; body = string_of_int i })
        (fun _ -> send (i + 1))
  in
  send 0;
  Engine.run engine;
  checkb "chatter completed" true !done_;
  Metrics.to_json (Engine.metrics engine)

let test_same_seed_same_faults () =
  let s1 = lossy_chatter 1234L in
  let s2 = lossy_chatter 1234L in
  Alcotest.(check string) "byte-identical snapshots" s1 s2

let test_faults_actually_fire () =
  let engine = Engine.create ~seed:1234L ~fault_plan:chatty () in
  let bus = Sysbus.create engine in
  let mem = Physmem.create () in
  let a = Device.create bus ~mem ~name:"a" () in
  let b = Device.create bus ~mem ~name:"b" () in
  Device.set_app_handler b (fun msg ->
      match msg.Message.payload with
      | Message.App_message _ ->
        Device.reply b ~to_:msg.Message.src ~corr:msg.Message.corr
          (Message.App_message { tag = "r"; body = "" })
      | _ -> ());
  Device.start a;
  Device.start b;
  Engine.run engine;
  let rec send i =
    if i < 200 then
      Device.request a ~timeout:50_000L ~retries:6
        ~dst:(Types.Device (Device.id b))
        (Message.App_message { tag = "q"; body = string_of_int i })
        (fun _ -> send (i + 1))
  in
  send 0;
  Engine.run engine;
  let m = Engine.metrics engine in
  let read name = Metrics.counter_read m ~actor:"faults" ~name in
  checkb "messages lost" true (read "messages_lost" > 0);
  checkb "messages duplicated" true (read "messages_duplicated" > 0);
  checkb "messages delayed" true (read "messages_delayed" > 0);
  checkb "messages corrupted" true (read "messages_corrupted" > 0);
  (* Each lost/corrupted delivery shows up as a device-level retry. *)
  checkb "retries fired" true (Device.request_retries a > 0)

(* --- framed codec (wire CRC) ------------------------------------------------- *)

let test_framed_roundtrip () =
  let msg =
    Message.make ~src:3 ~dst:(Types.Device 5) ~corr:77
      (Message.App_message { tag = "hello"; body = "payload-bytes" })
  in
  let framed = Codec.encode_framed msg in
  match Codec.decode_framed framed with
  | m -> checkb "roundtrip" true (m = msg)
  | exception Wire.Malformed e -> Alcotest.fail ("framed decode: " ^ e)

let test_framed_detects_any_bit_flip () =
  let msg =
    Message.make ~src:1 ~dst:(Types.Device 2) ~corr:9
      (Message.App_message { tag = "t"; body = "abcdef" })
  in
  let framed = Codec.encode_framed msg in
  for bit = 0 to (String.length framed * 8) - 1 do
    let b = Bytes.of_string framed in
    let byte = bit / 8 in
    Bytes.set b byte
      (Char.chr (Char.code (Bytes.get b byte) lxor (1 lsl (bit mod 8))));
    match Codec.decode_framed (Bytes.to_string b) with
    | exception Wire.Malformed _ -> ()
    | m ->
      if m = msg then
        Alcotest.fail (Printf.sprintf "bit flip %d undetected" bit)
  done

(* --- NAND fault surfacing ---------------------------------------------------- *)

let nand_with plan =
  let m = Metrics.create () in
  let faults = Faults.create ~plan ~seed:7L m in
  (Nand.create ~faults (), m)

let page = String.make 4096 'x'

let test_nand_transient_read_failure () =
  let nand, m =
    nand_with { Faults.zero with Faults.nand_read_fail = 1.0 }
  in
  (match Nand.program_page nand ~block:0 ~page:0 page with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("program: " ^ e));
  (match Nand.read_page nand ~block:0 ~page:0 with
  | Error e -> Alcotest.(check string) "io error" "transient read failure" e
  | Ok _ -> Alcotest.fail "fault not injected");
  checkb "counted" true
    (Metrics.counter_read m ~actor:"faults" ~name:"nand_read_errors" > 0)

let test_nand_bit_flip_caught_by_page_crc () =
  let nand, m = nand_with { Faults.zero with Faults.nand_bit_flip = 1.0 } in
  (match Nand.program_page nand ~block:0 ~page:0 page with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("program: " ^ e));
  (match Nand.read_page nand ~block:0 ~page:0 with
  | Error e -> Alcotest.(check string) "ecc error" "uncorrectable bit error (ECC)" e
  | Ok _ -> Alcotest.fail "flip not injected");
  checkb "counted" true
    (Metrics.counter_read m ~actor:"faults" ~name:"nand_bit_flips" > 0);
  (* The flip hit a private copy: the programmed string and the stored
     page (read back from a fault-free chip restored from this one) are
     both byte-identical to what was written. *)
  Alcotest.(check string) "programmed string untouched" (String.make 4096 'x') page;
  let w = Snapshot.W.create () in
  Nand.save w nand;
  let clean = Nand.create () in
  Nand.restore (Snapshot.R.of_string (Snapshot.W.contents w)) clean;
  match Nand.read_page clean ~block:0 ~page:0 with
  | Ok stored ->
    Alcotest.(check string) "stored page unchanged" page
      (Bytes.sub_string stored.bytes stored.off 4096)
  | Error e -> Alcotest.fail ("clean read: " ^ e)

(* --- retry / give-up / late responses ---------------------------------------- *)

let rig ?(fault_plan = Faults.zero) ?(heartbeat_timeout_ns = 0L) () =
  let engine = Engine.create ~fault_plan () in
  let bus =
    Sysbus.create
      ~config:
        { Sysbus.default_config with enable_tokens = false; heartbeat_timeout_ns }
      engine
  in
  let mem = Physmem.create () in
  (engine, bus, mem)

let test_request_retries_then_gives_up () =
  let engine, bus, mem = rig () in
  let a = Device.create bus ~mem ~name:"a" () in
  let b = Device.create bus ~mem ~name:"b" () in
  (* b has no app handler: requests vanish silently. *)
  Device.start a;
  Device.start b;
  Engine.run engine;
  let result = ref None in
  Device.request a ~timeout:10_000L ~retries:3
    ~dst:(Types.Device (Device.id b))
    (Message.App_message { tag = "q"; body = "" })
    (fun payload -> result := Some payload);
  Engine.run engine;
  check "retries counted" 3 (Device.request_retries a);
  check "gave up once" 1 (Device.requests_gave_up a);
  match !result with
  | Some (Message.Error_msg { code = Types.E_busy; _ }) -> ()
  | Some _ -> Alcotest.fail "wrong give-up payload"
  | None -> Alcotest.fail "continuation never ran"

let test_late_response_swallowed () =
  let engine, bus, mem = rig () in
  let a = Device.create bus ~mem ~name:"a" () in
  let b = Device.create bus ~mem ~name:"b" () in
  (* b answers, but far too late. *)
  Device.set_app_handler b (fun msg ->
      match msg.Message.payload with
      | Message.App_message _ ->
        let src = msg.Message.src and corr = msg.Message.corr in
        Engine.schedule engine ~delay:100_000L (fun () ->
            Device.reply b ~to_:src ~corr
              (Message.App_message { tag = "late"; body = "" }))
      | _ -> ());
  let leaked = ref 0 in
  Device.set_app_handler a (fun msg ->
      match msg.Message.payload with
      | Message.App_message _ -> incr leaked
      | _ -> ());
  Device.start a;
  Device.start b;
  Engine.run engine;
  let timed_out = ref false in
  Device.request a ~timeout:10_000L ~dst:(Types.Device (Device.id b))
    (Message.App_message { tag = "q"; body = "" })
    (fun payload ->
      match payload with
      | Message.Error_msg { code = Types.E_busy; _ } -> timed_out := true
      | _ -> ());
  Engine.run engine;
  checkb "request timed out" true !timed_out;
  check "late response swallowed" 1 (Device.late_responses a);
  check "nothing leaked to app handler" 0 !leaked

let test_dropped_doorbells_counted () =
  let engine, bus, mem = rig () in
  let a = Device.create bus ~mem ~name:"a" () in
  let b = Device.create bus ~mem ~name:"b" () in
  Device.start a;
  Engine.run engine;
  (* b was never started: not live, so its doorbell is dropped. *)
  Sysbus.notify bus ~src:(Device.id a) ~dst:(Device.id b) ~queue:0;
  Engine.run engine;
  check "doorbell dropped" 1 (Sysbus.counters bus).Sysbus.doorbells_dropped

(* --- revive under an active heartbeat sweep ---------------------------------- *)

let test_revive_rejoins_under_heartbeat_sweep () =
  let engine, bus, mem = rig ~heartbeat_timeout_ns:100_000L () in
  let d = Device.create bus ~mem ~name:"d" () in
  Device.start d;
  Device.enable_heartbeat d ~period:40_000L;
  Engine.run ~until:150_000L engine;
  checkb "live after boot" true (Sysbus.is_live bus (Device.id d));
  Sysbus.fail_device bus (Device.id d);
  checkb "dead after failure" false (Sysbus.is_live bus (Device.id d));
  (* A stale heartbeat from the dead window must not resurrect it. *)
  Sysbus.send bus
    (Message.make ~src:(Device.id d) ~dst:Types.Bus ~corr:0 Message.Heartbeat);
  Engine.run ~until:300_000L engine;
  checkb "stale heartbeat ignored" false (Sysbus.is_live bus (Device.id d));
  (* The §4 recovery: reconnect the slot, then the device reannounces. *)
  Sysbus.revive_device bus (Device.id d);
  Device.reannounce d;
  Engine.run ~until:350_000L engine;
  checkb "rejoined" true (Sysbus.is_live bus (Device.id d));
  (* Its heartbeat loop resumes, so the sweep keeps it live. *)
  Engine.run ~until:700_000L engine;
  checkb "stays live across sweeps" true (Sysbus.is_live bus (Device.id d))

(* --- the full chaos soak (T13) ----------------------------------------------- *)

let test_t13_survives_with_failover () =
  let table =
    match Experiments.by_id "t13" with
    | Some t13 -> t13 ()
    | None -> Alcotest.fail "missing experiment t13"
  in
  check "two designs" 2 (List.length table.Experiments.rows);
  List.iter
    (fun row ->
      match row with
      | design :: ops :: completed :: _ ->
        let ops = int_of_string ops and completed = int_of_string completed in
        checkb
          (design ^ " >= 99% ops eventually succeed")
          true
          (float_of_int completed >= 0.99 *. float_of_int ops);
        Alcotest.(check string)
          (design ^ " converged")
          "yes"
          (List.nth row (List.length row - 1))
      | _ -> Alcotest.fail "malformed row")
    table.Experiments.rows;
  (* CPU-less row: the provider crash forced at least one failover, and the
     crash window itself was injected exactly once. *)
  (match table.Experiments.rows with
  | [ cpu_less; _ ] ->
    checkb "failover happened" true (int_of_string (List.nth cpu_less 6) >= 1);
    check "one crash injected" 1 (int_of_string (List.nth cpu_less 7))
  | _ -> Alcotest.fail "expected two rows")

let () =
  Alcotest.run "faults"
    [
      ( "plan",
        [
          Alcotest.test_case "zero plan inert" `Quick test_zero_plan_inert;
          Alcotest.test_case "same seed, same faults" `Quick
            test_same_seed_same_faults;
          Alcotest.test_case "faults fire and are counted" `Quick
            test_faults_actually_fire;
        ] );
      ( "wire",
        [
          Alcotest.test_case "framed roundtrip" `Quick test_framed_roundtrip;
          Alcotest.test_case "CRC catches any bit flip" `Quick
            test_framed_detects_any_bit_flip;
        ] );
      ( "nand",
        [
          Alcotest.test_case "transient read failure" `Quick
            test_nand_transient_read_failure;
          Alcotest.test_case "bit flip caught by page CRC" `Quick
            test_nand_bit_flip_caught_by_page_crc;
        ] );
      ( "retry",
        [
          Alcotest.test_case "retries then gives up" `Quick
            test_request_retries_then_gives_up;
          Alcotest.test_case "late response swallowed" `Quick
            test_late_response_swallowed;
          Alcotest.test_case "dropped doorbells counted" `Quick
            test_dropped_doorbells_counted;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "revive rejoins under sweep" `Quick
            test_revive_rejoins_under_heartbeat_sweep;
          Alcotest.test_case "t13 chaos soak" `Slow
            test_t13_survives_with_failover;
        ] );
    ]
