(* Telemetry registry: handles, snapshots, op timing and legacy-accessor
   parity. *)

module Engine = Lastcpu_sim.Engine
module Metrics = Lastcpu_sim.Metrics
module Stats = Lastcpu_sim.Stats
module Trace = Lastcpu_sim.Trace
module Sysbus = Lastcpu_bus.Sysbus
module Device = Lastcpu_device.Device
module System = Lastcpu_core.System
module Scenario = Lastcpu_core.Scenario_kvs
module Smart_nic = Lastcpu_devices.Smart_nic
module Smart_ssd = Lastcpu_devices.Smart_ssd
module Memctl = Lastcpu_devices.Memctl
module Physmem = Lastcpu_mem.Physmem
module Types = Lastcpu_proto.Types
module Message = Lastcpu_proto.Message
module Fs = Lastcpu_fs.Fs
module Kv_app = Lastcpu_kv.Kv_app
module Kv_proto = Lastcpu_kv.Kv_proto

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* --- registry basics -------------------------------------------------------- *)

let test_handles () =
  let m = Metrics.create () in
  let c = Metrics.counter m ~actor:"a" ~name:"ops" in
  Metrics.incr c;
  Metrics.incr ~by:4 c;
  check "counter" 5 (Metrics.counter_value c);
  (* Same key resolves to the same underlying cell. *)
  let c' = Metrics.counter m ~actor:"a" ~name:"ops" in
  Metrics.incr c';
  check "aliased handle" 6 (Metrics.counter_value c);
  check "counter_read" 6 (Metrics.counter_read m ~actor:"a" ~name:"ops");
  check "absent read" 0 (Metrics.counter_read m ~actor:"a" ~name:"nope");
  (* Re-registering under a different instrument type is a bug. *)
  (match Metrics.gauge m ~actor:"a" ~name:"ops" with
  | _ -> Alcotest.fail "type mismatch accepted"
  | exception Invalid_argument _ -> ());
  let g = Metrics.gauge m ~actor:"a" ~name:"level" in
  Metrics.set g 2.5;
  Alcotest.(check (float 0.0)) "gauge" 2.5 (Metrics.gauge_value g);
  let h = Metrics.histogram m ~actor:"b" ~name:"lat_ns" in
  Metrics.observe h 100.;
  Metrics.observe h 200.;
  check "observations" 2 (Metrics.observations h);
  check "size" 3 (Metrics.size m)

let test_claim_actor () =
  let m = Metrics.create () in
  Alcotest.(check string) "first" "dev" (Metrics.claim_actor m "dev");
  Alcotest.(check string) "second" "dev#2" (Metrics.claim_actor m "dev");
  Alcotest.(check string) "third" "dev#3" (Metrics.claim_actor m "dev")

let test_snapshot_sorted () =
  let m = Metrics.create () in
  ignore (Metrics.counter m ~actor:"zeta" ~name:"z");
  ignore (Metrics.counter m ~actor:"alpha" ~name:"b");
  ignore (Metrics.counter m ~actor:"alpha" ~name:"a");
  let keys = List.map (fun (a, n, _) -> (a, n)) (Metrics.snapshot m) in
  Alcotest.(check (list (pair string string)))
    "sorted by actor then instrument"
    [ ("alpha", "a"); ("alpha", "b"); ("zeta", "z") ]
    keys;
  Alcotest.(check (list string)) "actors" [ "alpha"; "zeta" ] (Metrics.actors m)

(* --- lazily registered counters ----------------------------------------------- *)

let test_lazy_unbumped () =
  let m = Metrics.create () in
  ignore (Metrics.counter m ~actor:"a" ~name:"ops");
  let before = Metrics.snapshot m and digest = Metrics.digest m in
  let l = Metrics.lazy_counter m ~actor:"a" ~name:"shed" in
  check "value while absent" 0 (Metrics.lazy_value l);
  checkb "snapshot unchanged" true (Metrics.snapshot m = before);
  checkb "digest unchanged" true (Int64.equal (Metrics.digest m) digest);
  Metrics.bump ~by:0 l;
  check "zero bump registers" 2 (Metrics.size m);
  Metrics.bump l;
  Metrics.bump ~by:2 l;
  check "bumped" 3 (Metrics.lazy_value l);
  check "registry agrees" 3 (Metrics.counter_read m ~actor:"a" ~name:"shed")

(* A rebuilt topology's handle is unbound when the registry is restored. *)
let restored_registry () =
  let m = Metrics.create () in
  Metrics.bump ~by:5 (Metrics.lazy_counter m ~actor:"bus" ~name:"quarantines");
  let m' = Metrics.create () in
  let l = Metrics.lazy_counter m' ~actor:"bus" ~name:"quarantines" in
  let w = Lastcpu_sim.Snapshot.W.create () in
  Metrics.save_state m w;
  Metrics.restore_state m'
    (Lastcpu_sim.Snapshot.R.of_string (Lastcpu_sim.Snapshot.W.contents w));
  (m', l)

let test_lazy_reads_restored () =
  let _, l = restored_registry () in
  check "restored value before any bump" 5 (Metrics.lazy_value l)

let test_lazy_bump_continues () =
  let m, l = restored_registry () in
  Metrics.bump l;
  check "continues from the restored value" 6 (Metrics.lazy_value l);
  check "one instrument" 1 (Metrics.size m);
  check "registry agrees" 6
    (Metrics.counter_read m ~actor:"bus" ~name:"quarantines")

(* --- histogram edge cases ---------------------------------------------------- *)

let test_histogram_empty () =
  let h = Stats.Histogram.create () in
  check "count" 0 (Stats.Histogram.count h);
  Alcotest.(check (float 0.0)) "p50 of empty" 0. (Stats.Histogram.percentile h 50.)

let test_histogram_underflow () =
  let h = Stats.Histogram.create () in
  Stats.Histogram.add h 0.5;
  Stats.Histogram.add h (-3.);
  check "count" 2 (Stats.Histogram.count h);
  let p = Stats.Histogram.percentile h 99. in
  checkb "underflow bucket edge" true (p >= 0. && p <= 1.0)

let test_histogram_single () =
  let h = Stats.Histogram.create () in
  Stats.Histogram.add h 1234.;
  let p = Stats.Histogram.percentile h 50. in
  (* Log-bucketed: the answer is the bucket's upper edge, within the
     per-decade relative error of the true value. *)
  checkb "single value in bucket" true (p >= 1234. && p <= 1234. *. 1.1)

let test_histogram_merge () =
  let a = Stats.Histogram.create () and b = Stats.Histogram.create () in
  Stats.Histogram.add a 10.;
  Stats.Histogram.add b 1000.;
  let ab = Stats.Histogram.merge a b in
  check "merged count" 2 (Stats.Histogram.count ab);
  let empty = Stats.Histogram.merge (Stats.Histogram.create ()) (Stats.Histogram.create ()) in
  check "merged empty" 0 (Stats.Histogram.count empty)

(* --- determinism -------------------------------------------------------------- *)

let scenario_exn () =
  match Scenario.run () with
  | Ok outcome -> outcome
  | Error e -> Alcotest.fail ("scenario: " ^ e)

let test_snapshot_deterministic () =
  let snap () =
    let outcome = scenario_exn () in
    Metrics.to_json (Engine.metrics (System.engine outcome.Scenario.system))
  in
  Alcotest.(check string) "identical seeded runs" (snap ()) (snap ())

(* --- exactly-once timing ------------------------------------------------------ *)

(* Each op holds its start time in its continuation and observes its
   histogram when it completes, so every completion path (answer, timeout,
   breaker fast-fail, late duplicate) must add exactly one sample. *)

let observations engine ~actor ~name =
  match Metrics.find (Engine.metrics engine) ~actor ~name with
  | Some (Metrics.Histogram_v r) -> r.Stats.n
  | Some _ -> Alcotest.failf "%s/%s is not a histogram" actor name
  | None -> 0

let device_rig () =
  let engine = Engine.create () in
  let bus = Sysbus.create engine in
  let mem = Physmem.create () in
  let device name =
    let d = Device.create bus ~mem ~name () in
    Device.start d;
    d
  in
  (engine, bus, mem, device)

let test_request_timed_once () =
  let engine, bus, mem, device = device_rig () in
  let mc = Memctl.create bus ~mem ~dram_pages:1024 () in
  let mute = device "mute" (* never answers app messages *) in
  let client = device "client" in
  Engine.run engine;
  let timed () =
    observations engine ~actor:(Device.actor client) ~name:"request_ns"
  in
  let replies = ref 0 in
  let request dst payload =
    Device.request client ~timeout:10_000L ~dst:(Types.Device dst) payload
      (fun _ -> incr replies);
    Engine.run engine
  in
  request (Memctl.id mc)
    (Message.Alloc_request
       { pasid = 7; va = 0x4000_0000L; bytes = 4096L; perm = Types.perm_rw });
  check "answered" 1 (timed ());
  Device.enable_circuit_breaker client ~threshold:1 ~cooldown_ns:1_000_000L;
  let ping = Message.App_message { tag = "ping"; body = "" } in
  request (Device.id mute) ping;
  check "timed out" 2 (timed ());
  checkb "breaker open" true
    (Device.breaker_state client ~peer:(Device.id mute) = `Open);
  request (Device.id mute) ping;
  check "breaker fast-fail counted" 1 (Device.breaker_fast_fails client);
  check "fast-failed" 3 (timed ());
  check "every caller answered once" 3 !replies

let test_discover_timed_once () =
  let engine, bus, mem, device = device_rig () in
  (* Two providers: the second answer is a late duplicate. *)
  ignore (Memctl.create bus ~mem ~name:"mc0" ~dram_pages:1024 ());
  ignore
    (Memctl.create bus ~mem ~name:"mc1" ~dram_base:0x2000_0000L
       ~dram_pages:1024 ());
  let seeker = device "seeker" in
  Engine.run engine;
  let timed () =
    observations engine ~actor:(Device.actor seeker) ~name:"discover_ns"
  in
  let found = ref [] in
  let discover kind =
    Device.discover seeker ~kind ~query:"" (fun r -> found := r :: !found);
    Engine.run engine
  in
  discover Types.Memory_service;
  checkb "answered" true (List.length !found = 1 && List.hd !found <> None);
  check "answered once" 1 (timed ());
  discover Types.File_service;
  checkb "timed out" true (List.length !found = 2 && List.hd !found = None);
  check "timed out once" 2 (timed ())

let test_kv_op_timed_once () =
  match Scenario.run ~smoke_ops:0 () with
  | Error e -> Alcotest.fail e
  | Ok outcome ->
    let system = outcome.Scenario.system and app = outcome.Scenario.app in
    let engine = System.engine system in
    let timed () =
      List.fold_left
        (fun n (_, name, v) ->
          match v with
          | Metrics.Histogram_v r when name = "kv_op_ns" -> n + r.Stats.n
          | _ -> n)
        0
        (Metrics.snapshot (Engine.metrics engine))
    in
    let before = timed () in
    let reply = ref None in
    let op o =
      Kv_app.local_op app o (fun r -> reply := Some r);
      System.run_until_quiescent system
    in
    op (Kv_proto.Get "absent");
    checkb "get answered" true (!reply = Some (Kv_proto.Value None));
    check "get" (before + 1) (timed ());
    (* Pull the log out from under the store: the WAL append fails. *)
    (match
       Fs.unlink (Smart_ssd.fs (System.ssd system 0)) ~user:"root"
         "/kv/data.log"
     with
    | Ok () -> ()
    | Error e -> Alcotest.fail (Fs.error_to_string e));
    op (Kv_proto.Put ("k", "v"));
    (match !reply with
    | Some (Kv_proto.Failed _) -> ()
    | _ -> Alcotest.fail "put should fail without its log");
    check "failed put" (before + 2) (timed ())

(* --- legacy-accessor parity ------------------------------------------------------ *)

let test_accessor_parity () =
  let outcome = scenario_exn () in
  let system = outcome.Scenario.system in
  let m = Engine.metrics (System.engine system) in
  let bus = System.bus system in
  let c = Sysbus.counters bus in
  let bus_read name = Metrics.counter_read m ~actor:(Sysbus.actor bus) ~name in
  check "routed" c.Sysbus.routed (bus_read "routed");
  check "broadcasts" c.Sysbus.broadcasts (bus_read "broadcasts");
  check "maps_programmed" c.Sysbus.maps_programmed (bus_read "maps_programmed");
  check "unmaps" c.Sysbus.unmaps (bus_read "unmaps");
  check "token_failures" c.Sysbus.token_failures (bus_read "token_failures");
  check "undeliverable" c.Sysbus.undeliverable (bus_read "undeliverable");
  check "control_bytes" c.Sysbus.control_bytes (bus_read "control_bytes");
  checkb "bus routed traffic" true (c.Sysbus.routed > 0);
  let dev = Smart_nic.device (System.nic system 0) in
  let dev_read name = Metrics.counter_read m ~actor:(Device.actor dev) ~name in
  check "handled" (Device.messages_handled dev) (dev_read "handled");
  check "sent" (Device.requests_sent dev) (dev_read "sent");
  check "faults" (Device.fault_count dev) (dev_read "faults");
  checkb "device handled traffic" true (Device.messages_handled dev > 0);
  let ssd = System.ssd system 0 in
  check "requests_served"
    (Smart_ssd.requests_served ssd)
    (Metrics.counter_read m ~actor:(Device.actor (Smart_ssd.device ssd))
       ~name:"requests_served");
  checkb "ssd served requests" true (Smart_ssd.requests_served ssd > 0)

(* --- export sanity ---------------------------------------------------------------- *)

let test_export () =
  let outcome = scenario_exn () in
  let m = Engine.metrics (System.engine outcome.Scenario.system) in
  checkb "at least 10 instruments" true (Metrics.size m >= 10);
  checkb "at least 4 actors" true (List.length (Metrics.actors m) >= 4);
  let prom = Metrics.to_prometheus m in
  checkb "prometheus non-empty" true (String.length prom > 0);
  let json = Metrics.to_json m in
  checkb "json wrapper" true
    (String.length json > 2
    && String.sub json 0 11 = "{\"metrics\":"
    && json.[String.length json - 1] = '}')

let () =
  Alcotest.run "metrics"
    [
      ( "registry",
        [
          Alcotest.test_case "handles" `Quick test_handles;
          Alcotest.test_case "claim_actor" `Quick test_claim_actor;
          Alcotest.test_case "snapshot sorted" `Quick test_snapshot_sorted;
        ] );
      ( "lazy counter",
        [
          Alcotest.test_case "unbumped is invisible" `Quick test_lazy_unbumped;
          Alcotest.test_case "reads restored value" `Quick
            test_lazy_reads_restored;
          Alcotest.test_case "bump continues after restore" `Quick
            test_lazy_bump_continues;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "empty" `Quick test_histogram_empty;
          Alcotest.test_case "underflow" `Quick test_histogram_underflow;
          Alcotest.test_case "single value" `Quick test_histogram_single;
          Alcotest.test_case "merge" `Quick test_histogram_merge;
        ] );
      ( "determinism",
        [ Alcotest.test_case "seeded snapshot" `Quick test_snapshot_deterministic ] );
      ( "timing",
        [
          Alcotest.test_case "request answer, timeout, fast-fail" `Quick
            test_request_timed_once;
          Alcotest.test_case "discover answer and timeout" `Quick
            test_discover_timed_once;
          Alcotest.test_case "kv get and failed put" `Quick
            test_kv_op_timed_once;
        ] );
      ( "parity",
        [ Alcotest.test_case "legacy accessors" `Quick test_accessor_parity ] );
      ( "export",
        [ Alcotest.test_case "prometheus + json" `Quick test_export ] );
    ]
