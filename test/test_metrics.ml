(* Telemetry registry: handles, snapshots, spans and legacy-accessor parity. *)

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
  Metrics.restore_state m' (Metrics.save_state m);
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

(* --- spans --------------------------------------------------------------------- *)

let test_span_pairing () =
  let outcome = scenario_exn () in
  let system = outcome.Scenario.system in
  System.run_until_idle system;
  let trace = Engine.trace (System.engine system) in
  let begins = Trace.find_all trace ~kind:Trace.span_begin_kind in
  let ends = Trace.find_all trace ~kind:Trace.span_end_kind in
  checkb "spans were recorded" true (List.length begins > 0);
  check "every begin has an end" (List.length begins) (List.length ends);
  check "no dangling spans" 0 (Trace.open_span_count trace);
  let begin_keys =
    List.fold_left
      (fun acc (e : Trace.entry) -> e.Trace.detail :: acc)
      [] begins
  in
  List.iter
    (fun (e : Trace.entry) ->
      checkb "end matches a begin" true (List.mem e.Trace.detail begin_keys))
    ends;
  (* Durations landed in the registry as <name>_ns histograms. *)
  let m = Engine.metrics (System.engine system) in
  match Metrics.find m ~actor:"memctl" ~name:"request_ns" with
  | Some (Metrics.Histogram_v r) -> checkb "memctl request span timed" true (r.Stats.n > 0)
  | _ -> Alcotest.fail "memctl/request_ns histogram missing"

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
      ( "spans",
        [ Alcotest.test_case "pairing on figure-2 run" `Quick test_span_pairing ] );
      ( "parity",
        [ Alcotest.test_case "legacy accessors" `Quick test_accessor_parity ] );
      ( "export",
        [ Alcotest.test_case "prometheus + json" `Quick test_export ] );
    ]
