(* Integration tests: system assembly, boot, the Figure-2 scenario, failure
   recovery, determinism. *)

module Types = Lastcpu_proto.Types
module Message = Lastcpu_proto.Message
module Engine = Lastcpu_sim.Engine
module Metrics = Lastcpu_sim.Metrics
module Trace = Lastcpu_sim.Trace
module System = Lastcpu_core.System
module Scenario = Lastcpu_core.Scenario_kvs
module Sysbus = Lastcpu_bus.Sysbus
module Device = Lastcpu_device.Device
module Smart_ssd = Lastcpu_devices.Smart_ssd
module Smart_nic = Lastcpu_devices.Smart_nic
module Memctl = Lastcpu_devices.Memctl
module File_client = Lastcpu_devices.File_client
module Fs = Lastcpu_fs.Fs

let test_build_and_boot () =
  let spec =
    { System.default_spec with nic_count = 2; ssd_count = 2; with_auth = true;
      with_console = true }
  in
  let system = System.build ~spec () in
  (match System.boot system with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let bus = System.bus system in
  (* memctl + auth + 2 ssd + 2 nic + console = 7 live devices *)
  Alcotest.(check int) "all live" 7 (List.length (Sysbus.live_devices bus))

let test_boot_times_out_when_device_hangs () =
  let system = System.build () in
  (* Fail the SSD before it can announce. *)
  Sysbus.fail_device (System.bus system) (Smart_ssd.id (System.ssd system 0));
  match System.boot system with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "boot succeeded with a dead device"

let test_topology_mentions_all_devices () =
  let spec = { System.default_spec with with_auth = true; with_console = true } in
  let system = System.build ~spec () in
  (match System.boot system with Ok () -> () | Error e -> Alcotest.fail e);
  let topo = System.topology system in
  let contains sub =
    let n = String.length sub and m = String.length topo in
    let rec scan i = i + n <= m && (String.sub topo i n = sub || scan (i + 1)) in
    scan 0
  in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " in topology") true (contains name))
    [ "memctl"; "ssd0"; "nic0"; "authdev"; "console" ]

(* Figure 2 is read off the run trace, which only a traced run records. *)
let traced = { System.default_spec with trace = true }

let test_figure2_steps_in_order () =
  match Scenario.run ~spec:traced () with
  | Error e -> Alcotest.fail e
  | Ok outcome ->
    let steps = Scenario.figure2_steps outcome in
    Alcotest.(check int) "seven steps" 7 (List.length steps);
    Alcotest.(check (list int)) "paper order" [ 1; 2; 3; 4; 5; 6; 7 ]
      (List.map (fun s -> s.Scenario.n) steps);
    let rec monotonic = function
      | a :: (b :: _ as rest) ->
        a.Scenario.at_ns <= b.Scenario.at_ns && monotonic rest
      | _ -> true
    in
    Alcotest.(check bool) "timestamps monotonic" true (monotonic steps)

let test_scenario_deterministic () =
  let run () =
    match Scenario.run ~spec:traced () with
    | Error e -> Alcotest.fail e
    | Ok outcome ->
      ( outcome.Scenario.boot_ns,
        List.map (fun s -> (s.Scenario.n, s.Scenario.at_ns))
          (Scenario.figure2_steps outcome) )
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical runs" true (a = b)

let test_figure2_with_authentication () =
  (* The authenticated variant of the bring-up: step 3 carries a real
     session token minted by the auth device and verified by the SSD. *)
  let spec =
    { traced with with_auth = true; users = [ ("kvs", "kvs-secret") ] }
  in
  match Scenario.run ~spec () with
  | Error e -> Alcotest.fail e
  | Ok outcome ->
    Alcotest.(check int) "seven steps" 7
      (List.length (Scenario.figure2_steps outcome))

(* The trace is opt-in: a default run records nothing, and tracing changes
   no metric. *)
let test_default_run_untraced () =
  let run spec =
    match Scenario.run ~spec () with
    | Error e -> Alcotest.fail e
    | Ok outcome -> outcome
  in
  let plain = run System.default_spec and with_trace = run traced in
  let engine o = System.engine o.Scenario.system in
  Alcotest.(check int) "no entries" 0
    (Trace.length (Engine.trace (engine plain)));
  Alcotest.(check int) "traced run: seven steps" 7
    (List.length (Scenario.figure2_steps with_trace));
  Alcotest.(check int64) "same metrics digest"
    (Metrics.digest (Engine.metrics (engine plain)))
    (Metrics.digest (Engine.metrics (engine with_trace)))

let test_untraced_figure2_raises () =
  match Scenario.run () with
  | Error e -> Alcotest.fail e
  | Ok outcome -> (
    match Scenario.figure2_steps outcome with
    | _ -> Alcotest.fail "an untraced run yielded figure-2 steps"
    | exception Invalid_argument _ -> ())

let test_no_cpu_after_boot () =
  (* The load-bearing claim: after bring-up, serving KVS traffic generates
     zero control-plane messages — devices coordinate via shared memory and
     doorbells only. *)
  match Scenario.run ~smoke_ops:0 () with
  | Error e -> Alcotest.fail e
  | Ok outcome ->
    let system = outcome.Scenario.system in
    let app = outcome.Scenario.app in
    let bus = System.bus system in
    let before = (Sysbus.counters bus).Sysbus.routed in
    let pending = ref 0 in
    for i = 1 to 10 do
      incr pending;
      Lastcpu_kv.Kv_app.local_op app
        (Lastcpu_kv.Kv_proto.Put (Printf.sprintf "k%d" i, "v"))
        (fun _ -> decr pending)
    done;
    System.run_until_quiescent system;
    Alcotest.(check int) "ops completed" 0 !pending;
    let after = (Sysbus.counters bus).Sysbus.routed in
    Alcotest.(check int) "zero bus messages on the data path" before after

let test_two_apps_two_pasids () =
  (* Two independent applications on the same NIC/SSD pair, different
     address spaces, different files. *)
  let system = System.build () in
  let fs = Smart_ssd.fs (System.ssd system 0) in
  (match Fs.mkdir fs ~user:"root" ~mode:0o777 "/a" with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Fs.error_to_string e));
  (match Fs.mkdir fs ~user:"root" ~mode:0o777 "/b" with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Fs.error_to_string e));
  (match System.boot system with Ok () -> () | Error e -> Alcotest.fail e);
  let dev = Smart_nic.device (System.nic system 0) in
  let mc = Memctl.id (System.memctl system) in
  let connect va path k =
    File_client.connect dev ~memctl:mc ~pasid:(System.fresh_pasid system)
      ~shm_va:va ~user:"apps" ~path_hint:path k
  in
  let fc_a = ref None and fc_b = ref None in
  connect 0x4000_0000L "/a/data" (fun r -> fc_a := Result.to_option r);
  connect 0x4800_0000L "/b/data" (fun r -> fc_b := Result.to_option r);
  System.run_until_quiescent system;
  match (!fc_a, !fc_b) with
  | Some a, Some b ->
    let wrote = ref 0 in
    File_client.create a "/a/data" (fun _ -> ());
    File_client.create b "/b/data" (fun _ -> ());
    System.run_until_quiescent system;
    File_client.write a "/a/data" ~off:0 "alpha" (fun r ->
        if r = Ok () then incr wrote);
    File_client.write b "/b/data" ~off:0 "beta" (fun r ->
        if r = Ok () then incr wrote);
    System.run_until_quiescent system;
    Alcotest.(check int) "both wrote" 2 !wrote;
    let ra = ref None and rb = ref None in
    File_client.read a "/a/data" ~off:0 ~len:5 (fun r -> ra := Result.to_option r);
    File_client.read b "/b/data" ~off:0 ~len:4 (fun r -> rb := Result.to_option r);
    System.run_until_quiescent system;
    Alcotest.(check (option string)) "a data" (Some "alpha") !ra;
    Alcotest.(check (option string)) "b data" (Some "beta") !rb
  | _ -> Alcotest.fail "connections failed"

let test_failure_notification_reaches_consumers () =
  match Scenario.run () with
  | Error e -> Alcotest.fail e
  | Ok outcome ->
    let system = outcome.Scenario.system in
    let bus = System.bus system in
    let nic_dev = Smart_nic.device (System.nic system 0) in
    let notified = ref false in
    Device.set_app_handler nic_dev (fun msg ->
        match msg.Message.payload with
        | Message.Device_failed { device }
          when device = Smart_ssd.id (System.ssd system 0) ->
          notified := true
        | _ -> ());
    Sysbus.fail_device bus (Smart_ssd.id (System.ssd system 0));
    System.run_until_quiescent system;
    Alcotest.(check bool) "nic notified of ssd failure" true !notified

let test_ssd_revive_and_reconnect () =
  match Scenario.run () with
  | Error e -> Alcotest.fail e
  | Ok outcome ->
    let system = outcome.Scenario.system in
    let bus = System.bus system in
    let ssd = System.ssd system 0 in
    Sysbus.fail_device bus (Smart_ssd.id ssd);
    System.run_until_quiescent system;
    Sysbus.revive_device bus (Smart_ssd.id ssd);
    Device.reannounce (Smart_ssd.device ssd);
    System.run_until_quiescent system;
    Alcotest.(check bool) "live again" true (Sysbus.is_live bus (Smart_ssd.id ssd));
    (* Reconnect and read back the pre-failure data. *)
    let nic_dev = Smart_nic.device (System.nic system 0) in
    let fc = ref None in
    File_client.connect nic_dev
      ~memctl:(Memctl.id (System.memctl system))
      ~pasid:(System.fresh_pasid system)
      ~shm_va:0x9000_0000L ~user:"kvs" ~path_hint:"/kv/data.log"
      (fun r -> fc := Result.to_option r);
    System.run_until_quiescent system;
    match !fc with
    | None -> Alcotest.fail "reconnect failed"
    | Some fc ->
      let size = ref None in
      File_client.stat fc "/kv/data.log" (fun r ->
          match r with Ok (s, _) -> size := Some s | Error _ -> ());
      System.run_until_quiescent system;
      (match !size with
      | Some s -> Alcotest.(check bool) "log survived" true (s > 0)
      | None -> Alcotest.fail "stat failed")

let test_multi_memctl_and_lanes () =
  let spec =
    { System.default_spec with memctl_count = 3; bus_lanes = 4; nic_count = 2 }
  in
  let system = System.build ~spec () in
  (match System.boot system with Ok () -> () | Error e -> Alcotest.fail e);
  Alcotest.(check int) "three controllers" 3 (List.length (System.memctls system));
  (* Allocations against different controllers land in disjoint physical
     ranges and both work. *)
  let dev = Smart_nic.device (System.nic system 0) in
  let mcs = System.memctls system in
  let oks = ref 0 in
  List.iteri
    (fun i mc ->
      let pasid = System.fresh_pasid system in
      Device.alloc dev ~memctl:(Memctl.id mc) ~pasid
        ~va:(Int64.add 0x4000_0000L (Int64.of_int (i * 0x100000)))
        ~bytes:4096L ~perm:Types.perm_rw
        (fun r -> if Result.is_ok r then incr oks))
    mcs;
  System.run_until_quiescent system;
  Alcotest.(check int) "all controllers allocate" 3 !oks;
  List.iter
    (fun mc -> Alcotest.(check int) "one page each" 1 (Memctl.used_pages mc))
    mcs

let test_fresh_pasids_unique () =
  let system = System.build () in
  let a = System.fresh_pasid system in
  let b = System.fresh_pasid system in
  let c = System.fresh_pasid system in
  Alcotest.(check bool) "all distinct" true
    (List.length (List.sort_uniq compare [ a; b; c ]) = 3)

let () =
  Alcotest.run "core"
    [
      ( "system",
        [
          Alcotest.test_case "build and boot" `Quick test_build_and_boot;
          Alcotest.test_case "boot timeout on dead device" `Quick
            test_boot_times_out_when_device_hangs;
          Alcotest.test_case "topology" `Quick test_topology_mentions_all_devices;
          Alcotest.test_case "multi memctl + lanes" `Quick test_multi_memctl_and_lanes;
          Alcotest.test_case "fresh pasids" `Quick test_fresh_pasids_unique;
        ] );
      ( "figure2",
        [
          Alcotest.test_case "seven steps in order" `Quick test_figure2_steps_in_order;
          Alcotest.test_case "deterministic" `Quick test_scenario_deterministic;
          Alcotest.test_case "with authentication" `Quick
            test_figure2_with_authentication;
          Alcotest.test_case "no CPU on the data path" `Quick test_no_cpu_after_boot;
          Alcotest.test_case "default run records no trace" `Quick
            test_default_run_untraced;
          Alcotest.test_case "untraced run raises" `Quick
            test_untraced_figure2_raises;
        ] );
      ( "multi-app",
        [ Alcotest.test_case "two apps two pasids" `Quick test_two_apps_two_pasids ] );
      ( "failure",
        [
          Alcotest.test_case "notification" `Quick
            test_failure_notification_reaches_consumers;
          Alcotest.test_case "revive and reconnect" `Quick test_ssd_revive_and_reconnect;
        ] );
    ]
