(* Tests for temporal decoupling: the quantum-synchronized shard
   coordinator (Temporal), the persistent lane pool and run_jobs edge
   cases (Parallel), the cross-shard boundary plumbing in Sysbus and
   Shardlink, and the T15 determinism contract (fixed seed and quantum
   => results independent of the execution-lane count). *)

module Engine = Lastcpu_sim.Engine
module Temporal = Lastcpu_sim.Temporal
module Parallel = Lastcpu_sim.Parallel
module Types = Lastcpu_proto.Types
module Message = Lastcpu_proto.Message
module Iommu = Lastcpu_iommu.Iommu
module Sysbus = Lastcpu_bus.Sysbus
module Shardlink = Lastcpu_bus.Shardlink
module Experiments = Lastcpu_core.Experiments
module System = Lastcpu_core.System

(* --- Parallel.run_jobs edge cases -------------------------------------- *)

let test_run_jobs_rejects_bad_jobs () =
  Alcotest.check_raises "jobs = 0"
    (Invalid_argument "Parallel.run_jobs: jobs must be >= 1 (got 0)")
    (fun () -> ignore (Parallel.run_jobs ~jobs:0 [ (fun () -> ()) ]));
  Alcotest.check_raises "jobs = -3"
    (Invalid_argument "Parallel.run_jobs: jobs must be >= 1 (got -3)")
    (fun () -> ignore (Parallel.run_jobs ~jobs:(-3) [ (fun () -> ()) ]))

let test_run_jobs_more_jobs_than_tasks () =
  (* jobs > tasks must degrade to one domain per task, not spawn idle
     domains; results come back in submission order. *)
  let tasks = List.init 3 (fun i () -> i * 10) in
  Alcotest.(check (list int)) "order kept" [ 0; 10; 20 ]
    (Parallel.run_jobs ~jobs:8 tasks);
  Alcotest.(check (list int)) "empty task list" []
    (Parallel.run_jobs ~jobs:8 [])

let test_run_jobs_sequential_path () =
  (* jobs = 1 runs inline: tasks see each other's side effects in order. *)
  let log = ref [] in
  let tasks = List.init 4 (fun i () -> log := i :: !log; i) in
  Alcotest.(check (list int)) "results" [ 0; 1; 2; 3 ]
    (Parallel.run_jobs ~jobs:1 tasks);
  Alcotest.(check (list int)) "ran in order" [ 3; 2; 1; 0 ] !log

let test_run_jobs_propagates_earliest_exception () =
  Alcotest.check_raises "earliest index wins" (Failure "task-1") (fun () ->
      ignore
        (Parallel.run_jobs ~jobs:4
           [
             (fun () -> 0);
             (fun () -> failwith "task-1");
             (fun () -> failwith "task-2");
           ]))

(* --- Parallel.Pool ------------------------------------------------------ *)

let test_pool_basics () =
  Alcotest.check_raises "lanes = 0"
    (Invalid_argument "Parallel.Pool.create: lanes must be >= 1 (got 0)")
    (fun () -> ignore (Parallel.Pool.create ~lanes:0));
  let pool = Parallel.Pool.create ~lanes:2 in
  Alcotest.(check int) "lanes" 2 (Parallel.Pool.lanes pool);
  let hits = Array.make 8 0 in
  Parallel.Pool.run pool
    (Array.init 8 (fun i () -> hits.(i) <- hits.(i) + 1));
  Alcotest.(check (array int)) "every task ran once" (Array.make 8 1) hits;
  (* The pool is reusable across rounds. *)
  Parallel.Pool.run pool (Array.init 8 (fun i () -> hits.(i) <- hits.(i) + 1));
  Alcotest.(check (array int)) "second round" (Array.make 8 2) hits;
  Parallel.Pool.shutdown pool;
  Parallel.Pool.shutdown pool (* idempotent *);
  Alcotest.check_raises "run after shutdown"
    (Invalid_argument "Parallel.Pool.run: pool is shut down") (fun () ->
      Parallel.Pool.run pool [| (fun () -> ()) |])

(* --- Temporal: construction and quantum geometry ------------------------ *)

let test_temporal_validation () =
  Alcotest.check_raises "no shards"
    (Invalid_argument "Temporal.create: need at least one shard") (fun () ->
      ignore (Temporal.create ~lookahead:10L [||]));
  Alcotest.check_raises "lookahead < 1"
    (Invalid_argument "Temporal.create: lookahead must be >= 1ns")
    (fun () -> ignore (Temporal.create ~lookahead:0L [| Engine.create () |]));
  Alcotest.check_raises "quantum > lookahead"
    (Invalid_argument
       "Temporal.create: quantum must be in [0, lookahead=10] (got 11)")
    (fun () ->
      ignore (Temporal.create ~quantum:11L ~lookahead:10L [| Engine.create () |]))

(* A message posted mid-quantum is invisible to the destination until the
   window closes, then becomes a pending event at exactly send + lookahead
   and fires in the following window. *)
let test_mid_quantum_message_at_next_boundary () =
  let e0 = Engine.create () and e1 = Engine.create () in
  let tm = Temporal.create ~quantum:100L ~lookahead:100L [| e0; e1 |] in
  let fired = ref (-1L) in
  Engine.schedule e0 ~delay:10L (fun () ->
      Temporal.post tm ~src:0 ~dst:1 (fun () -> fired := Engine.now e1));
  (* Window 1 (target = edge 100): the post happens at t=10 but shard 1
     must observe nothing inside the window... *)
  Alcotest.(check bool) "window 1 ran" true (Temporal.run_window tm);
  Alcotest.(check int64) "not fired inside the window" (-1L) !fired;
  (* ...and after the rendezvous the arrival sits queued at 10 + 100. *)
  Alcotest.(check (option int64)) "queued at send + lookahead" (Some 110L)
    (Engine.next_event_time e1);
  Alcotest.(check bool) "window 2 ran" true (Temporal.run_window tm);
  Alcotest.(check int64) "fired at its natural timestamp" 110L !fired;
  Alcotest.(check bool) "drained" false (Temporal.run_window tm);
  Alcotest.(check int) "one boundary event" 1 (Temporal.boundary_events tm)

(* Ping-pong across two shards, once through the coordinator and once as a
   plain single-engine schedule with the same latency: the (who, when,
   round) traces must match exactly — with quantum = 0 (lock-step) and
   with the full quantum alike. *)
let pingpong_temporal ~quantum rounds =
  let e0 = Engine.create () and e1 = Engine.create () in
  let tm = Temporal.create ~quantum ~lookahead:100L [| e0; e1 |] in
  let tr = ref [] in
  let rec ping i () =
    tr := (0, Engine.now e0, i) :: !tr;
    if i < rounds then Temporal.post tm ~src:0 ~dst:1 (pong (i + 1))
  and pong i () =
    tr := (1, Engine.now e1, i) :: !tr;
    if i < rounds then Temporal.post tm ~src:1 ~dst:0 (ping (i + 1))
  in
  Engine.schedule e0 ~delay:7L (ping 0);
  Temporal.run_until_quiescent tm;
  List.rev !tr

let pingpong_sequential rounds =
  let e = Engine.create () in
  let tr = ref [] in
  let rec ping i () =
    tr := (0, Engine.now e, i) :: !tr;
    if i < rounds then Engine.schedule e ~delay:100L (pong (i + 1))
  and pong i () =
    tr := (1, Engine.now e, i) :: !tr;
    if i < rounds then Engine.schedule e ~delay:100L (ping (i + 1))
  in
  Engine.schedule e ~delay:7L (ping 0);
  Engine.run e;
  List.rev !tr

let trace = Alcotest.(list (triple int int64 int))

let test_lockstep_matches_sequential () =
  let reference = pingpong_sequential 9 in
  Alcotest.check trace "quantum = 0 (lock-step)" reference
    (pingpong_temporal ~quantum:0L 9);
  Alcotest.check trace "quantum = lookahead" reference
    (pingpong_temporal ~quantum:100L 9)

(* All boundary events sharing (destination, arrival time) are delivered
   as one scheduled closure in (source shard, sequence) order, so the
   destination heap's tie-break — even the sanitizer's perturbations —
   cannot reorder them. *)
let boundary_order ~tie =
  let e0 = Engine.create () and e1 = Engine.create () in
  let e2 = Engine.create ~tie () in
  let tm = Temporal.create ~lookahead:50L [| e0; e1; e2 |] in
  let order = ref [] in
  let arrive tag () = order := tag :: !order in
  (* Posts at t = 10 from two different shards => same arrival t = 60 on
     shard 2, flushed at edge 50; a local event already queued for exactly
     t = 60 supplies a genuine same-tick heap collision, so the tie-break
     really gets to choose an order — it may put "local" anywhere, but it
     must not crack open the boundary group. *)
  Engine.schedule_at e2 ~time:60L (arrive "local");
  Engine.schedule_at e0 ~time:10L (fun () ->
      Temporal.post tm ~src:0 ~dst:2 (arrive "shard0-first");
      Temporal.post tm ~src:0 ~dst:2 (arrive "shard0-second"));
  Engine.schedule_at e1 ~time:10L (fun () ->
      Temporal.post tm ~src:1 ~dst:2 (arrive "shard1"));
  Temporal.run_until_quiescent tm;
  List.rev !order

let test_tie_break_cannot_reorder_boundary_delivery () =
  List.iter
    (fun tie ->
      let order = boundary_order ~tie in
      Alcotest.(check (list string))
        "boundary subsequence is (src, seq)-ordered"
        [ "shard0-first"; "shard0-second"; "shard1" ]
        (List.filter (fun t -> t <> "local") order);
      Alcotest.(check int) "all four delivered" 4 (List.length order))
    [ Engine.Fifo; Engine.Lifo; Engine.Salted 0xBADC0FFEEL ]

(* --- Sysbus + Shardlink round trip -------------------------------------- *)

(* Device [a] on shard 0 linked to device [b] on shard 1; each handler
   logs what it receives, newest first. *)
type link_rig = {
  tm : Temporal.t;
  bus0 : Sysbus.t;
  bus1 : Sysbus.t;
  a : Types.device_id;
  b : Types.device_id;
  pa : Types.device_id;  (* port on bus0 standing for b *)
  pb : Types.device_id;  (* port on bus1 standing for a *)
  got_a : Message.t list ref;
  got_b : Message.t list ref;
}

let link_rig ?(config0 = Sysbus.default_config) () =
  let e0 = Engine.create () and e1 = Engine.create () in
  let bus0 = Sysbus.create ~config:config0 ~shard:0 e0
  and bus1 = Sysbus.create ~shard:1 e1 in
  let got_a = ref [] and got_b = ref [] in
  let b =
    Sysbus.attach bus1 ~name:"b" ~iommu:(Iommu.create ())
      ~handler:(fun msg -> got_b := msg :: !got_b)
  in
  let a =
    Sysbus.attach bus0 ~name:"a" ~iommu:(Iommu.create ())
      ~handler:(fun msg -> got_a := msg :: !got_a)
  in
  List.iter
    (fun (bus, id) ->
      Sysbus.send bus
        (Message.make ~src:id ~dst:Types.Bus ~corr:0
           (Message.Device_alive { services = [] }));
      Engine.run_until_quiescent (Sysbus.engine bus))
    [ (bus0, a); (bus1, b) ];
  let tm = Temporal.create ~lookahead:1000L [| e0; e1 |] in
  let sl = Shardlink.create tm [| bus0; bus1 |] in
  let pa, pb = Shardlink.link sl ~a:(0, a) ~b:(1, b) in
  { tm; bus0; bus1; a; b; pa; pb; got_a; got_b }

let test_shardlink_round_trip () =
  let r = link_rig () in
  (* a -> port-on-a crosses to b, src rewritten to port-on-b... *)
  Sysbus.send r.bus0
    (Message.make ~src:r.a ~dst:(Types.Device r.pa) ~corr:77
       (Message.App_message { tag = "ping"; body = "x" }));
  Temporal.run_until_quiescent r.tm;
  (match !(r.got_b) with
  | [ msg ] ->
    Alcotest.(check int) "src is the b-side port" r.pb msg.Message.src;
    Alcotest.(check int) "corr preserved" 77 msg.Message.corr
  | _ -> Alcotest.fail "ping never crossed");
  Alcotest.(check int) "bus0 counted the crossing" 1
    (Sysbus.boundary_out r.bus0);
  (* ...and the reply path works symmetrically. *)
  Sysbus.send r.bus1
    (Message.make ~src:r.b ~dst:(Types.Device r.pb) ~corr:77
       (Message.App_message { tag = "pong"; body = "y" }));
  Temporal.run_until_quiescent r.tm;
  match !(r.got_a) with
  | [ msg ] ->
    Alcotest.(check int) "src is the a-side port" r.pa msg.Message.src;
    Alcotest.(check int) "corr preserved" 77 msg.Message.corr
  | _ -> Alcotest.fail "pong never crossed back"

(* A frame over the link to a dead device: the far bus bounces an error to
   its port, and the bus's reply to a port crosses back like any frame. *)
let test_shardlink_bounce_crosses_back () =
  let r = link_rig () in
  Sysbus.fail_device r.bus1 r.b;
  Sysbus.send r.bus0
    (Message.make ~src:r.a ~dst:(Types.Device r.pa) ~corr:5
       (Message.App_message { tag = "ping"; body = "x" }));
  Temporal.run_until_quiescent r.tm;
  Alcotest.(check int) "b received nothing" 0 (List.length !(r.got_b));
  Alcotest.(check int) "bus1 sent the bounce through its port" 1
    (Sysbus.boundary_out r.bus1);
  match !(r.got_a) with
  | [ { Message.src; corr; payload = Message.Error_msg { code; _ }; _ } ] ->
    Alcotest.(check int) "from the a-side port" r.pa src;
    Alcotest.(check int) "corr preserved" 5 corr;
    Alcotest.(check bool) "E_device_failed" true (code = Types.E_device_failed)
  | _ -> Alcotest.fail "expected one Error_msg back at a"

(* Broadcasts and the heartbeat sweep stay on their shard: neither reaches
   a port, so nothing crosses and the port stays live. *)
let test_shardlink_port_skipped_locally () =
  let r =
    link_rig
      ~config0:{ Sysbus.default_config with heartbeat_timeout_ns = 500L }
      ()
  in
  Sysbus.send r.bus0
    (Message.make ~src:r.a ~dst:Types.Broadcast ~corr:9
       (Message.Discover_request { kind = Types.Memory_service; query = "" }));
  Temporal.run_until_quiescent r.tm;
  Alcotest.(check bool) "the sweep ran: silent a timed out" false
    (Sysbus.is_live r.bus0 r.a);
  Alcotest.(check bool) "port still live" true (Sysbus.is_live r.bus0 r.pa);
  Alcotest.(check int) "nothing crossed" 0 (Sysbus.boundary_out r.bus0);
  Alcotest.(check int) "b received nothing" 0 (List.length !(r.got_b))

(* --- T15: the determinism contract end to end --------------------------- *)

(* The full soak, once per lane count: digests, event counts and sanitizer
   journals must be bit-identical — lanes are an execution detail. *)
let test_t15_lane_invariance () =
  let r1 = Experiments.t15_soak ~shards:1 ~seed:42L () in
  let r4 = Experiments.t15_soak ~shards:4 ~seed:42L () in
  Alcotest.(check int64) "digest" r1.Experiments.t15_digest
    r4.Experiments.t15_digest;
  Alcotest.(check int) "events executed" r1.Experiments.t15_events
    r4.Experiments.t15_events;
  Alcotest.(check int) "boundary messages" r1.Experiments.t15_boundary
    r4.Experiments.t15_boundary;
  Alcotest.(check int) "windows" r1.Experiments.t15_windows
    r4.Experiments.t15_windows;
  Alcotest.(check int64) "virtual elapsed" r1.Experiments.t15_elapsed
    r4.Experiments.t15_elapsed

let test_t15_sanitizer_journal_lane_invariance () =
  let journal shards =
    let r = Experiments.t15_soak ~shards ~sanitize:true ~seed:42L () in
    Array.to_list r.Experiments.t15_systems
    |> List.concat_map (fun sys -> Engine.sanitizer_journal (System.engine sys))
  in
  let j1 = journal 1 and j4 = journal 4 in
  Alcotest.(check int) "journal length" (List.length j1) (List.length j4);
  Alcotest.(check bool) "journals identical (ticks, labels, hashes)" true
    (j1 = j4)

(* The sanitize entry point itself: t15's check is digest tie-invariance
   plus per-tie lane invariance (not the FIFO-vs-perturbed journal diff,
   which t15's drift-dissolvable coincidental collisions would trip). Both
   perturbations must come back clean. *)
let test_t15_sanitize_reports_clean () =
  let reports = Experiments.sanitize ~exp:"t15" () in
  Alcotest.(check int) "two perturbations" 2 (List.length reports);
  List.iter
    (fun (r : Experiments.sanitize_report) ->
      Alcotest.(check bool)
        (Printf.sprintf "no race vs %s" r.Experiments.san_perturbation)
        true
        (r.Experiments.san_divergence = None);
      Alcotest.(check bool)
        (Printf.sprintf "journalled ticks vs %s" r.Experiments.san_perturbation)
        true
        (r.Experiments.san_multi_event_ticks > 0))
    reports

let () =
  Alcotest.run "temporal"
    [
      ( "parallel",
        [
          Alcotest.test_case "run_jobs rejects jobs <= 0" `Quick
            test_run_jobs_rejects_bad_jobs;
          Alcotest.test_case "run_jobs jobs > tasks" `Quick
            test_run_jobs_more_jobs_than_tasks;
          Alcotest.test_case "run_jobs sequential path" `Quick
            test_run_jobs_sequential_path;
          Alcotest.test_case "run_jobs earliest exception" `Quick
            test_run_jobs_propagates_earliest_exception;
          Alcotest.test_case "pool basics" `Quick test_pool_basics;
        ] );
      ( "quantum",
        [
          Alcotest.test_case "create validation" `Quick
            test_temporal_validation;
          Alcotest.test_case "mid-quantum message waits for the edge" `Quick
            test_mid_quantum_message_at_next_boundary;
          Alcotest.test_case "lock-step matches sequential" `Quick
            test_lockstep_matches_sequential;
          Alcotest.test_case "tie-break cannot reorder boundary delivery"
            `Quick test_tie_break_cannot_reorder_boundary_delivery;
        ] );
      ( "boundary",
        [
          Alcotest.test_case "shardlink round trip" `Quick
            test_shardlink_round_trip;
          Alcotest.test_case "shardlink bounce crosses back" `Quick
            test_shardlink_bounce_crosses_back;
          Alcotest.test_case "shardlink port skipped by broadcast and sweep"
            `Quick test_shardlink_port_skipped_locally;
        ] );
      ( "t15",
        [
          Alcotest.test_case "lane invariance" `Quick test_t15_lane_invariance;
          Alcotest.test_case "sanitizer journal lane invariance" `Quick
            test_t15_sanitizer_journal_lane_invariance;
          Alcotest.test_case "sanitize reports clean" `Quick
            test_t15_sanitize_reports_clean;
        ] );
    ]
