(* The Workload client on a small booted KVS machine, one case per arrival
   x retry combination the experiments use: closed loop without retries
   (T2, T7, T15-T17), closed loop with doubling timeout resends (T13), and
   open loop with fixed-interval resends that stop at a busy reply (T14). *)

module Engine = Lastcpu_sim.Engine
module System = Lastcpu_core.System
module Scenario_kvs = Lastcpu_core.Scenario_kvs
module Workload = Lastcpu_core.Workload
module Kv_proto = Lastcpu_kv.Kv_proto
module Smart_nic = Lastcpu_devices.Smart_nic

let machine () =
  match Scenario_kvs.run ~smoke_ops:0 () with
  | Ok outcome -> outcome.Scenario_kvs.system
  | Error e -> Alcotest.fail e

let nic_submit system =
  Workload.netsim (System.net system)
    ~app_addr:(Smart_nic.endpoint_address (System.nic system 0))

(* Log every attempt as (corr, virtual time), then let [deliver] decide
   what happens to it. *)
let logging engine log deliver ~corr op k =
  log := (corr, Engine.now engine) :: !log;
  deliver ~corr op k

let attempts_of log corr =
  List.rev (List.filter_map (fun (c, t) -> if c = corr then Some t else None) !log)

let kv_op i =
  let key = Printf.sprintf "k%02d" (i mod 4) in
  if i land 1 = 0 then Kv_proto.Put (key, string_of_int i) else Kv_proto.Get key

let test_closed_loop_answers_each_op_once () =
  let system = machine () in
  let engine = System.engine system in
  let ops = 12 in
  let settled = Array.make ops 0 in
  let log = ref [] in
  let done_calls = ref 0 in
  let tally =
    Workload.run engine
      ~submit:(logging engine log (nic_submit system))
      ~arrival:(Workload.Closed { ops; think_ns = 10_000L })
      ~retry:Workload.No_retry ~make_op:kv_op
      ~on_settle:(fun i -> function
        | Workload.Answered ns ->
          Alcotest.(check bool) "positive latency" true (ns > 0L);
          settled.(i) <- settled.(i) + 1
        | Workload.Rejected | Workload.Gave_up -> Alcotest.fail "not answered")
      ~on_done:(fun () -> incr done_calls)
      ()
  in
  System.run_until_idle system;
  Alcotest.(check (array int)) "each op answered once" (Array.make ops 1) settled;
  Alcotest.(check int) "on_done once" 1 !done_calls;
  let t = tally () in
  Alcotest.(check (list int)) "tally sent/answered/resends" [ ops; ops; 0 ]
    [ t.Workload.sent; t.Workload.answered; t.Workload.resends ];
  Alcotest.(check (list int)) "one attempt per op, in corr order"
    (List.init ops Fun.id)
    (List.rev_map fst !log)

let test_doubling_resend_reuses_corr () =
  let system = machine () in
  let engine = System.engine system in
  let log = ref [] in
  let real = nic_submit system in
  (* Op 0's first two attempts are lost; op 1 is never delivered. *)
  let deliver ~corr op k =
    if corr = 0 && List.length (attempts_of log 0) = 3 then real ~corr op k
  in
  let outcomes = Array.make 2 None in
  let timeout_ns = 1_000_000L in
  let tally =
    Workload.run engine
      ~submit:(logging engine log deliver)
      ~arrival:(Workload.Closed { ops = 2; think_ns = 0L })
      ~retry:(Workload.Doubling { timeout_ns; retries = 2 })
      ~make_op:kv_op
      ~on_settle:(fun i o -> outcomes.(i) <- Some o)
      ()
  in
  System.run_until_idle system;
  let gaps times =
    List.map2 Int64.sub (List.tl times) (List.rev (List.tl (List.rev times)))
  in
  Alcotest.(check (list int64)) "op 0 waits double"
    [ timeout_ns; Int64.mul 2L timeout_ns ]
    (gaps (attempts_of log 0));
  Alcotest.(check (list int64)) "op 1 waits double"
    [ timeout_ns; Int64.mul 2L timeout_ns ]
    (gaps (attempts_of log 1));
  (match outcomes.(0) with
  | Some (Workload.Answered ns) ->
    Alcotest.(check bool) "latency spans both resends" true
      (ns >= Int64.mul 3L timeout_ns)
  | _ -> Alcotest.fail "op 0 not answered");
  Alcotest.(check bool) "op 1 gave up" true (outcomes.(1) = Some Workload.Gave_up);
  let t = tally () in
  Alcotest.(check (list int)) "tally sent/answered/resends" [ 2; 1; 4 ]
    [ t.Workload.sent; t.Workload.answered; t.Workload.resends ]

let test_fixed_resend_stops_at_busy () =
  let system = machine () in
  let engine = System.engine system in
  let log = ref [] in
  let real = nic_submit system in
  (* Op 0: the first attempt is lost, the resend is refused busy. Op 1 goes
     through to the store. *)
  let deliver ~corr op k =
    if corr = 1 then real ~corr op k
    else if List.length (attempts_of log 0) = 2 then
      Engine.schedule engine ~delay:5_000L (fun () -> k (Kv_proto.Failed "busy"))
  in
  let outcomes = Array.make 2 None in
  let interval_ns = 200_000L in
  let start_ns = Engine.now engine in
  let tally =
    Workload.run engine
      ~submit:(logging engine log deliver)
      ~arrival:(Workload.Open { start_ns; offsets = [ 0L; 50_000L ] })
      ~retry:(Workload.Fixed { interval_ns; retries = 4 })
      ~make_op:kv_op
      ~on_settle:(fun i o -> outcomes.(i) <- Some o)
      ()
  in
  System.run_until_idle system;
  Alcotest.(check (list int64)) "op 0: one resend, one interval later, then none"
    [ start_ns; Int64.add start_ns interval_ns ]
    (attempts_of log 0);
  Alcotest.(check (list int64)) "op 1 sent at its offset"
    [ Int64.add start_ns 50_000L ]
    (attempts_of log 1);
  Alcotest.(check bool) "op 0 rejected" true (outcomes.(0) = Some Workload.Rejected);
  (match outcomes.(1) with
  | Some (Workload.Answered _) -> ()
  | _ -> Alcotest.fail "op 1 not answered");
  let t = tally () in
  Alcotest.(check (list int)) "tally sent/answered/resends" [ 2; 1; 1 ]
    [ t.Workload.sent; t.Workload.answered; t.Workload.resends ]

let () =
  Alcotest.run "workload"
    [
      ( "client",
        [
          Alcotest.test_case "closed loop answers each op once" `Quick
            test_closed_loop_answers_each_op_once;
          Alcotest.test_case "doubling resend reuses corr" `Quick
            test_doubling_resend_reuses_corr;
          Alcotest.test_case "fixed resend stops at busy" `Quick
            test_fixed_resend_stops_at_busy;
        ] );
    ]
