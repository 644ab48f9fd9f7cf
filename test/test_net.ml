(* Tests for the simulated network. *)

module Engine = Lastcpu_sim.Engine
module Costs = Lastcpu_sim.Costs
module Netsim = Lastcpu_net.Netsim

let test_delivery () =
  let e = Engine.create () in
  let net = Netsim.create e in
  let a = Netsim.endpoint net ~name:"a" in
  let b = Netsim.endpoint net ~name:"b" in
  let got = ref [] in
  Netsim.set_receiver b (fun ~src frame -> got := (src, frame) :: !got);
  Netsim.send a ~dst:(Netsim.address b) "hello";
  Engine.run e;
  Alcotest.(check (list (pair int string))) "delivered"
    [ (Netsim.address a, "hello") ]
    !got;
  Alcotest.(check int) "counter" 1 (Netsim.frames_delivered net)

let test_latency_model () =
  let e = Engine.create () in
  let net = Netsim.create e in
  let a = Netsim.endpoint net ~name:"a" in
  let b = Netsim.endpoint net ~name:"b" in
  let arrival = ref 0L in
  Netsim.set_receiver b (fun ~src:_ _ -> arrival := Engine.now e);
  Netsim.send a ~dst:(Netsim.address b) (String.make 100 'x');
  Engine.run e;
  let expect =
    Int64.add Costs.net_link_ns (Int64.mul Costs.net_byte_ns 100L)
  in
  Alcotest.(check int64) "latency = link + bytes" expect !arrival

let test_in_order_per_pair () =
  let e = Engine.create () in
  let net = Netsim.create e in
  let a = Netsim.endpoint net ~name:"a" in
  let b = Netsim.endpoint net ~name:"b" in
  let got = ref [] in
  Netsim.set_receiver b (fun ~src:_ frame -> got := frame :: !got);
  (* Equal-size frames sent back to back arrive in order. *)
  List.iter (fun i -> Netsim.send a ~dst:(Netsim.address b) (string_of_int i)) [ 1; 2; 3 ];
  Engine.run e;
  Alcotest.(check (list string)) "order" [ "1"; "2"; "3" ] (List.rev !got)

let test_drop_no_receiver () =
  let e = Engine.create () in
  let net = Netsim.create e in
  let a = Netsim.endpoint net ~name:"a" in
  let _b = Netsim.endpoint net ~name:"b" in
  Netsim.send a ~dst:1 "void";
  Netsim.send a ~dst:99 "nowhere";
  Engine.run e;
  Alcotest.(check int) "both dropped" 2 (Netsim.frames_dropped net)

let test_egress_contention () =
  (* Two large frames sent back to back from one endpoint serialise through
     its egress port: the second arrives one full serialisation later. *)
  let e = Engine.create () in
  let net = Netsim.create e in
  let a = Netsim.endpoint net ~name:"a" in
  let b = Netsim.endpoint net ~name:"b" in
  let arrivals = ref [] in
  Netsim.set_receiver b (fun ~src:_ _ -> arrivals := Engine.now e :: !arrivals);
  let frame = String.make 1000 'x' in
  Netsim.send a ~dst:(Netsim.address b) frame;
  Netsim.send a ~dst:(Netsim.address b) frame;
  Engine.run e;
  match List.rev !arrivals with
  | [ t1; t2 ] ->
    let ser = Int64.mul Costs.net_byte_ns 1000L in
    Alcotest.(check int64) "first = ser + link"
      (Int64.add ser Costs.net_link_ns)
      t1;
    Alcotest.(check int64) "second queues behind first" (Int64.add t1 ser) t2
  | l -> Alcotest.fail (Printf.sprintf "expected 2 arrivals, got %d" (List.length l))

let test_duplicate_name_rejected () =
  let e = Engine.create () in
  let net = Netsim.create e in
  let _ = Netsim.endpoint net ~name:"dup" in
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Netsim.endpoint: duplicate name \"dup\"") (fun () ->
      ignore (Netsim.endpoint net ~name:"dup"))

let () =
  Alcotest.run "net"
    [
      ( "netsim",
        [
          Alcotest.test_case "delivery" `Quick test_delivery;
          Alcotest.test_case "latency model" `Quick test_latency_model;
          Alcotest.test_case "in order" `Quick test_in_order_per_pair;
          Alcotest.test_case "drops" `Quick test_drop_no_receiver;
          Alcotest.test_case "egress contention" `Quick test_egress_contention;
          Alcotest.test_case "duplicate names" `Quick test_duplicate_name_rejected;
        ] );
    ]
