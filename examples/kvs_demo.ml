(* The paper's §3 scenario at full scale: remote clients on the simulated
   network issue a Zipfian get/put mix against the KVS hosted on the smart
   NIC, whose write-ahead log lives on the smart SSD. After bring-up the
   data path involves no bus messages at all — the test at the end proves
   it by comparing bus counters.

   Run with:  dune exec examples/kvs_demo.exe *)

module Scenario = Lastcpu_core.Scenario_kvs
module System = Lastcpu_core.System
module Engine = Lastcpu_sim.Engine
module Stats = Lastcpu_sim.Stats
module Rng = Lastcpu_sim.Rng
module Netsim = Lastcpu_net.Netsim
module Sysbus = Lastcpu_bus.Sysbus
module Smart_nic = Lastcpu_devices.Smart_nic
module Smart_ssd = Lastcpu_devices.Smart_ssd
module Kv_proto = Lastcpu_kv.Kv_proto
module Kv_app = Lastcpu_kv.Kv_app
module Ftl = Lastcpu_flash.Ftl

let clients = 4
let ops_per_client = 200
let keys = 512

let () =
  print_endline "== kvs_demo: remote clients vs the CPU-less KVS ==";
  match Scenario.run () with
  | Error e ->
    prerr_endline ("bring-up failed: " ^ e);
    exit 1
  | Ok outcome ->
    let system = outcome.Scenario.system in
    let engine = System.engine system in
    let app = outcome.Scenario.app in
    let net = System.net system in
    let nic_addr = Smart_nic.endpoint_address (System.nic system 0) in
    (* Preload the working set directly on the store. *)
    let value = String.make 100 'v' in
    let loaded = ref 0 in
    for i = 0 to keys - 1 do
      Lastcpu_kv.Store.put (Kv_app.store app)
        ~key:(Printf.sprintf "key-%06d" i)
        ~value (fun _ -> incr loaded)
    done;
    System.run_until_quiescent system;
    Printf.printf "preloaded %d keys (WAL on ssd0)\n" !loaded;
    let bus_before = (Sysbus.counters (System.bus system)).Sysbus.routed in
    (* Closed-loop clients, 90% gets / 10% puts, Zipf-skewed keys. *)
    let h = Stats.Histogram.create () and s = Stats.Summary.create () in
    let finished = ref 0 in
    let t0 = Engine.now engine in
    for c = 1 to clients do
      let rng = Rng.create ~seed:(Int64.of_int (77 + c)) in
      let ep = Netsim.endpoint net ~name:(Printf.sprintf "client%d" c) in
      let outstanding = Hashtbl.create 4 in
      let sent = ref 0 in
      let send_next () =
        if !sent < ops_per_client then begin
          let corr = !sent in
          incr sent;
          let key = Printf.sprintf "key-%06d" (Rng.zipf rng ~n:keys ~theta:0.99) in
          let op =
            if Rng.int rng 10 = 0 then Kv_proto.Put (key, value)
            else Kv_proto.Get key
          in
          Hashtbl.replace outstanding corr (Engine.now engine);
          Netsim.send ep ~dst:nic_addr
            (Kv_proto.encode_request { Kv_proto.corr; op })
        end
      in
      Netsim.set_receiver ep (fun ~src:_ frame ->
          match Kv_proto.decode_response frame with
          | Error _ -> ()
          | Ok { Kv_proto.corr; _ } -> (
            match Hashtbl.find_opt outstanding corr with
            | None -> ()
            | Some t_send ->
              Hashtbl.remove outstanding corr;
              let dt = Int64.to_float (Int64.sub (Engine.now engine) t_send) in
              Stats.Histogram.add h dt;
              Stats.Summary.add s dt;
              if !sent = ops_per_client && Hashtbl.length outstanding = 0 then
                incr finished
              else send_next ()));
      send_next ()
    done;
    System.run_until_quiescent system;
    let elapsed = Int64.to_float (Int64.sub (Engine.now engine) t0) in
    let total_ops = clients * ops_per_client in
    let report = Stats.latency_report h s in
    Printf.printf "clients finished: %d/%d\n" !finished clients;
    Printf.printf "throughput: %.0f ops/s (virtual)\n"
      (float_of_int total_ops /. (elapsed *. 1e-9));
    Format.printf "latency: %a@." Stats.pp_latency_report report;
    (* The paper's punchline: the data path used zero control messages. *)
    let bus_after = (Sysbus.counters (System.bus system)).Sysbus.routed in
    Printf.printf "bus control messages during the workload: %d\n"
      (bus_after - bus_before);
    let ftl = Smart_ssd.ftl (System.ssd system 0) in
    Printf.printf "SSD: %d host writes amplified %.2fx, %d GC runs\n"
      (Lastcpu_kv.Store.puts (Kv_app.store app))
      (Ftl.write_amplification ftl) (Ftl.gc_runs ftl);
    Printf.printf "ops served by NIC app: %d\n" (Kv_app.ops_served app)
