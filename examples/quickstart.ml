(* Quickstart: build a CPU-less system, boot it, run the paper's Figure-2
   initialization sequence, and do a few key-value operations.

   Run with:  dune exec examples/quickstart.exe *)

module Scenario = Lastcpu_core.Scenario_kvs
module System = Lastcpu_core.System
module Kv_app = Lastcpu_kv.Kv_app
module Kv_proto = Lastcpu_kv.Kv_proto

let () =
  print_endline "== The Last CPU: quickstart ==";
  print_endline "";
  (* Scenario_kvs.run builds the system of Figure 1, boots every device
     (self-test + Device_alive), provisions /kv on the smart SSD, and
     launches the KVS application on the smart NIC. The application runs
     the seven-step Figure-2 sequence against the SSD, the memory
     controller and the bus. *)
  match Scenario.run ~spec:{ System.default_spec with trace = true } () with
  | Error e ->
    prerr_endline ("bring-up failed: " ^ e);
    exit 1
  | Ok outcome ->
    let system = outcome.Scenario.system in
    Printf.printf "system is live at %Ld virtual ns; topology:\n\n"
      outcome.Scenario.boot_ns;
    print_string (System.topology system);
    print_endline "\nFigure-2 initialization sequence as observed on the bus:";
    Format.printf "%a" Scenario.pp_steps (Scenario.figure2_steps outcome);
    (* A few operations through the full data plane: NIC-hosted store,
       write-ahead log on the SSD, no CPU anywhere. *)
    print_endline "\nKV operations (NIC-hosted store, SSD-backed WAL):";
    let app = outcome.Scenario.app in
    let show key reply =
      Format.printf "  %-28s -> %s@." key reply
    in
    Kv_app.local_op app (Kv_proto.Put ("greeting", "hello, decentralized world"))
      (fun reply ->
        show "put greeting"
          (match reply with Kv_proto.Done -> "ok" | _ -> "FAILED"));
    System.run_until_quiescent system;
    Kv_app.local_op app (Kv_proto.Get "greeting") (fun reply ->
        show "get greeting"
          (match reply with
          | Kv_proto.Value (Some v) -> v
          | _ -> "FAILED"));
    System.run_until_quiescent system;
    Kv_app.local_op app (Kv_proto.Del "greeting") (fun reply ->
        show "del greeting"
          (match reply with Kv_proto.Deleted true -> "deleted" | _ -> "FAILED"));
    System.run_until_quiescent system;
    Printf.printf "\nvirtual time elapsed: %Ld ns; done.\n"
      (Lastcpu_sim.Engine.now (System.engine system))
