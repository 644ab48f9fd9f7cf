(* §4 Error Handling, end to end: a storage device dies mid-operation; the
   bus detects it and broadcasts Device_failed; the application re-runs the
   Figure-2 sequence against the revived device and recovers its state from
   the surviving write-ahead log.

   Run with:  dune exec examples/failure_recovery.exe *)

module Scenario = Lastcpu_core.Scenario_kvs
module System = Lastcpu_core.System
module Engine = Lastcpu_sim.Engine
module Sysbus = Lastcpu_bus.Sysbus
module Device = Lastcpu_device.Device
module Smart_nic = Lastcpu_devices.Smart_nic
module Smart_ssd = Lastcpu_devices.Smart_ssd
module Memctl = Lastcpu_devices.Memctl
module File_client = Lastcpu_devices.File_client
module Message = Lastcpu_proto.Message
module Store = Lastcpu_kv.Store
module Kv_app = Lastcpu_kv.Kv_app
module Kv_proto = Lastcpu_kv.Kv_proto

let () =
  print_endline "== failure_recovery: losing and reviving the smart SSD ==";
  match Scenario.run ~smoke_ops:0 () with
  | Error e ->
    prerr_endline ("bring-up failed: " ^ e);
    exit 1
  | Ok outcome ->
    let system = outcome.Scenario.system in
    let engine = System.engine system in
    let bus = System.bus system in
    let app = outcome.Scenario.app in
    let ssd = System.ssd system 0 in
    let nic_dev = Smart_nic.device (System.nic system 0) in
    (* Populate some state. *)
    let applied = ref 0 in
    for i = 1 to 25 do
      Kv_app.local_op app
        (Kv_proto.Put (Printf.sprintf "account-%02d" i, Printf.sprintf "$%d00" i))
        (fun reply -> if reply = Kv_proto.Done then incr applied)
    done;
    System.run_until_quiescent system;
    Printf.printf "populated %d records through the data plane\n" !applied;

    (* Watch for the failure broadcast at the NIC (the consumer). *)
    let detected_at = ref None in
    Device.set_app_handler nic_dev (fun msg ->
        match msg.Message.payload with
        | Message.Device_failed { device } when device = Smart_ssd.id ssd ->
          if !detected_at = None then detected_at := Some (Engine.now engine)
        | _ -> ());

    let t_fail = Engine.now engine in
    Printf.printf "\n[%Ld ns] injecting hard failure of ssd0\n" t_fail;
    Sysbus.fail_device bus (Smart_ssd.id ssd);
    System.run_until_quiescent system;
    (match !detected_at with
    | Some t ->
      Printf.printf "[%Ld ns] NIC received Device_failed broadcast (+%Ld ns)\n" t
        (Int64.sub t t_fail)
    | None -> print_endline "NIC never notified (BUG)");

    (* Operations now fail over the control plane (opens bounce) and the
       data plane falls silent (doorbells to a dead device are dropped). *)
    let bounce = ref None in
    File_client.connect nic_dev
      ~memctl:(Memctl.id (System.memctl system))
      ~pasid:(System.fresh_pasid system)
      ~shm_va:0xA000_0000L ~user:"kvs" ~path_hint:"/kv/data.log" (fun r ->
        bounce := Some r);
    System.run_until_quiescent system;
    (match !bounce with
    | Some (Error e) -> Printf.printf "reconnect while dead: refused (%s)\n" e
    | Some (Ok _) -> print_endline "reconnect while dead: accepted (BUG)"
    | None -> print_endline "reconnect while dead: no answer");

    (* Operator revives the device (reset); it re-announces itself. *)
    let t_revive = Engine.now engine in
    Printf.printf "\n[%Ld ns] operator resets ssd0; device re-announces\n" t_revive;
    Sysbus.revive_device bus (Smart_ssd.id ssd);
    Device.reannounce (Smart_ssd.device ssd);
    System.run_until_quiescent system;

    (* The application re-runs the Figure-2 sequence and replays the WAL. *)
    let recovered = ref None in
    File_client.connect nic_dev
      ~memctl:(Memctl.id (System.memctl system))
      ~pasid:(System.fresh_pasid system)
      ~shm_va:0xB000_0000L ~user:"kvs" ~path_hint:"/kv/data.log" (fun r ->
        match r with
        | Error e ->
          prerr_endline ("reconnect failed: " ^ e);
          exit 1
        | Ok fc ->
          Lastcpu_kv.File_backend.create fc ~path:"/kv/data.log" (fun r ->
              match r with
              | Error e ->
                prerr_endline ("backend: " ^ e);
                exit 1
              | Ok fb ->
                let store = Store.create (Lastcpu_kv.File_backend.backend fb) in
                Store.recover store (fun r ->
                    match r with
                    | Error e ->
                      prerr_endline ("recover: " ^ e);
                      exit 1
                    | Ok n -> recovered := Some (n, store))));
    System.run_until_quiescent system;
    (match !recovered with
    | None -> print_endline "recovery never completed (BUG)"
    | Some (n, store) ->
      let t_done = Engine.now engine in
      Printf.printf "[%Ld ns] recovery complete: %d WAL records replayed (+%Ld ns)\n"
        t_done n (Int64.sub t_done t_revive);
      Store.get store "account-13" (fun v ->
          Printf.printf "spot check account-13 = %s\n"
            (Option.value v ~default:"MISSING")));
    print_endline "\ndone: the failure model needed no CPU — detection by the";
    print_endline "bus, recovery by the consumer device itself (paper S4)."
