(* §4 System Maintenance: "Remote operation would be the best option ...
   The logs could be accessed remotely by another machine over the network
   through a remote access service. User authentication can be performed by
   an authentication service running on any device."

   This example builds exactly that: devices log to the console device; a
   tiny management gateway hosted on the smart NIC exposes a text protocol
   to the network; a remote operator machine authenticates (auth device),
   then pulls the logs (console device) — no CPU anywhere.

   Run with:  dune exec examples/remote_ops.exe *)

module System = Lastcpu_core.System
module Types = Lastcpu_proto.Types
module Message = Lastcpu_proto.Message
module Device = Lastcpu_device.Device
module Smart_nic = Lastcpu_devices.Smart_nic
module Console_dev = Lastcpu_devices.Console_dev
module Auth_dev = Lastcpu_devices.Auth_dev
module Netsim = Lastcpu_net.Netsim

(* The management gateway: a NIC-hosted app relaying a line-oriented
   protocol ("AUTH user pass" / "LOGS n") to the auth and console
   services. *)
let install_gateway nic ~auth_id ~console_id =
  let dev = Smart_nic.device nic in
  let sessions : (int, string) Hashtbl.t = Hashtbl.create 4 in
  Smart_nic.on_packet nic (fun ~src line ->
      let respond s = Smart_nic.send_packet nic ~dst:src s in
      match String.split_on_char ' ' line with
      | [ "AUTH"; user; pass ] ->
        Device.request dev ~dst:(Types.Device auth_id)
          (Message.Auth_request { user; credential = pass })
          (fun p ->
            match p with
            | Message.Auth_response { ok = true; _ } ->
              Hashtbl.replace sessions src user;
              respond ("OK welcome, " ^ user)
            | _ -> respond "ERR bad credentials")
      | "LOGS" :: n :: _ -> (
        match Hashtbl.find_opt sessions src with
        | None -> respond "ERR authenticate first"
        | Some _ ->
          Device.request dev ~dst:(Types.Device console_id)
            (Message.App_message { tag = "log-read"; body = n })
            (fun p ->
              match p with
              | Message.App_message { tag = "log-data"; body } ->
                respond ("OK\n" ^ body)
              | _ -> respond "ERR console unavailable"))
      | _ -> respond "ERR unknown command")

let () =
  print_endline "== remote_ops: data-center maintenance without a CPU ==";
  let spec =
    {
      System.default_spec with
      with_auth = true;
      with_console = true;
      users = [ ("operator", "hunter2") ];
    }
  in
  let system = System.build ~spec () in
  (match System.boot system with Ok () -> () | Error e -> failwith e);
  let nic = System.nic system 0 in
  let console = Option.get (System.console system) in
  let auth = Option.get (System.auth system) in
  install_gateway nic ~auth_id:(Auth_dev.id auth) ~console_id:(Console_dev.id console);

  (* Devices log operational events to the console over the bus. *)
  let log_from dev line =
    Device.send dev
      ~dst:(Types.Device (Console_dev.id console))
      (Message.App_message { tag = "log"; body = line })
  in
  let ssd_dev = Lastcpu_devices.Smart_ssd.device (System.ssd system 0) in
  let nic_dev = Smart_nic.device nic in
  log_from ssd_dev "ssd0: gc pass complete, wear skew 3";
  log_from ssd_dev "ssd0: 2 connections active";
  log_from nic_dev "nic0: kv service announced";
  log_from nic_dev "nic0: 812 ops served this interval";
  System.run_until_quiescent system;
  Printf.printf "console collected %d log lines from devices\n\n"
    (Console_dev.lines_received console);

  (* The remote operator machine. *)
  let net = System.net system in
  let operator = Netsim.endpoint net ~name:"operator-laptop" in
  let pending = Queue.create () in
  Netsim.set_receiver operator (fun ~src:_ reply ->
      let what = Queue.pop pending in
      Printf.printf "[operator] %-22s -> %s\n" what
        (String.concat "\n             " (String.split_on_char '\n' reply)));
  let send what line =
    Queue.push what pending;
    Netsim.send operator ~dst:(Smart_nic.endpoint_address nic) line
  in
  (* Unauthenticated access is refused; then login and read the logs. *)
  send "LOGS (no auth)" "LOGS 10";
  System.run_until_quiescent system;
  send "AUTH (wrong password)" "AUTH operator wrong";
  System.run_until_quiescent system;
  send "AUTH" "AUTH operator hunter2";
  System.run_until_quiescent system;
  send "LOGS 3" "LOGS 3";
  System.run_until_quiescent system;
  print_endline "\ndone: authentication by the auth device, logs from the";
  print_endline "console device, transport by the NIC — cooperation of";
  print_endline "self-managing devices, exactly as §4 sketches."
