module Engine = Lastcpu_sim.Engine
module Trace = Lastcpu_sim.Trace
module Fs = Lastcpu_fs.Fs
module Smart_ssd = Lastcpu_devices.Smart_ssd
module Memctl = Lastcpu_devices.Memctl
module Kv_app = Lastcpu_kv.Kv_app
module Kv_proto = Lastcpu_kv.Kv_proto

type outcome = { system : System.t; app : Kv_app.t; boot_ns : int64 }

let shm_va = 0x4000_0000L

(* The data directory (a deployment step, like formatting). *)
let provision system i =
  match
    Fs.mkdir (Smart_ssd.fs (System.ssd system i)) ~user:"root" ~mode:0o777 "/kv"
  with
  | Ok () -> ()
  | Error e -> invalid_arg ("provision: " ^ Fs.error_to_string e)

let boot spec =
  let system = System.build ~spec () in
  provision system 0;
  Result.map (fun () -> system) (System.boot system)

let run ?(spec = System.default_spec) ?(smoke_ops = 3) () =
  match boot spec with
  | Error e -> Error e
  | Ok system ->
    (* When the system runs with the authentication device, the KVS user
       logs in first and carries its session token through the open
       (Fig. 2 step 3, "including an authorization token"). The scenario
       expects credentials kvs/kvs-secret in the spec's user table. *)
    let session = ref None in
    (match System.auth system with
    | None -> ()
    | Some auth_dev ->
      let dev = Lastcpu_devices.Smart_nic.device (System.nic system 0) in
      Lastcpu_device.Device.start dev;
      Lastcpu_device.Device.request dev
        ~dst:
          (Lastcpu_proto.Types.Device (Lastcpu_devices.Auth_dev.id auth_dev))
        (Lastcpu_proto.Message.Auth_request
           { user = "kvs"; credential = "kvs-secret" })
        (fun p ->
          match p with
          | Lastcpu_proto.Message.Auth_response { ok = true; session = s } ->
            session := s
          | _ -> ());
      System.run_until_quiescent system);
    (match (System.auth system, !session) with
    | Some _, None -> invalid_arg "scenario: authentication failed"
    | _ -> ());
    let result = ref None in
    let pasid = System.fresh_pasid system in
    Kv_app.launch ~nic:(System.nic system 0)
      ~memctl:(Memctl.id (System.memctl system))
      ~pasid ~shm_va ~user:"kvs" ~log_path:"/kv/data.log" ?auth:!session ()
      (fun r -> result := Some r);
    System.run_until_quiescent system;
    (match !result with
    | None -> Error "KVS launch never completed (event queue drained)"
    | Some (Error e) -> Error e
    | Some (Ok app) ->
      let boot_ns = Engine.now (System.engine system) in
      (* Smoke operations through the full stack. *)
      let failures = ref [] in
      for i = 1 to smoke_ops do
        let key = Printf.sprintf "smoke-%d" i in
        Kv_app.local_op app
          (Kv_proto.Put (key, "value-" ^ key))
          (fun reply ->
            match reply with
            | Kv_proto.Done -> ()
            | _ -> failures := (key ^ ": put failed") :: !failures);
        System.run_until_quiescent system;
        Kv_app.local_op app (Kv_proto.Get key) (fun reply ->
            match reply with
            | Kv_proto.Value (Some v) when String.equal v ("value-" ^ key) -> ()
            | _ -> failures := (key ^ ": get mismatch") :: !failures);
        System.run_until_quiescent system
      done;
      if !failures <> [] then Error (String.concat "; " !failures)
      else Ok { system; app; boot_ns })

type step = { n : int; description : string; kind : string; at_ns : int64 }

let expected =
  [
    (1, "NIC broadcasts file-service discovery (file name)", "msg.discover-req");
    (2, "SSD answers: it can serve that file", "msg.discover-resp");
    (3, "NIC opens the service (authorization included)", "msg.open-service");
    (4, "SSD accepts: connection details + shared-memory size", "msg.open-resp");
    (5, "NIC asks the memory controller to allocate the shm", "msg.alloc-req");
    (6, "bus programs the NIC's IOMMU as directed by memctl", "bus.map");
    (7, "NIC grants the SSD access to the shared memory", "msg.grant-req");
  ]

let figure2_steps outcome =
  let engine = System.engine outcome.system in
  if not (Engine.tracing engine) then
    invalid_arg "Scenario_kvs.figure2_steps: the run recorded no trace";
  let entries = Trace.entries (Engine.trace engine) in
  let rec scan entries expected acc =
    match expected with
    | [] -> List.rev acc
    | (n, description, kind) :: rest -> (
      match entries with
      | [] -> List.rev acc
      | (e : Trace.entry) :: entries' ->
        if String.equal e.Trace.kind kind then
          scan entries' rest ({ n; description; kind; at_ns = e.Trace.time } :: acc)
        else scan entries' expected acc)
  in
  scan entries expected []

let pp_steps ppf steps =
  List.iter
    (fun s ->
      Format.fprintf ppf "  step %d [%8Ld ns]  %-18s %s@." s.n s.at_ns s.kind
        s.description)
    steps
