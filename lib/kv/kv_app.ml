module Types = Lastcpu_proto.Types
module Message = Lastcpu_proto.Message
module Device = Lastcpu_device.Device
module Engine = Lastcpu_sim.Engine
module Metrics = Lastcpu_sim.Metrics
module Smart_nic = Lastcpu_devices.Smart_nic
module File_client = Lastcpu_devices.File_client

(* Client-op admission policy ([set_overload_policy]); control traffic —
   recovery, failover drains, local supervisor ops — is never subject to
   it. Counters exist only once the policy is set, so default runs keep
   their telemetry snapshots unchanged. *)
type overload = {
  max_pending : int;
  m_shed : Metrics.counter;
  m_goodput : Metrics.counter;
}

type t = {
  nic : Smart_nic.t;
  mutable kv : Store.t;
  mutable fc : File_client.t;
  mutable fb : File_backend.t;
  engine : Engine.t;
  actor : string;
  m_served : Metrics.counter;
  m_failovers : Metrics.lazy_counter;  (* registered with a supervisor *)
  mutable recovered : int;
  (* While a failover is re-running the Figure-2 attach against another
     provider, incoming ops are parked here and drained once the new
     store is recovered. *)
  mutable failing_over : bool;
  parked : (Kv_proto.op * (Kv_proto.reply -> unit)) Queue.t;
  mutable overload : overload option;
  mutable client_in_flight : int;
}

let rec execute t op (k : Kv_proto.reply -> unit) =
  if t.failing_over then Queue.push (op, k) t.parked
  else begin
    (* Every KV op is timed, whatever its entry point (network fast path
       or local call): the store answers each op once, through [k]. *)
    let t0 = Engine.now t.engine in
    let k reply =
      Engine.observe_since t.engine ~actor:t.actor ~name:"kv_op_ns" t0;
      k reply
    in
    match op with
    | Kv_proto.Get key -> Store.get t.kv key (fun v -> k (Kv_proto.Value v))
    | Kv_proto.Put (key, value) ->
      Store.put t.kv ~key ~value (function
        | Ok () -> k Kv_proto.Done
        | Error m -> k (Kv_proto.Failed m))
    | Kv_proto.Del key ->
      Store.delete t.kv key (function
        | Ok b -> k (Kv_proto.Deleted b)
        | Error m -> k (Kv_proto.Failed m))
    | Kv_proto.Scan prefix ->
      Store.scan_prefix t.kv ~prefix (fun pairs -> k (Kv_proto.Pairs pairs))
  end

and drain_parked t =
  let rec go () =
    if (not t.failing_over) && not (Queue.is_empty t.parked) then begin
      let op, k = Queue.pop t.parked in
      execute t op k;
      go ()
    end
  in
  go ()

let set_overload_policy t ~max_pending =
  if max_pending <= 0 then invalid_arg "set_overload_policy: max_pending";
  let m = Engine.metrics t.engine in
  t.overload <-
    Some
      {
        max_pending;
        m_shed = Metrics.counter m ~actor:t.actor ~name:"shed";
        m_goodput = Metrics.counter m ~actor:t.actor ~name:"goodput";
      }

(* Client-facing entry: admission control + goodput accounting. Sheds at
   the door when the admitted window is full — a cheap failure now beats a
   queued success that will miss its deadline (metastability guard). *)
let execute_client t op k =
  match t.overload with
  | None -> execute t op k
  | Some o ->
    if t.client_in_flight >= o.max_pending then begin
      Metrics.incr o.m_shed;
      (* Deterministic retry-after: the admitted window drains through the
         WAL's flash-program bottleneck, one page per op. *)
      let retry_after_ns =
        Int64.mul (Int64.of_int t.client_in_flight) Lastcpu_sim.Costs.flash_write_page_ns
      in
      Engine.tracef t.engine ~actor:t.actor ~kind:"kv.shed"
        "in-flight=%d retry-after=%Ldns" t.client_in_flight retry_after_ns;
      k (Kv_proto.Failed (Message.busy_detail ~retry_after_ns))
    end
    else begin
      t.client_in_flight <- t.client_in_flight + 1;
      execute t op (fun reply ->
          t.client_in_flight <- t.client_in_flight - 1;
          (match reply with
          | Kv_proto.Failed _ -> ()
          | _ -> Metrics.incr o.m_goodput);
          k reply)
    end

let install_fast_path t =
  Smart_nic.on_packet t.nic (fun ~src frame ->
      match Kv_proto.decode_request frame with
      | Error _ -> () (* garbage frame: drop, as a NIC would *)
      | Ok { corr; op } ->
        Metrics.incr t.m_served;
        execute_client t op (fun reply ->
            Smart_nic.send_packet t.nic ~dst:src
              (Kv_proto.encode_response { corr; reply })))

let failovers t = Metrics.lazy_value t.m_failovers

(* Checkpointing: store index + watermark, log offset, file-client ring
   state, and the app's own counters. [parked] holds continuations, which
   are empty at any quiescent point (a parked op implies a failover in
   flight, and a failover in flight implies volatile events).

   A checkpoint taken after a completed failover is refused: the restored
   state would describe a connection to a provider the rebuilt topology
   never attached to (rebuild replays the original boot-time discovery,
   not the failover). T-series soaks that checkpoint therefore crash
   non-provider devices only. *)
module Snapshot = Lastcpu_sim.Snapshot

let save_state t w =
  if failovers t > 0 then
    invalid_arg "Kv_app: checkpoint after a failover is not supported";
  Snapshot.W.bool w t.failing_over;
  Snapshot.W.varint w t.recovered;
  Snapshot.W.varint w t.client_in_flight;
  Store.save w t.kv;
  File_backend.save w t.fb;
  File_client.save w t.fc

let restore_state t r =
  t.failing_over <- Snapshot.R.bool r;
  t.recovered <- Snapshot.R.varint r;
  t.client_in_flight <- Snapshot.R.varint r;
  Queue.clear t.parked;
  Store.restore r t.kv;
  File_backend.restore r t.fb;
  File_client.restore r t.fc

let max_failover_attempts = 10

(* Re-run the whole Figure-2 attach against whichever file service now
   answers discovery, then rebuild and recover the store on it. The old
   provider's log is unreachable, so the new store starts from the new
   provider's copy of the path (fresh unless it was replicated) — the
   supervisor restores *availability*, not the lost device's data. *)
let rec reattach t ~dev ~memctl ~user ~log_path ~auth ~req_timeout ~req_retries
    ~fresh ~attempt =
  let retry () =
    if attempt >= max_failover_attempts then begin
      t.failing_over <- false;
      let rec fail_all () =
        if not (Queue.is_empty t.parked) then begin
          let _, k = Queue.pop t.parked in
          k (Kv_proto.Failed "failover exhausted");
          fail_all ()
        end
      in
      fail_all ()
    end
    else
      let backoff = Int64.mul 100_000L (Int64.of_int (1 lsl min attempt 6)) in
      Engine.schedule t.engine ~delay:backoff (fun () ->
          reattach t ~dev ~memctl ~user ~log_path ~auth ~req_timeout
            ~req_retries ~fresh ~attempt:(attempt + 1))
  in
  let pasid, shm_va = fresh () in
  File_client.connect dev ~memctl ~pasid ~shm_va ~user ~path_hint:log_path
    ?auth ?req_timeout ?req_retries (fun res ->
      match res with
      | Error _ -> retry ()
      | Ok fc ->
        File_backend.create fc ~path:log_path (fun res ->
            match res with
            | Error _ -> retry ()
            | Ok fb ->
              let m = Engine.metrics t.engine in
              let actor = Metrics.claim_actor m t.actor in
              let store =
                Store.create ~metrics:m ~actor (File_backend.backend fb)
              in
              Store.recover store (fun res ->
                  match res with
                  | Error _ -> retry ()
                  | Ok n ->
                    t.kv <- store;
                    t.fc <- fc;
                    t.fb <- fb;
                    t.recovered <- n;
                    Engine.tracef t.engine ~actor:t.actor ~kind:"kv.failover"
                      "reattached to dev%d (%d records)"
                      (File_client.provider fc) n;
                    t.failing_over <- false;
                    drain_parked t)))

let install_supervisor t ~dev ~memctl ~user ~log_path ~auth ~req_timeout
    ~req_retries ~fresh =
  Device.on_device_failed dev (fun ~device ->
      if (not t.failing_over) && device = File_client.provider t.fc then begin
        t.failing_over <- true;
        Metrics.bump t.m_failovers;
        Engine.tracef t.engine ~actor:t.actor ~kind:"kv.failover"
          "provider dev%d failed, re-running discovery" device;
        File_client.abort_in_flight t.fc "provider failed";
        reattach t ~dev ~memctl ~user ~log_path ~auth ~req_timeout ~req_retries
          ~fresh ~attempt:0
      end)

let launch ~nic ~memctl ~pasid ~shm_va ~user ~log_path ?auth
    ?(start_device = true) ?req_timeout ?req_retries ?supervisor () k =
  let dev = Smart_nic.device nic in
  if start_device then begin
    Device.add_service dev
      {
        desc =
          {
            Message.kind = Types.Kv_service;
            name = Device.name dev ^ ".kv";
            version = 1;
          };
        can_serve = (fun ~query:_ -> true);
        on_open =
          (fun ~client:_ ~pasid:_ ~auth:_ ~params:_ ->
            Ok { Device.connection = Device.fresh_connection dev; shm_bytes = 0L });
        on_close = (fun ~connection:_ -> ());
      };
    Device.start dev
  end;
  File_client.connect dev ~memctl ~pasid ~shm_va ~user ~path_hint:log_path ?auth
    ?req_timeout ?req_retries
    (fun res ->
      match res with
      | Error m -> k (Error ("file service: " ^ m))
      | Ok fc ->
        File_backend.create fc ~path:log_path (fun res ->
            match res with
            | Error m -> k (Error ("log: " ^ m))
            | Ok fb ->
              let engine = Device.engine dev in
              let m = Engine.metrics engine in
              let actor = Metrics.claim_actor m (Device.actor dev ^ ".kv") in
              let store =
                Store.create ~metrics:m ~actor (File_backend.backend fb)
              in
              let t =
                {
                  nic;
                  kv = store;
                  fc;
                  fb;
                  engine;
                  actor;
                  m_served = Metrics.counter m ~actor ~name:"ops_served";
                  m_failovers = Metrics.lazy_counter m ~actor ~name:"failovers";
                  recovered = 0;
                  failing_over = false;
                  parked = Queue.create ();
                  overload = None;
                  client_in_flight = 0;
                }
              in
              if Option.is_some supervisor then
                Metrics.bump ~by:0 t.m_failovers;
              Store.recover store (fun res ->
                  match res with
                  | Error m -> k (Error ("recover: " ^ m))
                  | Ok n ->
                    t.recovered <- n;
                    Engine.register_snapshot engine ~name:actor
                      ~save:(save_state t)
                      ~restore:(restore_state t);
                    install_fast_path t;
                    (match supervisor with
                    | None -> ()
                    | Some fresh ->
                      install_supervisor t ~dev ~memctl ~user ~log_path ~auth
                        ~req_timeout ~req_retries ~fresh);
                    k (Ok t))))

let store t = t.kv
let client t = t.fc
let ops_served t = Metrics.counter_value t.m_served
let recovered_records t = t.recovered
let local_op t op k = execute t op k

let ops_shed t =
  match t.overload with None -> 0 | Some o -> Metrics.counter_value o.m_shed

let goodput t =
  match t.overload with
  | None -> Metrics.counter_value t.m_served
  | Some o -> Metrics.counter_value o.m_goodput
