module Types = Lastcpu_proto.Types
module Message = Lastcpu_proto.Message
module Token = Lastcpu_proto.Token
module Iommu = Lastcpu_iommu.Iommu
module Dma = Lastcpu_virtio.Dma
module Sysbus = Lastcpu_bus.Sysbus
module Engine = Lastcpu_sim.Engine
module Station = Lastcpu_sim.Station
module Costs = Lastcpu_sim.Costs
module Metrics = Lastcpu_sim.Metrics
module Faults = Lastcpu_sim.Faults
module Detmap = Lastcpu_sim.Detmap

type open_accept = { connection : int; shm_bytes : int64 }

type service_impl = {
  desc : Message.service_desc;
  can_serve : query:string -> bool;
  on_open :
    client:Types.device_id ->
    pasid:int ->
    auth:Token.t option ->
    params:(string * string) list ->
    (open_accept, Types.error_code) result;
  on_close : connection:int -> unit;
}

type connection_info = {
  conn_id : int;
  service : string;
  client : Types.device_id;
  conn_pasid : int;
}

(* Per-peer circuit breaker (disabled unless [enable_circuit_breaker]).
   Closed counts consecutive busy/timeout failures; Open fast-fails new
   requests until its deadline; the first request after the deadline is the
   half-open probe — its failure reopens immediately, its success closes. *)
type breaker_state = Closed | Open of int64 (* fast-fail until *) | Half_open
type breaker = { mutable state : breaker_state; mutable failures : int }
type breaker_cfg = { threshold : int; cooldown_ns : int64 }

type t = {
  mutable dev_id : Types.device_id;
  dev_name : string;
  sysbus : Sysbus.t;
  engine : Engine.t;
  mem : Lastcpu_mem.Physmem.t;
  iommu : Iommu.t;
  station : Station.t;
  mutable services : service_impl list;
  mutable app_handler : (Message.t -> unit) option;
  mutable fault_handler : (Iommu.fault -> unit) option;
  mutable is_started : bool;
  mutable via_bus_doorbells : bool;
  pending : (int, Message.payload -> unit) Hashtbl.t;
  doorbells : (int, unit -> unit) Hashtbl.t;
  dmas : (int, Dma.t) Hashtbl.t;
  conns : (int, connection_info) Hashtbl.t;
  mutable next_corr : int;
  mutable next_conn : int;
  mutable next_queue : int;
  (* Ring of recently completed correlation ids: a response that arrives
     after its request timed out (or after a duplicate already completed
     it) is swallowed and counted instead of leaking to the app handler. *)
  recent : int array;
  mutable recent_idx : int;
  mutable failed_watchers : (device:Types.device_id -> unit) list;
  actor : string;
  m_handled : Metrics.counter;
  m_sent : Metrics.counter;
  m_faults : Metrics.counter;
  m_discover_late : Metrics.counter;
  m_request_late : Metrics.counter;
  m_retries : Metrics.counter;
  m_gave_up : Metrics.counter;
  breakers : (int, breaker) Hashtbl.t;
  mutable breaker_cfg : breaker_cfg option;
  (* Registered on first use (see [Metrics.lazy_counter]); the breaker
     pair when [enable_circuit_breaker] switches the breaker on. *)
  m_breaker_opened : Metrics.lazy_counter;
  m_breaker_fast_fails : Metrics.lazy_counter;
  m_expired : Metrics.lazy_counter;
  m_forged_failures : Metrics.lazy_counter;
}

let recent_size = 64

let remember_corr t corr =
  t.recent.(t.recent_idx) <- corr;
  t.recent_idx <- (t.recent_idx + 1) mod recent_size

let recently_completed t corr = Array.exists (fun c -> c = corr) t.recent

let reannounce t =
  Metrics.incr t.m_sent;
  Sysbus.send t.sysbus
    (Message.make ~src:t.dev_id ~dst:Types.Bus ~corr:0
       (Message.Device_alive { services = List.map (fun s -> s.desc) t.services }))

(* Under an active fault plan the announcement itself can be lost on the
   bus; a real device retries until the bus registers it. Bounded, so a
   device that can never rejoin does not keep the event queue alive. *)
let announce_retry_ns = 200_000L

let announce_until_live t attempts =
  let rec check attempts =
    Engine.schedule t.engine ~delay:announce_retry_ns (fun () ->
        if attempts > 0 && not (Sysbus.is_live t.sysbus t.dev_id) then begin
          reannounce t;
          check (attempts - 1)
        end)
  in
  check attempts

let response_like (p : Message.payload) =
  match p with
  | Message.Discover_response _ | Message.Open_response _
  | Message.Alloc_response _ | Message.Map_complete _ | Message.Auth_response _
  | Message.Error_msg _ | Message.App_message _ ->
    true
  | _ -> false

let dispatch t (msg : Message.t) =
  Metrics.incr t.m_handled;
  let to_app () = match t.app_handler with Some f -> f msg | None -> () in
  (* 1. Correlated response? *)
  let as_response =
    if response_like msg.payload then
      match Hashtbl.find_opt t.pending msg.corr with
      | Some k ->
        Hashtbl.remove t.pending msg.corr;
        Some k
      | None -> None
    else None
  in
  match as_response with
  | Some k -> k msg.payload
  | None when response_like msg.payload && recently_completed t msg.corr ->
    (* Late or duplicate answer to a request that already completed
       (timed out, or a fault-injected duplicate): swallow and count. *)
    Metrics.incr t.m_request_late
  | None -> (
    (* 2. Service plane. *)
    match msg.payload with
    | Message.Reset_device ->
      (* Out-of-band reset line (bus revive): rejoin the live set. *)
      reannounce t;
      if Faults.active (Engine.faults t.engine) then announce_until_live t 8
    | Message.Device_failed { device } ->
      (* Failure notifications are management traffic: only the bus itself
         (src < 0) originates them. A peer-sourced one is a forgery — a
         rogue device trying to talk the fleet into failing over away from
         a healthy provider — so it is counted and ignored, never acted on. *)
      if msg.src < 0 then begin
        List.iter (fun f -> f ~device) t.failed_watchers;
        match t.app_handler with Some f -> f msg | None -> ()
      end
      else begin
        Metrics.bump t.m_forged_failures;
        Engine.tracef t.engine ~actor:t.dev_name ~kind:"device.forged-failure"
          "Device_failed{dev%d} claimed by dev%d, ignored" device msg.src
      end
    | Message.Discover_request { kind; query } ->
      List.iter
        (fun s ->
          if s.desc.Message.kind = kind && s.can_serve ~query then begin
            Metrics.incr t.m_sent;
            Sysbus.send t.sysbus
              (Message.make ~src:t.dev_id ~dst:(Types.Device msg.src)
                 ~corr:msg.corr
                 (Message.Discover_response
                    { provider = t.dev_id; service = s.desc; query }))
          end)
        t.services
    | Message.Open_service { service; pasid; auth; params } -> (
      let impl =
        List.find_opt
          (fun s -> String.equal s.desc.Message.name service.Message.name)
          t.services
      in
      let respond payload =
        Metrics.incr t.m_sent;
        Sysbus.send t.sysbus
          (Message.make ~src:t.dev_id ~dst:(Types.Device msg.src) ~corr:msg.corr
             payload)
      in
      match impl with
      | None ->
        respond
          (Message.Open_response
             {
               accepted = false;
               connection = 0;
               shm_bytes = 0L;
               error = Some Types.E_no_such_service;
             })
      | Some s -> (
        match s.on_open ~client:msg.src ~pasid ~auth ~params with
        | Error code ->
          respond
            (Message.Open_response
               { accepted = false; connection = 0; shm_bytes = 0L; error = Some code })
        | Ok { connection; shm_bytes } ->
          Hashtbl.replace t.conns connection
            {
              conn_id = connection;
              service = s.desc.Message.name;
              client = msg.src;
              conn_pasid = pasid;
            };
          respond
            (Message.Open_response
               { accepted = true; connection; shm_bytes; error = None })))
    | Message.Doorbell { queue } -> (
      match Hashtbl.find_opt t.doorbells queue with
      | Some f -> f ()
      | None -> to_app ())
    | Message.Close_service { connection } ->
      (match Hashtbl.find_opt t.conns connection with
      | None -> ()
      | Some info ->
        Hashtbl.remove t.conns connection;
        List.iter
          (fun s ->
            if String.equal s.desc.Message.name info.service then
              s.on_close ~connection)
          t.services)
    | _ -> to_app ())

let handle t msg =
  (* Per-device monitor: messages are processed serially with a fixed
     per-message cost — the "modest hardware" of §2.2. *)
  let now = Engine.now t.engine in
  if Message.expired msg ~now then begin
    Metrics.bump t.m_expired;
    Engine.tracef t.engine ~actor:t.dev_name ~kind:"device.expired"
      "%s past deadline, shed" (Message.payload_tag msg.payload)
  end
  else
    match
      Station.try_submit t.station ~service:Costs.device_process_ns
        (fun () -> dispatch t msg)
    with
    | `Accepted -> ()
    | `Rejected ->
      Engine.tracef t.engine ~actor:t.dev_name ~kind:"device.busy"
        "%s rejected, monitor queue full" (Message.payload_tag msg.payload);
      (* NACK requests so the sender can back off; drop responses silently
         (the requester's timeout covers them, and NACKing a NACK loops). *)
      if (not (response_like msg.payload)) && msg.src >= 0 then begin
        let retry_after_ns = Station.drain_ns t.station ~now in
        Metrics.incr t.m_sent;
        Sysbus.send t.sysbus
          (Message.make ~src:t.dev_id ~dst:(Types.Device msg.src) ~corr:msg.corr
             (Message.Error_msg
                {
                  code = Types.E_busy;
                  detail = Message.busy_detail ~retry_after_ns;
                }))
      end

let dma t ~pasid =
  match Hashtbl.find_opt t.dmas pasid with
  | Some d -> d
  | None ->
    let d = Dma.create ~iommu:t.iommu ~pasid ~mem:t.mem in
    Hashtbl.replace t.dmas pasid d;
    d

(* Checkpointing: counters, the recent-corr dedup ring, open connections
   and circuit breakers — everything a resumed run observes. [pending]
   continuations are deliberately not saved: at a quiescent checkpoint
   every in-flight request has either completed or timed out, so the table
   holds at most dead entries whose responses were already lost. *)
module Snapshot = Lastcpu_sim.Snapshot

let save_state t w =
  Snapshot.W.varint w t.next_corr;
  Snapshot.W.varint w t.next_conn;
  Snapshot.W.varint w t.next_queue;
  Snapshot.W.array w (fun w c -> Snapshot.W.vint w c) t.recent;
  Snapshot.W.varint w t.recent_idx;
  Snapshot.W.list w
    (fun w (conn, (info : connection_info)) ->
      Snapshot.W.varint w conn;
      Snapshot.W.string w info.service;
      Snapshot.W.vint w info.client;
      Snapshot.W.vint w info.conn_pasid)
    (Detmap.bindings t.conns);
  Snapshot.W.list w
    (fun w (peer, (b : breaker)) ->
      Snapshot.W.vint w peer;
      (match b.state with
      | Closed -> Snapshot.W.byte w 0
      | Open until ->
        Snapshot.W.byte w 1;
        Snapshot.W.int64 w until
      | Half_open -> Snapshot.W.byte w 2);
      Snapshot.W.varint w b.failures)
    (Detmap.bindings t.breakers)

let restore_state t r =
  t.next_corr <- Snapshot.R.varint r;
  t.next_conn <- Snapshot.R.varint r;
  t.next_queue <- Snapshot.R.varint r;
  let ring = Snapshot.R.array r Snapshot.R.vint in
  if Array.length ring <> recent_size then
    raise (Snapshot.R.Corrupt "device recent-ring size differs");
  let recent_idx = Snapshot.R.varint r in
  if recent_idx < 0 || recent_idx >= recent_size then
    raise (Snapshot.R.Corrupt "device recent-ring index out of range");
  Array.blit ring 0 t.recent 0 recent_size;
  t.recent_idx <- recent_idx;
  Hashtbl.reset t.conns;
  let n = Snapshot.R.varint r in
  for _ = 1 to n do
    let conn_id = Snapshot.R.varint r in
    let service = Snapshot.R.string r in
    let client = Snapshot.R.vint r in
    let conn_pasid = Snapshot.R.vint r in
    Hashtbl.replace t.conns conn_id { conn_id; service; client; conn_pasid }
  done;
  Hashtbl.reset t.breakers;
  let n = Snapshot.R.varint r in
  for _ = 1 to n do
    let peer = Snapshot.R.vint r in
    let state =
      match Snapshot.R.byte r with
      | 0 -> Closed
      | 1 -> Open (Snapshot.R.int64 r)
      | 2 -> Half_open
      | _ -> raise (Snapshot.R.Corrupt "bad breaker state tag")
    in
    let failures = Snapshot.R.varint r in
    Hashtbl.replace t.breakers peer { state; failures }
  done

let create ?shard sysbus ~mem ~name () =
  let engine = Sysbus.engine sysbus in
  let m = Engine.metrics engine in
  let actor = Metrics.claim_actor m name in
  let iommu =
    Iommu.create ~metrics:m ~actor:(actor ^ ".iommu") ()
  in
  let counter n = Metrics.counter m ~actor ~name:n in
  let lazy_counter n = Metrics.lazy_counter m ~actor ~name:n in
  let queue_capacity = Sysbus.device_queue_capacity sysbus in
  let station_telemetry =
    match queue_capacity with None -> None | Some _ -> Some (m, actor)
  in
  let t =
    {
      dev_id = -1;
      dev_name = name;
      sysbus;
      engine;
      mem;
      iommu;
      station =
        Station.create ?capacity:queue_capacity ?telemetry:station_telemetry
          engine;
      services = [];
      app_handler = None;
      fault_handler = None;
      is_started = false;
      via_bus_doorbells = false;
      pending = Hashtbl.create 16;
      doorbells = Hashtbl.create 4;
      dmas = Hashtbl.create 4;
      conns = Hashtbl.create 8;
      next_corr = 0;
      next_conn = 1;
      next_queue = 1;
      recent = Array.make recent_size (-1);
      recent_idx = 0;
      failed_watchers = [];
      actor;
      m_handled = counter "handled";
      m_sent = counter "sent";
      m_faults = counter "faults";
      m_discover_late = counter "discover_late";
      m_request_late = counter "request_late";
      m_retries = counter "retries";
      m_gave_up = counter "gave_up";
      breakers = Hashtbl.create 4;
      breaker_cfg = None;
      m_breaker_opened = lazy_counter "breaker_opened";
      m_breaker_fast_fails = lazy_counter "breaker_fast_fails";
      m_expired = lazy_counter "expired_dropped";
      m_forged_failures = lazy_counter "forged_failures";
    }
  in
  let id =
    Sysbus.attach ?shard sysbus ~name ~iommu ~handler:(fun msg -> handle t msg)
  in
  t.dev_id <- id;
  Engine.register_snapshot engine ~name:("dev:" ^ actor)
    ~save:(save_state t)
    ~restore:(restore_state t);
  Iommu.attach_fault_handler iommu (fun fault ->
      Metrics.incr t.m_faults;
      Engine.tracef engine ~actor:name ~kind:"device.fault"
        "pasid=%d va=0x%Lx %s" fault.Iommu.pasid fault.Iommu.va
        (match fault.Iommu.reason with
        | Iommu.Not_mapped -> "not-mapped"
        | Iommu.Protection -> "protection");
      match t.fault_handler with Some f -> f fault | None -> ());
  t

let id t = t.dev_id
let name t = t.dev_name
let bus t = t.sysbus
let engine t = t.engine

let add_service t impl =
  t.services <- t.services @ [ impl ];
  (* A device that loads a new application after boot re-announces itself
     so the bus's service registry stays current (§2.2). *)
  if t.is_started then begin
    Metrics.incr t.m_sent;
    Sysbus.send t.sysbus
      (Message.make ~src:t.dev_id ~dst:Types.Bus ~corr:0
         (Message.Device_alive
            { services = List.map (fun s -> s.desc) t.services }))
  end

let fresh_corr t =
  let c = (t.dev_id lsl 20) lor (t.next_corr land 0xfffff) in
  t.next_corr <- t.next_corr + 1;
  c

let fresh_connection t =
  let c = t.next_conn in
  t.next_conn <- c + 1;
  c

(* Queue ids are device-scoped (the device id prefixes the low counter
   bits), so the counter lives on the device, not in a process global:
   experiments running concurrently on separate domains must not share
   mutable state, and a shared counter would make queue-id values depend
   on cross-run interleaving. *)
let fresh_queue_id t =
  let q = (t.dev_id lsl 12) lor (t.next_queue land 0xfff) in
  t.next_queue <- t.next_queue + 1;
  q

let start t =
  if not t.is_started then begin
    t.is_started <- true;
    (* Self-test: a short deterministic delay before announcing. *)
    let self_test = Int64.mul 10L Costs.device_process_ns in
    Engine.schedule t.engine ~delay:self_test (fun () ->
        Metrics.incr t.m_sent;
        Sysbus.send t.sysbus
          (Message.make ~src:t.dev_id ~dst:Types.Bus ~corr:(fresh_corr t)
             (Message.Device_alive
                { services = List.map (fun s -> s.desc) t.services }));
        if Faults.active (Engine.faults t.engine) then announce_until_live t 8)
  end

let started t = t.is_started
let on_doorbell t ~queue f = Hashtbl.replace t.doorbells queue f
let clear_doorbell t ~queue = Hashtbl.remove t.doorbells queue
let set_app_handler t f = t.app_handler <- Some f
let on_fault t f = t.fault_handler <- Some f
let fault_count t = Metrics.counter_value t.m_faults

let enable_heartbeat t ~period =
  assert (period > 0L);
  let rec beat () =
    if Sysbus.is_live t.sysbus t.dev_id then begin
      Metrics.incr t.m_sent;
      Sysbus.send t.sysbus
        (Message.make ~src:t.dev_id ~dst:Types.Bus ~corr:0 Message.Heartbeat)
    end;
    Engine.schedule t.engine ~delay:period beat
  in
  Engine.schedule t.engine ~delay:period beat

let send t ~dst payload =
  Metrics.incr t.m_sent;
  Sysbus.send t.sysbus (Message.make ~src:t.dev_id ~dst ~corr:0 payload)

let reply t ~to_ ~corr payload =
  Metrics.incr t.m_sent;
  Sysbus.send t.sysbus
    (Message.make ~src:t.dev_id ~dst:(Types.Device to_) ~corr payload)

(* --- circuit breaker ------------------------------------------------------ *)

let bus_peer = -1 (* breaker key for requests addressed to the bus *)

let peer_of_dst = function Types.Device d -> d | Types.Bus | Types.Broadcast -> bus_peer

let enable_circuit_breaker t ~threshold ~cooldown_ns =
  if threshold <= 0 then invalid_arg "enable_circuit_breaker: threshold";
  if cooldown_ns <= 0L then invalid_arg "enable_circuit_breaker: cooldown_ns";
  t.breaker_cfg <- Some { threshold; cooldown_ns };
  Metrics.bump ~by:0 t.m_breaker_opened;
  Metrics.bump ~by:0 t.m_breaker_fast_fails

let breaker_for t peer =
  match Hashtbl.find_opt t.breakers peer with
  | Some b -> b
  | None ->
    let b = { state = Closed; failures = 0 } in
    Hashtbl.replace t.breakers peer b;
    b

let breaker_is_open t peer =
  match t.breaker_cfg with
  | None -> false
  | Some _ -> (
    match (breaker_for t peer).state with
    | Open until -> Engine.now t.engine < until
    | Closed | Half_open -> false)

(* A busy answer (including the local "request timed out" give-up) or the
   bus bouncing the frame off a dead peer is a failure; anything else —
   even an application-level error — proves the peer is alive and
   serving, and closes the breaker. *)
let observe_peer_result t peer (payload : Message.payload) =
  match t.breaker_cfg with
  | None -> ()
  | Some { threshold; cooldown_ns } -> (
    let b = breaker_for t peer in
    match payload with
    | Message.Error_msg
        { code = Types.E_busy | Types.E_device_failed; detail } ->
      b.failures <- b.failures + 1;
      let probe_failed = b.state = Half_open in
      if b.failures >= threshold || probe_failed then begin
        (* Honor the peer's retry-after hint when it outlasts our own
           cooldown: reopening earlier would just buy another rejection. *)
        let window =
          match Message.retry_after_of_detail detail with
          | Some ns when ns > cooldown_ns -> ns
          | _ -> cooldown_ns
        in
        b.state <- Open (Int64.add (Engine.now t.engine) window);
        Metrics.bump t.m_breaker_opened;
        Engine.tracef t.engine ~actor:t.dev_name ~kind:"device.breaker-open"
          "peer=%d failures=%d window=%Ldns" peer b.failures window
      end
    | _ ->
      if b.failures > 0 || b.state <> Closed then
        Engine.tracef t.engine ~actor:t.dev_name ~kind:"device.breaker-close"
          "peer=%d" peer;
      b.failures <- 0;
      b.state <- Closed)

let request t ?deadline_ns ?timeout ?(retries = 0) ~dst payload k =
  let corr = fresh_corr t in
  let peer = peer_of_dst dst in
  (* Timed send-to-completion: the wrapped continuation is the one exit of
     the response, timeout and fast-fail paths, so it observes exactly
     once, and recording the corr in the recent ring lets a response that
     races the give-up be swallowed instead of leaking. *)
  let t0 = Engine.now t.engine in
  let finish payload =
    Engine.observe_since t.engine ~actor:t.actor ~name:"request_ns" t0;
    remember_corr t corr;
    k payload
  in
  let gate =
    match t.breaker_cfg with
    | None -> `Pass
    | Some _ -> (
      let b = breaker_for t peer in
      match b.state with
      | Closed | Half_open -> `Pass
      | Open until ->
        let now = Engine.now t.engine in
        if now >= until then begin
          (* Cooldown elapsed: let this request through as the probe. *)
          b.state <- Half_open;
          `Pass
        end
        else `Fast_fail (Int64.sub until now))
  in
  match gate with
  | `Fast_fail remaining ->
    (* Shed locally, costing nothing downstream. The synthetic busy reply
       deliberately bypasses [observe_peer_result]: fast-fails must not
       extend the open window they are caused by. *)
    Metrics.bump t.m_breaker_fast_fails;
    Engine.tracef t.engine ~actor:t.dev_name ~kind:"device.breaker-reject"
      "peer=%d retry-after=%Ldns" peer remaining;
    Engine.schedule t.engine ~delay:0L (fun () ->
        finish
          (Message.Error_msg
             {
               code = Types.E_busy;
               detail = Message.busy_detail ~retry_after_ns:remaining;
             }))
  | `Pass -> (
    let k payload =
      observe_peer_result t peer payload;
      finish payload
    in
    Hashtbl.replace t.pending corr k;
    Metrics.incr t.m_sent;
    Sysbus.send t.sysbus (Message.make ?deadline_ns ~src:t.dev_id ~dst ~corr payload);
    match timeout with
    | None -> ()
    | Some delay ->
      assert (delay > 0L);
      let rec arm attempt delay =
        Engine.schedule t.engine ~delay (fun () ->
            match Hashtbl.find_opt t.pending corr with
            | None -> () (* already answered *)
            | Some k ->
              if attempt < retries then begin
                (* Retransmit with the SAME correlation id, so the receiver
                   side is idempotent: a late answer to the original send
                   completes the retry. Exponential backoff plus a
                   deterministic jitter hashed from (corr, attempt) — never
                   an RNG draw, which would perturb seeded replay. While the
                   peer's breaker is open, skip the resend but keep the
                   timer chain: no retry storm into a known-saturated peer. *)
                if not (breaker_is_open t peer) then begin
                  Metrics.incr t.m_retries;
                  Metrics.incr t.m_sent;
                  Sysbus.send t.sysbus
                    (Message.make ?deadline_ns ~src:t.dev_id ~dst ~corr payload)
                end;
                let jitter =
                  Int64.of_int (((corr * 0x9E3779B1) + (attempt * 977)) land 0xff)
                in
                arm (attempt + 1) (Int64.add (Int64.mul delay 2L) jitter)
              end
              else begin
                Hashtbl.remove t.pending corr;
                Metrics.incr t.m_gave_up;
                k
                  (Message.Error_msg
                     { code = Types.E_busy; detail = "request timed out" })
              end)
      in
      arm 0 delay)

let default_discover_timeout = 1_000_000L (* 1 ms *)

let discover t ~kind ~query ?(timeout = default_discover_timeout) ?(retries = 0)
    k =
  let corr = fresh_corr t in
  let t0 = Engine.now t.engine in
  let answered = ref false in
  (* [dispatch] removes the pending entry each time it matches, so the
     handler re-registers itself: providers answering after the first are
     swallowed (and counted) here instead of leaking to the app handler as
     noise. The timeout removes the entry for good. *)
  let rec handler payload =
    Hashtbl.replace t.pending corr handler;
    if not !answered then begin
      answered := true;
      Engine.observe_since t.engine ~actor:t.actor ~name:"discover_ns" t0;
      match payload with
      | Message.Discover_response { provider; service; _ } ->
        k (Some (provider, service))
      | _ -> k None
    end
    else Metrics.incr t.m_discover_late
  in
  Hashtbl.replace t.pending corr handler;
  let probe () =
    Metrics.incr t.m_sent;
    Sysbus.send t.sysbus
      (Message.make ~src:t.dev_id ~dst:Types.Broadcast ~corr
         (Message.Discover_request { kind; query }))
  in
  (* A silent window means the broadcast (or every answer) was lost:
     re-probe with the same correlation id, bounded. *)
  let rec arm attempt =
    Engine.schedule t.engine ~delay:timeout (fun () ->
        if !answered then Hashtbl.remove t.pending corr
        else if attempt < retries then begin
          Metrics.incr t.m_retries;
          probe ();
          arm (attempt + 1)
        end
        else begin
          Hashtbl.remove t.pending corr;
          answered := true;
          Engine.observe_since t.engine ~actor:t.actor ~name:"discover_ns" t0;
          k None
        end)
  in
  probe ();
  arm 0

let open_service t ~provider ~service ~pasid ?auth ?(params = []) ?timeout
    ?retries k =
  request t ?timeout ?retries ~dst:(Types.Device provider)
    (Message.Open_service { service; pasid; auth; params })
    (fun payload ->
      match payload with
      | Message.Open_response { accepted = true; connection; shm_bytes; _ } ->
        k (Ok { connection; shm_bytes })
      | Message.Open_response { accepted = false; error; _ } ->
        k (Error (Option.value error ~default:Types.E_invalid))
      | Message.Error_msg { code; _ } -> k (Error code)
      | _ -> k (Error Types.E_invalid))

let close_service t ~provider ~connection =
  send t ~dst:(Types.Device provider) (Message.Close_service { connection })

let alloc t ~memctl ~pasid ~va ~bytes ~perm ?timeout ?retries k =
  request t ?timeout ?retries ~dst:(Types.Device memctl)
    (Message.Alloc_request { pasid; va; bytes; perm })
    (fun payload ->
      match payload with
      | Message.Alloc_response { ok = true; grant = Some token; _ } -> k (Ok token)
      | Message.Alloc_response { ok = true; grant = None; _ } ->
        k (Error Types.E_invalid)
      | Message.Alloc_response { error; _ } ->
        k (Error (Option.value error ~default:Types.E_no_memory))
      | Message.Error_msg { code; _ } -> k (Error code)
      | _ -> k (Error Types.E_invalid))

let grant t ~to_device ~pasid ~va ~bytes ~perm ~auth ?timeout ?retries k =
  request t ?timeout ?retries ~dst:Types.Bus
    (Message.Grant_request { to_device; pasid; va; bytes; perm; auth })
    (fun payload ->
      match payload with
      | Message.Map_complete { ok = true; _ } -> k (Ok ())
      | Message.Map_complete { ok = false; _ } -> k (Error Types.E_bad_address)
      | Message.Error_msg { code; _ } -> k (Error code)
      | _ -> k (Error Types.E_invalid))

let free t ~memctl ~pasid ~va ~bytes k =
  request t ~dst:(Types.Device memctl)
    (Message.Free_request { pasid; va; bytes })
    (fun payload ->
      match payload with
      | Message.Alloc_response { ok = true; _ } -> k (Ok ())
      | Message.Alloc_response { error; _ } ->
        k (Error (Option.value error ~default:Types.E_invalid))
      | Message.Error_msg { code; _ } -> k (Error code)
      | _ -> k (Error Types.E_invalid))

let route_doorbells_via_bus t v = t.via_bus_doorbells <- v

let doorbell t ~dst ~queue =
  if t.via_bus_doorbells then
    send t ~dst:(Types.Device dst) (Message.Doorbell { queue })
  else Sysbus.notify t.sysbus ~src:t.dev_id ~dst ~queue

let on_device_failed t f = t.failed_watchers <- t.failed_watchers @ [ f ]

let connections t = List.map snd (Detmap.bindings t.conns)
let connection_count t = Hashtbl.length t.conns
let messages_handled t = Metrics.counter_value t.m_handled
let requests_sent t = Metrics.counter_value t.m_sent
let late_responses t = Metrics.counter_value t.m_request_late

let request_retries t = Metrics.counter_value t.m_retries
let requests_gave_up t = Metrics.counter_value t.m_gave_up
let actor t = t.actor

let breaker_state t ~peer =
  match Hashtbl.find_opt t.breakers peer with
  | None | Some { state = Closed; _ } -> `Closed
  | Some { state = Open _; _ } -> `Open
  | Some { state = Half_open; _ } -> `Half_open

let breaker_opens t = Metrics.lazy_value t.m_breaker_opened
let breaker_fast_fails t = Metrics.lazy_value t.m_breaker_fast_fails

let queue_rejections t = Station.jobs_rejected t.station
