module Types = Lastcpu_proto.Types
module Message = Lastcpu_proto.Message
module Token = Lastcpu_proto.Token
module Codec = Lastcpu_proto.Codec
module Wire = Lastcpu_proto.Wire
module Iommu = Lastcpu_iommu.Iommu
module Engine = Lastcpu_sim.Engine
module Station = Lastcpu_sim.Station
module Costs = Lastcpu_sim.Costs
module Metrics = Lastcpu_sim.Metrics
module Faults = Lastcpu_sim.Faults
module Sanitizer = Lastcpu_sim.Sanitizer
module Snapshot = Lastcpu_sim.Snapshot
module Ownership = Lastcpu_sim.Ownership

(* Misbehavior scoring weights and thresholds for the quarantine machine.
   Each class of evidence adds its weight to a per-device score; crossing
   [suspect_score] demotes Trusted -> Suspect (observability only), crossing
   [quarantine_score] fences the device. Legitimate retry storms reuse a
   correlation id, so same-corr privileged repeats only score past
   [replay_allowance]. *)
let suspect_score = 4
let quarantine_score = 10
let bad_token_weight = 3
let malformed_weight = 2
let dma_fault_weight = 2
let replay_weight = 1
let spoof_weight = 4
let replay_allowance = 8

type config = {
  enable_tokens : bool;
  heartbeat_timeout_ns : int64;
  lanes : int;
  lane_capacity : int option;
  device_queue_capacity : int option;
  quarantine : bool;
}

let default_config =
  {
    enable_tokens = true;
    heartbeat_timeout_ns = 0L (* sweeping off *);
    lanes = 1;
    lane_capacity = None (* unbounded *);
    device_queue_capacity = None (* unbounded *);
    quarantine = false (* scoring off: bit-identical to pre-containment *);
  }

type trust = Trusted | Suspect | Quarantined

(* One sender's link to the bus: the frames in flight on it, oldest first,
   and the arrival event, which runs the oldest. Empty whenever the engine
   is quiescent (each frame is a pending volatile event), so checkpoints
   carry nothing for it. *)
type link = { frames : Message.t Queue.t; next : unit -> unit }

type device_slot = {
  name : string;
  iommu : Iommu.t;
  handler : Message.t -> unit;
  port : bool;  (* a link port: [handler] forwards to another shard *)
  mutable live : bool;
  mutable connected : bool;  (* false after fail_device *)
  mutable services : Message.service_desc list;
  mutable last_heartbeat : int64;
  (* Containment bookkeeping. Scored only when [config.quarantine] is set;
     a bus without the policy never touches these. *)
  mutable trust : trust;
  mutable misbehavior : int;
  mutable malformed_frames : int;
  mutable last_priv_corr : int;  (* replay detection: last privileged corr *)
  mutable last_priv_corr_count : int;
  mutable link : link option;  (* made on the device's first frame *)
}

type counters = {
  routed : int;
  broadcasts : int;
  maps_programmed : int;
  unmaps : int;
  token_failures : int;
  undeliverable : int;
  control_bytes : int;
  doorbells_dropped : int;
}

type t = {
  engine : Engine.t;
  config : config;
  lanes : Station.t array;
  mutable devices : device_slot array;
  controller_keys : (Types.device_id * string, Token.key) Hashtbl.t;
  (* Capability epochs, one per device (keyed by the token subject). Absent
     means epoch 0. Revocation bumps the entry; every token minted under an
     older epoch then fails verification without being touched. *)
  epochs : (Types.device_id, int) Hashtbl.t;
  mutable revoke_hooks : (device:Types.device_id -> unit) list;
  actor : string;
  (* Ownership tag for the dynamic shard sanitizer: every ingress entry
     point (send / send_raw / notify) is a guarded access, so a closure
     running on another shard's lane that pokes this bus directly —
     bypassing a link port — trips at the call site. *)
  owner_cell : Ownership.tracker;
  (* Instrument handles into the engine's registry; [counters] rebuilds the
     legacy record from these, so existing call sites read unchanged. *)
  m_routed : Metrics.counter;
  m_broadcasts : Metrics.counter;
  m_maps : Metrics.counter;
  m_unmaps : Metrics.counter;
  m_token_failures : Metrics.counter;
  m_undeliverable : Metrics.counter;
  m_control_bytes : Metrics.counter;
  m_doorbells_dropped : Metrics.counter;
  (* Registered on first use (see [Metrics.lazy_counter]): shedding,
     shard crossings and containment. *)
  m_expired : Metrics.lazy_counter;
  m_boundary_out : Metrics.lazy_counter;
  m_stale_tokens : Metrics.lazy_counter;
  m_malformed : Metrics.lazy_counter;
  m_misbehavior : Metrics.lazy_counter;
  m_fenced : Metrics.lazy_counter;
  m_quarantines : Metrics.lazy_counter;
  m_revocations : Metrics.lazy_counter;
  (* Sanitizer probe: commutative (order-insensitive) digest of every frame
     committed to the wire. Hashes route and payload kind only — corr ids,
     nonces and addresses inside payloads legally permute when same-tick
     events reorder, and hashing them would report benign swaps as races. *)
  mutable frame_digest : int64;
  (* Heartbeat-sweep bookkeeping for checkpoint/restore: [next_sweep] is
     the absolute time of the armed sweep event; bumping [sweep_gen]
     cancels it (the event cannot be unscheduled, but the stale closure
     sees an old generation and does nothing). *)
  mutable next_sweep : int64;
  mutable sweep_gen : int;
  (* The link of frames the bus itself sends (and of any other source
     outside the slot table). *)
  mutable bus_link : link option;
}

let bus_src = -1 (* messages originated by the bus itself *)

let trace t kind fmt = Engine.tracef t.engine ~actor:"bus" ~kind fmt

(* One stable identity per frame: route + payload kind. Triple duty — the
   sanitizer event label, the fault-injection content key, and the frame
   digest contribution. Never includes corr ids or payload bytes (see
   [frame_digest]).

   [frame_desc] renders it as a string; the hot path never calls it.
   Instead [fnv_frame] folds the exact same bytes through the streaming
   FNV, so the digest and fault key keep their historical values with zero
   formatting or allocation per message. The correspondence
   [hash over fnv_frame = hash_string over frame_desc] is pinned by a unit
   test. *)
let frame_desc (msg : Message.t) =
  Printf.sprintf "bus:%d>%s:%s" msg.src
    (Types.dest_to_string msg.dst)
    (Message.payload_tag msg.payload)

let fnv_frame h (msg : Message.t) =
  let h = Sanitizer.fnv_string h "bus:" in
  let h = Sanitizer.fnv_int h msg.src in
  let h = Sanitizer.fnv_char h '>' in
  let h =
    match msg.dst with
    | Types.Device d -> Sanitizer.fnv_int (Sanitizer.fnv_string h "dev") d
    | Types.Bus -> Sanitizer.fnv_string h "bus"
    | Types.Broadcast -> Sanitizer.fnv_string h "broadcast"
  in
  let h = Sanitizer.fnv_char h ':' in
  Sanitizer.fnv_string h (Message.payload_tag msg.payload)

let frame_digest_seed = 0x6672616d65L (* "frame" *)

let frame_hash msg =
  Sanitizer.fnv_finish (fnv_frame (Sanitizer.fnv_init frame_digest_seed) msg)

(* Equals [Faults.key_of_string (frame_desc msg)]. *)
let frame_key msg = Sanitizer.fnv_finish (fnv_frame Faults.key_init msg)

(* Frame commit: digest contribution + delivery event. Only a sanitizing
   engine consumes the label or the digest, so the common path schedules
   the bare closure — no description string, no label thunk. *)
let schedule_frame t msg ~delay fn =
  if Engine.sanitizing t.engine then begin
    t.frame_digest <- Int64.add t.frame_digest (frame_hash msg);
    Engine.schedule ~label:(fun () -> frame_desc msg) t.engine ~delay fn
  end
  else Engine.schedule t.engine ~delay fn

let broadcast_from_bus t payload =
  Array.iteri
    (fun id slot ->
      (* A link port stands for another shard's device: the remote bus owns
         its management traffic, so local broadcasts skip it. *)
      if slot.live && not slot.port then begin
        let msg = Message.make ~src:bus_src ~dst:(Types.Device id) ~corr:0 payload in
        Metrics.incr t.m_broadcasts;
        schedule_frame t msg ~delay:Costs.bus_hop_ns
          (fun () -> if slot.live then slot.handler msg)
      end)
    t.devices

(* [disconnect:false] is the heartbeat sweep's variant: the device is
   declared dead (and consumers told), but the slot stays connected so an
   explicit re-announce — [Device_alive], the same handshake used at boot —
   can re-admit it. A bare [Heartbeat] never can: liveness refresh requires
   [live], and nothing below sets [live] except the announce path. Explicit
   [fail_device]/quarantine keep [disconnect:true]: those need the reset
   line first. *)
let mark_failed ?(disconnect = true) t id =
  let slot = t.devices.(id) in
  if slot.live || slot.connected then begin
    slot.live <- false;
    if disconnect then slot.connected <- false;
    (* Broadcast the failure so consumers can recover (§4). *)
    broadcast_from_bus t (Message.Device_failed { device = id })
  end

(* The heartbeat sweep re-arms itself one period ahead. Static (it exists
   whether or not any workload is pending), so it must not keep
   [Engine.run_until_quiescent] spinning — hence [schedule_static_at]. *)
let rec arm_sweep t ~time =
  t.next_sweep <- time;
  let gen = t.sweep_gen in
  Engine.schedule_static_at t.engine ~time (fun () ->
      if gen = t.sweep_gen then begin
        let now = Engine.now t.engine in
        Array.iteri
          (fun id slot ->
            (* Link ports never heartbeat locally — liveness of the real
               device is the remote bus's job. *)
            if
              slot.live
              && (not slot.port)
              && Int64.sub now slot.last_heartbeat
                 > t.config.heartbeat_timeout_ns
            then begin
              trace t "bus.liveness" "%s (dev%d) timed out" slot.name id;
              mark_failed ~disconnect:false t id
            end)
          t.devices;
        arm_sweep t ~time:(Int64.add now t.config.heartbeat_timeout_ns)
      end)

(* --- containment: epochs, revocation, quarantine ------------------------ *)

let current_epoch t id =
  match Hashtbl.find_opt t.epochs id with Some e -> e | None -> 0

let on_revoke t f = t.revoke_hooks <- t.revoke_hooks @ [ f ]

(* Revoke every capability a device wields: one epoch bump, then the
   cascade. Order matters — the bump comes first so controller teardown
   (the hooks, e.g. memctl unmapping its grants) mints its own directives
   under the *new* epoch and they still verify. The device's IOMMU is then
   cleared per PASID, which shoots down the TLB as a side effect. Stale
   tokens are not chased: they die passively at the next [verify_token]. *)
let revoke t id =
  Hashtbl.replace t.epochs id (current_epoch t id + 1);
  Metrics.bump t.m_revocations;
  trace t "bus.revoke" "dev%d (%s) capabilities revoked, epoch now %d"
    id t.devices.(id).name (current_epoch t id);
  List.iter (fun f -> f ~device:id) t.revoke_hooks;
  let s = t.devices.(id) in
  List.iter (fun pasid -> Iommu.clear_pasid s.iommu ~pasid) (Iommu.pasids s.iommu)

let quarantine_device t id =
  let s = t.devices.(id) in
  if s.trust <> Quarantined then begin
    s.trust <- Quarantined;
    Metrics.bump t.m_quarantines;
    trace t "bus.quarantine" "dev%d (%s) quarantined, score=%d"
      id s.name s.misbehavior;
    revoke t id;
    (* Fence + tell consumers, exactly like a crash: the failure broadcast
       is the recovery signal the PR-2 failover path already understands. *)
    mark_failed t id
  end

(* Operator re-admission: the reset-line -> re-announce handshake, same as
   a fault-plan revive. The slot comes back connected-but-not-live and on
   parole (Suspect, score cleared): only the device's own [Device_alive]
   makes it live again. *)
let release_quarantine t id =
  let s = t.devices.(id) in
  if s.trust = Quarantined then begin
    s.trust <- Suspect;
    s.misbehavior <- 0;
    s.last_priv_corr <- -1;
    s.last_priv_corr_count <- 0;
    s.connected <- true;
    trace t "bus.release-quarantine" "dev%d (%s) released on parole" id s.name;
    s.handler
      (Message.make ~src:bus_src ~dst:(Types.Device id) ~corr:0
         Message.Reset_device)
  end

(* Score one piece of evidence against [src]. No-op unless the bus was
   configured with a quarantine policy, so default-config runs never take
   this path at all. *)
let report_misbehavior t ~src ~weight ~what =
  if t.config.quarantine && src >= 0 && src < Array.length t.devices then begin
    let s = t.devices.(src) in
    if (not s.port) && s.trust <> Quarantined then begin
      s.misbehavior <- s.misbehavior + weight;
      Metrics.bump t.m_misbehavior;
      trace t "bus.misbehavior" "dev%d (%s): %s, score %d"
        src s.name what s.misbehavior;
      if s.misbehavior >= quarantine_score then
        quarantine_device t src
      else if
        s.misbehavior >= suspect_score && s.trust = Trusted
      then begin
        s.trust <- Suspect;
        trace t "bus.suspect" "dev%d (%s) now suspect, score %d"
          src s.name s.misbehavior
      end
    end
  end

let score_bad_token t ~src ~what =
  report_misbehavior t ~src ~weight:bad_token_weight ~what

let score_malformed t ~src ~what =
  report_misbehavior t ~src ~weight:malformed_weight ~what

(* Replay evidence: privileged operations arriving again and again under
   one correlation id. Legitimate [Device.request] retransmits reuse their
   corr (that is how receiver-side dedup works), so the first
   [replay_allowance] repeats are free; past that each repeat scores. *)
let note_privileged_corr t ~src ~corr =
  if t.config.quarantine && src >= 0 && src < Array.length t.devices then begin
    let s = t.devices.(src) in
    if corr = s.last_priv_corr then begin
      s.last_priv_corr_count <- s.last_priv_corr_count + 1;
      if s.last_priv_corr_count > replay_allowance then
        report_misbehavior t ~src ~weight:replay_weight
          ~what:(Printf.sprintf "replayed corr %d (x%d)" corr
                   s.last_priv_corr_count)
    end
    else begin
      s.last_priv_corr <- corr;
      s.last_priv_corr_count <- 1
    end
  end

(* Checkpointing. Saved per slot: liveness, service registry and IOMMU
   contents — everything [Device_alive]/crash handling mutates after
   attach. Controller keys are deliberately excluded: boot re-registers
   them deterministically before any checkpoint can be taken. *)
let save_state t w =
  Snapshot.W.array w
    (fun w (s : device_slot) ->
      Snapshot.W.string w s.name;
      Snapshot.W.bool w s.live;
      Snapshot.W.bool w s.connected;
      Snapshot.W.int64 w s.last_heartbeat;
      Snapshot.W.list w
        (fun w (d : Message.service_desc) ->
          Snapshot.W.string w (Types.service_kind_to_string d.Message.kind);
          Snapshot.W.string w d.Message.name;
          Snapshot.W.varint w d.Message.version)
        s.services;
      Iommu.save w s.iommu)
    t.devices;
  Array.iter (fun lane -> Station.save w lane) t.lanes;
  Snapshot.W.int64 w t.frame_digest;
  Snapshot.W.int64 w t.next_sweep;
  (* Containment state, appended so the layout above keeps its shape. *)
  Snapshot.W.array w
    (fun w (s : device_slot) ->
      Snapshot.W.vint w
        (match s.trust with Trusted -> 0 | Suspect -> 1 | Quarantined -> 2);
      Snapshot.W.vint w s.misbehavior;
      Snapshot.W.vint w s.malformed_frames;
      Snapshot.W.vint w s.last_priv_corr;
      Snapshot.W.vint w s.last_priv_corr_count)
    t.devices;
  Snapshot.W.list w
    (fun w (id, e) ->
      Snapshot.W.vint w id;
      Snapshot.W.vint w e)
    (Lastcpu_sim.Detmap.bindings t.epochs)

let restore_state t r =
  let n = Snapshot.R.varint r in
  if n <> Array.length t.devices then
    invalid_arg
      (Printf.sprintf
         "Sysbus.restore: checkpoint has %d devices, rebuilt bus has %d \
          (mid-run attach is not checkpointable)"
         n
         (Array.length t.devices));
  for id = 0 to n - 1 do
    let slot = t.devices.(id) in
    let name = Snapshot.R.string r in
    if not (String.equal name slot.name) then
      invalid_arg
        (Printf.sprintf "Sysbus.restore: device %d is %s, checkpoint has %s"
           id slot.name name);
    slot.live <- Snapshot.R.bool r;
    slot.connected <- Snapshot.R.bool r;
    slot.last_heartbeat <- Snapshot.R.int64 r;
    slot.services <-
      Snapshot.R.list r (fun r ->
          let kind_s = Snapshot.R.string r in
          let kind =
            match Types.service_kind_of_string kind_s with
            | Some k -> k
            | None ->
              raise (Snapshot.R.Corrupt ("unknown service kind " ^ kind_s))
          in
          let name = Snapshot.R.string r in
          let version = Snapshot.R.varint r in
          { Message.kind; name; version });
    Iommu.restore r slot.iommu
  done;
  Array.iter (fun lane -> Station.restore r lane) t.lanes;
  t.frame_digest <- Snapshot.R.int64 r;
  let next_sweep = Snapshot.R.int64 r in
  let nc = Snapshot.R.varint r in
  if nc <> Array.length t.devices then
    raise (Snapshot.R.Corrupt "containment state device count mismatch");
  for id = 0 to nc - 1 do
    let s = t.devices.(id) in
    (s.trust <-
       (match Snapshot.R.vint r with
       | 0 -> Trusted
       | 1 -> Suspect
       | 2 -> Quarantined
       | n -> raise (Snapshot.R.Corrupt (Printf.sprintf "bad trust tag %d" n))));
    s.misbehavior <- Snapshot.R.vint r;
    s.malformed_frames <- Snapshot.R.vint r;
    s.last_priv_corr <- Snapshot.R.vint r;
    s.last_priv_corr_count <- Snapshot.R.vint r
  done;
  Hashtbl.reset t.epochs;
  List.iter
    (fun (id, e) -> Hashtbl.replace t.epochs id e)
    (Snapshot.R.list r (fun r ->
         let id = Snapshot.R.vint r in
         let e = Snapshot.R.vint r in
         (id, e)));
  (* Re-point the sweep at the interrupted run's schedule. When the saved
     and rebuilt times already agree, the rebuilt sweep event (kept by the
     engine's queue filter) stays armed under the current generation. Runs
     after Engine.restore_state, so the event it schedules is not subject
     to the pending-event filter. *)
  if t.config.heartbeat_timeout_ns > 0L && next_sweep <> t.next_sweep then begin
    t.sweep_gen <- t.sweep_gen + 1;
    arm_sweep t ~time:next_sweep
  end
  else t.next_sweep <- next_sweep

let create ?(config = default_config) ?(shard = 0) engine =
  let m = Engine.metrics engine in
  let actor = Metrics.claim_actor m "bus" in
  let counter name = Metrics.counter m ~actor ~name in
  let lazy_counter name = Metrics.lazy_counter m ~actor ~name in
  let lane_telemetry =
    match config.lane_capacity with None -> None | Some _ -> Some (m, actor)
  in
  let t =
    {
      engine;
      config;
      lanes =
        Array.init (max 1 config.lanes) (fun _ ->
            Station.create ?capacity:config.lane_capacity
              ?telemetry:lane_telemetry engine);
      devices = [||];
      controller_keys = Hashtbl.create 8;
      epochs = Hashtbl.create 8;
      revoke_hooks = [];
      actor;
      owner_cell = Ownership.tracker ~name:("bus:" ^ actor) ~owner:shard;
      m_routed = counter "routed";
      m_broadcasts = counter "broadcasts";
      m_maps = counter "maps_programmed";
      m_unmaps = counter "unmaps";
      m_token_failures = counter "token_failures";
      m_undeliverable = counter "undeliverable";
      m_control_bytes = counter "control_bytes";
      m_doorbells_dropped = counter "doorbells_dropped";
      m_expired = lazy_counter "expired_dropped";
      m_boundary_out = lazy_counter "boundary_out";
      m_stale_tokens = lazy_counter "stale_tokens";
      m_malformed = lazy_counter "malformed_frames";
      m_misbehavior = lazy_counter "misbehavior_reports";
      m_fenced = lazy_counter "messages_fenced";
      m_quarantines = lazy_counter "quarantines";
      m_revocations = lazy_counter "revocations";
      frame_digest = 0L;
      next_sweep = 0L;
      sweep_gen = 0;
      bus_link = None;
    }
  in
  if Engine.sanitizing engine then
    Engine.register_probe engine (fun () -> t.frame_digest);
  Engine.register_snapshot engine ~name:actor
    ~save:(save_state t)
    ~restore:(restore_state t);
  (* Scheduled crash→revive windows from the engine's fault plan. Devices
     attach after [create], so resolve names at fire time, not here. *)
  let faults = Engine.faults engine in
  List.iter
    (fun { Faults.device; at_ns; down_ns } ->
      let find_by_name () =
        let found = ref None in
        Array.iteri
          (fun id s -> if s.name = device && !found = None then found := Some id)
          t.devices;
        !found
      in
      Engine.schedule_static_at engine ~time:at_ns (fun () ->
          match find_by_name () with
          | None -> ()
          | Some id ->
            Faults.note_crash faults;
            trace t "fault.crash" "%s (dev%d) crashed by fault plan" device id;
            mark_failed t id);
      Engine.schedule_static_at engine ~time:(Int64.add at_ns down_ns)
        (fun () ->
          match find_by_name () with
          | None -> ()
          | Some id when t.devices.(id).trust = Quarantined ->
            (* A fault-plan revive is a power cycle, not a pardon: the
               quarantine holds until an operator releases it. *)
            trace t "fault.revive"
              "%s (dev%d) still quarantined, revive ignored" device id
          | Some id ->
            let s = t.devices.(id) in
            Faults.note_revive faults;
            trace t "fault.revive" "%s (dev%d) revived by fault plan" device id;
            s.connected <- true;
            (* Out-of-band reset line: poke the handler directly (the slot
               is not yet live, so a bus message could not reach it) so the
               device reinitialises and reannounces itself. *)
            s.handler
              (Message.make ~src:bus_src ~dst:(Types.Device id) ~corr:0
                 Message.Reset_device)))
    (Faults.crashes faults);
  if config.heartbeat_timeout_ns > 0L then
    arm_sweep t
      ~time:(Int64.add (Engine.now engine) config.heartbeat_timeout_ns);
  t

let engine t = t.engine
let boundary_out t = Metrics.lazy_value t.m_boundary_out

(* Hand a frame to a link port: its handler forwards it to the far shard
   at once, before any hop or lane. Callers account the frame's wire size
   against this bus segment (it does travel up to the port); routing,
   liveness and faults past it are the remote bus's business. *)
let cross t s msg =
  Metrics.bump t.m_boundary_out;
  s.handler msg

let add_slot t ~name ~iommu ~handler ~port =
  let id = Array.length t.devices in
  let slot =
    {
      name;
      iommu;
      handler;
      port;
      (* A link port is born live: the real device announces itself on its
         own bus, and those management frames never cross shards. Local
         liveness checks must not eat frames bound for the port. *)
      live = port;
      connected = true;
      services = [];
      last_heartbeat = 0L;
      trust = Trusted;
      misbehavior = 0;
      malformed_frames = 0;
      last_priv_corr = -1;
      last_priv_corr_count = 0;
      link = None;
    }
  in
  t.devices <- Array.append t.devices [| slot |];
  id

let attach t ~name ~iommu ~handler =
  let id = add_slot t ~name ~iommu ~handler ~port:false in
  (* With a quarantine policy in force, tap the device's IOMMU fault stream:
     an out-of-grant DMA is containment evidence. The device's own fault
     handler (its fault queue) is untouched — this is a read-only observer. *)
  if t.config.quarantine then
    Iommu.add_fault_observer iommu (fun (f : Iommu.fault) ->
        report_misbehavior t ~src:id
          ~weight:dma_fault_weight
          ~what:
            (Printf.sprintf "DMA fault pasid=%d va=0x%Lx" f.Iommu.pasid
               f.Iommu.va));
  id

(* A port owns no translations, so its IOMMU keeps no TLB. *)
let attach_port t ~name ~forward =
  add_slot t ~name ~iommu:(Iommu.create ~no_tlb:true ()) ~handler:forward
    ~port:true

let slot t id =
  if id < 0 || id >= Array.length t.devices then
    invalid_arg (Printf.sprintf "Sysbus: unknown device %d" id)
  else t.devices.(id)

(* Hostile frames can name any device id. Every path that dereferences an
   id taken from a decoded frame must check it here first: an unknown id
   is a protocol error to NACK and count, never an [Invalid_argument]
   unwinding the event loop. *)
let known_device t id = id >= 0 && id < Array.length t.devices

let device_name t id = (slot t id).name
let iommu_of t id = (slot t id).iommu
let is_live t id = (slot t id).live

let live_devices t =
  let acc = ref [] in
  Array.iteri (fun id s -> if s.live then acc := id :: !acc) t.devices;
  List.rev !acc

let register_controller t id ~resource ~key =
  Hashtbl.replace t.controller_keys (id, resource) key

let services_of t id = (slot t id).services

let counters t =
  {
    routed = Metrics.counter_value t.m_routed;
    broadcasts = Metrics.counter_value t.m_broadcasts;
    maps_programmed = Metrics.counter_value t.m_maps;
    unmaps = Metrics.counter_value t.m_unmaps;
    token_failures = Metrics.counter_value t.m_token_failures;
    undeliverable = Metrics.counter_value t.m_undeliverable;
    control_bytes = Metrics.counter_value t.m_control_bytes;
    doorbells_dropped = Metrics.counter_value t.m_doorbells_dropped;
  }

let actor t = t.actor
let stations t = Array.to_list t.lanes
let device_queue_capacity t = t.config.device_queue_capacity

let messages_expired t = Metrics.lazy_value t.m_expired

let messages_rejected t =
  Array.fold_left (fun a s -> a + Station.jobs_rejected s) 0 t.lanes

let lane_for t src =
  (* Hash by source so each device's messages stay ordered. *)
  t.lanes.((max 0 src * 0x9E3779B1) land max_int mod Array.length t.lanes)

(* --- privileged operations ---------------------------------------------- *)

let reply t ~to_ ~corr payload =
  (* Bus-originated response: one hop back, or at once into a link port. *)
  let s = slot t to_ in
  if s.port || s.live then begin
    let msg = Message.make ~src:bus_src ~dst:(Types.Device to_) ~corr payload in
    Metrics.incr t.m_routed;
    Metrics.incr ~by:(Message.wire_size msg) t.m_control_bytes;
    if s.port then cross t s msg
    else
      schedule_frame t msg ~delay:Costs.bus_hop_ns
        (fun () -> if s.live then s.handler msg)
  end

(* Answer a frame the bus cannot deliver with an error from the bus, if
   its sender is a live slot. *)
let bounce t (msg : Message.t) code detail =
  if known_device t msg.src && (slot t msg.src).live then
    reply t ~to_:msg.src ~corr:msg.corr (Message.Error_msg { code; detail })

let verify_token t ~src ~expect_wielder (token : Token.t) =
  if not t.config.enable_tokens then Ok ()
  else begin
    match Hashtbl.find_opt t.controller_keys (token.issuer, token.resource) with
    | None -> Error "issuer is not a registered controller for this resource"
    | Some key ->
      if not (Token.verify ~key token) then Error "bad MAC"
      else if token.epoch <> current_epoch t token.subject then begin
        (* MAC is genuine but the capability generation is over: the subject
           was revoked since mint. Counted apart from forgeries — a burst of
           stale uses is the expected echo of a revocation, not an attack on
           the MAC. *)
        Metrics.bump t.m_stale_tokens;
        Error "stale capability epoch"
      end
      else begin
        match expect_wielder with
        | `Issuer when src <> token.issuer -> Error "sender is not the issuer"
        | `Subject when src <> token.subject -> Error "sender is not the subject"
        | `Issuer | `Subject -> Ok ()
      end
  end

let token_cost t =
  if t.config.enable_tokens then Costs.token_verify_ns
  else 0L

let range_covered ~(token : Token.t) ~base ~bytes =
  base >= token.base && Int64.add base bytes <= Int64.add token.base token.length

let handle_map_directive t ~src ~corr ~device ~pasid ~va ~pa ~bytes ~perm
    ~(auth : Token.t) =
  let fail reason =
    Metrics.incr t.m_token_failures;
    score_bad_token t ~src ~what:("map denied: " ^ reason);
    trace t "bus.map-denied" "%s" reason;
    reply t ~to_:src ~corr
      (Message.Error_msg { code = Types.E_bad_token; detail = reason })
  in
  match verify_token t ~src ~expect_wielder:`Issuer auth with
  | Error reason -> fail reason
  | Ok () ->
    if t.config.enable_tokens && auth.subject <> device then
      fail "token subject does not match target device"
    else if t.config.enable_tokens && auth.pasid <> pasid then
      fail "token pasid mismatch"
    else if t.config.enable_tokens && not (range_covered ~token:auth ~base:pa ~bytes)
    then fail "physical range exceeds token grant"
    else if
      t.config.enable_tokens && not (Types.perm_subsumes auth.perm perm)
    then fail "permissions exceed token grant"
    else if not (known_device t device) then begin
      trace t "bus.map-denied" "no such device %d" device;
      reply t ~to_:src ~corr
        (Message.Error_msg
           {
             code = Types.E_bad_address;
             detail = Printf.sprintf "no such device %d" device;
           })
    end
    else begin
      let target = slot t device in
      match Iommu.map target.iommu ~pasid ~va ~pa ~bytes ~perm with
      | Error reason ->
        trace t "bus.map-failed" "%s" reason;
        reply t ~to_:src ~corr
          (Message.Error_msg { code = Types.E_bad_address; detail = reason });
        reply t ~to_:device ~corr (Message.Map_complete { pasid; va; ok = false })
      | Ok () ->
        let pages = Lastcpu_mem.Layout.pages_of_bytes bytes in
        Metrics.incr ~by:pages t.m_maps;
        trace t "bus.map" "dev%d pasid=%d va=0x%Lx pa=0x%Lx pages=%d"
          device pasid va pa pages;
        reply t ~to_:device ~corr (Message.Map_complete { pasid; va; ok = true });
        if src <> device then
          reply t ~to_:src ~corr (Message.Map_complete { pasid; va; ok = true })
    end

let handle_grant t ~src ~corr ~to_device ~pasid ~va ~bytes ~perm
    ~(auth : Token.t) =
  let fail code reason =
    Metrics.incr t.m_token_failures;
    (if code = Types.E_bad_token then
       score_bad_token t ~src ~what:("grant denied: " ^ reason));
    trace t "bus.grant-denied" "%s" reason;
    reply t ~to_:src ~corr (Message.Error_msg { code; detail = reason })
  in
  match verify_token t ~src ~expect_wielder:`Subject auth with
  | Error reason -> fail Types.E_bad_token reason
  | Ok () ->
    if t.config.enable_tokens && auth.pasid <> pasid then
      fail Types.E_bad_token "token pasid mismatch"
    else if t.config.enable_tokens && not (Types.perm_subsumes auth.perm perm)
    then fail Types.E_bad_token "permissions exceed token grant"
    else if not (known_device t to_device) then
      fail Types.E_bad_address (Printf.sprintf "no such grantee %d" to_device)
    else begin
      (* Replicate the owner's current translations for [va, va+bytes) into
         the grantee's IOMMU, page by page, validating each physical page
         against the token's range. *)
      let owner = slot t src in
      let grantee = slot t to_device in
      let page = Lastcpu_mem.Layout.page_size in
      let npages = Lastcpu_mem.Layout.pages_of_bytes bytes in
      let rec go i =
        if i = npages then begin
          Metrics.incr ~by:npages t.m_maps;
          trace t "bus.grant" "dev%d -> dev%d pasid=%d va=0x%Lx pages=%d"
            src to_device pasid va npages;
          reply t ~to_:src ~corr (Message.Map_complete { pasid; va; ok = true })
        end
        else begin
          let va_i = Int64.add va (Int64.mul (Int64.of_int i) page) in
          match Iommu.translate owner.iommu ~pasid ~va:va_i ~access:Iommu.Read with
          | Iommu.Fault _ ->
            fail Types.E_bad_address "owner has no mapping for granted range"
          | Iommu.Ok_pa pa ->
            if
              t.config.enable_tokens
              && not (range_covered ~token:auth ~base:pa ~bytes:page)
            then fail Types.E_bad_token "granted page outside token range"
            else begin
              match
                Iommu.map grantee.iommu ~pasid ~va:va_i ~pa ~bytes:page ~perm
              with
              | Error reason -> fail Types.E_bad_address reason
              | Ok () -> go (i + 1)
            end
        end
      in
      go 0
    end

let handle_unmap t ~src ~corr ~device ~pasid ~va ~bytes ~(auth : Token.t) =
  let wielder = if t.config.enable_tokens && src = auth.issuer then `Issuer else `Subject in
  match verify_token t ~src ~expect_wielder:wielder auth with
  | Error reason ->
    Metrics.incr t.m_token_failures;
    score_bad_token t ~src ~what:("unmap denied: " ^ reason);
    reply t ~to_:src ~corr
      (Message.Error_msg { code = Types.E_bad_token; detail = reason })
  | Ok () ->
    (* Revocation must be global: the range may have been granted onward,
       so remove the translation from every attached IOMMU, not just the
       named device. *)
    ignore device;
    let removed = ref 0 in
    Array.iter
      (fun s -> removed := !removed + Iommu.unmap s.iommu ~pasid ~va ~bytes)
      t.devices;
    Metrics.incr ~by:!removed t.m_unmaps;
    trace t "bus.unmap" "pasid=%d va=0x%Lx pages=%d (all devices)"
      pasid va !removed;
    reply t ~to_:src ~corr (Message.Map_complete { pasid; va; ok = true })

let handle_bus_message t (msg : Message.t) =
  let src = msg.src in
  match msg.payload with
  | Message.Device_alive { services } ->
    let s = slot t src in
    (* A quarantined slot is also disconnected, but check the trust state
       explicitly: re-admission must go through [release_quarantine]'s
       reset line, never a self-announce. *)
    if s.connected && s.trust <> Quarantined then begin
      s.live <- true;
      s.services <- services;
      s.last_heartbeat <- Engine.now t.engine;
      trace t "bus.alive" "%s (dev%d) with %d services"
        s.name src (List.length services)
    end
  | Message.Heartbeat ->
    let s = slot t src in
    if s.live then s.last_heartbeat <- Engine.now t.engine
  | Message.Map_directive { device; pasid; va; pa; bytes; perm; auth } ->
    note_privileged_corr t ~src ~corr:msg.corr;
    handle_map_directive t ~src ~corr:msg.corr ~device ~pasid ~va ~pa ~bytes
      ~perm ~auth
  | Message.Grant_request { to_device; pasid; va; bytes; perm; auth } ->
    note_privileged_corr t ~src ~corr:msg.corr;
    handle_grant t ~src ~corr:msg.corr ~to_device ~pasid ~va ~bytes ~perm ~auth
  | Message.Unmap_directive { device; pasid; va; bytes; auth } ->
    note_privileged_corr t ~src ~corr:msg.corr;
    handle_unmap t ~src ~corr:msg.corr ~device ~pasid ~va ~bytes ~auth
  | Message.Resource_failed { resource } ->
    trace t "bus.resource-failed" "%s" resource;
    broadcast_from_bus t (Message.Resource_failed { resource })
  | _ ->
    reply t ~to_:src ~corr:msg.corr
      (Message.Error_msg
         { code = Types.E_invalid; detail = "not a privileged operation" })

(* --- transport ----------------------------------------------------------- *)

(* Fault injection on device-originated deliveries. Bus-originated traffic
   (src < 0: replies, [Device_failed] broadcasts, reset lines) models a
   reliable interrupt-like management channel and is exempt — losing the
   failure notification itself would leave consumers with no recovery
   signal at all. Corruption is physical: flip one seeded bit in the CRC-
   framed encoding; the receiver-side checksum catches it and the frame is
   dropped (and counted) rather than delivered mangled. *)
let schedule_delivery t (msg : Message.t) ~delay deliver =
  let faults = Engine.faults t.engine in
  if msg.src < 0 || not (Faults.active faults) then
    schedule_frame t msg ~delay deliver
  else begin
    (* Fault content key: route + payload kind. Deliberately excludes
       [corr] — correlation ids are assigned in issue order, which the
       sanitizer's perturbed replays may legally permute within a tick;
       keying on them would shift fault outcomes and report phantom races.
       Identical same-route messages are distinguished by the occurrence
       counter inside Faults instead. *)
    let key = frame_key msg in
    let corrupted_and_caught =
      Faults.corrupt_message faults ~key
      &&
      let framed = Codec.encode_framed msg in
      let bit = Faults.corrupt_bit faults ~key ~len:(String.length framed) in
      let b = Bytes.of_string framed in
      let i = bit / 8 in
      Bytes.set b i
        (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (bit mod 8))));
      match Codec.decode_framed_result (Bytes.to_string b) with
      | Ok _ -> false
      | Error _ -> true
    in
    if corrupted_and_caught then
      trace t "fault.corrupt" "frame to %s corrupted, CRC mismatch, dropped"
        (Types.dest_to_string msg.dst)
    else if Faults.drop_message faults ~key then
      trace t "fault.msg-loss" "frame to %s lost" (Types.dest_to_string msg.dst)
    else begin
      let delay = Int64.add delay (Faults.message_jitter faults ~key) in
      schedule_frame t msg ~delay deliver;
      if Faults.duplicate_message faults ~key then
        schedule_frame t msg ~delay:(Int64.add delay 1L) deliver
    end
  end

let deliver_unicast t (msg : Message.t) dst =
  let s = slot t dst in
  if Message.expired msg ~now:(Engine.now t.engine) then begin
    (* The deadline passed while the message sat in the lane queue:
       delivering it now cannot help the requester, so shed it here
       rather than spend the target's cycles on it. *)
    Metrics.bump t.m_expired;
    trace t "bus.expired" "%s to dev%d past deadline, shed"
      (Message.payload_tag msg.payload) dst
  end
  else if not s.live then begin
    Metrics.incr t.m_undeliverable;
    (* Bounce an error to the sender so it can recover (§4). *)
    bounce t msg Types.E_device_failed (Printf.sprintf "dev%d is not live" dst)
  end
  else begin
    Metrics.incr t.m_routed;
    schedule_delivery t msg ~delay:Costs.bus_hop_ns (fun () ->
        if s.live then s.handler msg)
  end

let quarantined_src t src =
  src >= 0 && src < Array.length t.devices
  && t.devices.(src).trust = Quarantined

(* A frame reaches the bus: shed it if past its deadline, else queue it
   on its sender's lane for processing, or bounce E_busy from a full one. *)
let arrive t (msg : Message.t) =
  let now = Engine.now t.engine in
  if Message.expired msg ~now then begin
    Metrics.bump t.m_expired;
    trace t "bus.expired" "%s from dev%d past deadline on arrival, shed"
      (Message.payload_tag msg.payload) msg.src
  end
  else begin
    let service =
      let base = Costs.bus_process_ns in
      match msg.payload with
      | Message.Map_directive _ | Message.Grant_request _
      | Message.Unmap_directive _ ->
        (* Privileged ops pay token verification + PTE writes. *)
        Int64.add base (Int64.add (token_cost t) Costs.iommu_program_ns)
      | _ -> base
    in
    let lane = lane_for t msg.src in
    let run () =
      match msg.dst with
      | Types.Bus -> handle_bus_message t msg
      | Types.Device dst -> deliver_unicast t msg dst
      | Types.Broadcast ->
        (* Broadcast scope is the local shard; link ports are skipped (a
           cross-shard fan-out would need a link per shard, which
           Shardlink callers set up explicitly when they want it). *)
        Array.iteri
          (fun id s ->
            if id <> msg.src && s.live && not s.port then begin
              Metrics.incr t.m_broadcasts;
              schedule_delivery t msg ~delay:Costs.bus_hop_ns
                (fun () -> if s.live then s.handler msg)
            end)
          t.devices
    in
    match Station.try_submit lane ~service run with
    | `Accepted -> ()
    | `Rejected ->
      (* Backpressure, not silence: bounce E_busy with a deterministic
         retry-after hint (time for this lane's queue to drain) so the
         sender can pace instead of hammering. *)
      let retry_after_ns = Station.drain_ns lane ~now in
      trace t "bus.busy" "%s from dev%d rejected, retry-after=%Ldns"
        (Message.payload_tag msg.payload) msg.src retry_after_ns;
      bounce t msg Types.E_busy (Message.busy_detail ~retry_after_ns)
  end

(* The sender's link, made on its first frame: its event runs [arrive]. *)
let link_of t src =
  let known = known_device t src in
  match if known then t.devices.(src).link else t.bus_link with
  | Some link -> link
  | None ->
    let frames = Queue.create () in
    let link = { frames; next = (fun () -> arrive t (Queue.pop frames)) } in
    if known then t.devices.(src).link <- Some link
    else t.bus_link <- Some link;
    link

let send_routed t (msg : Message.t) =
  let size = Message.wire_size msg in
  Metrics.incr ~by:size t.m_control_bytes;
  (* The one guarded trace site: even an untraced [tracef] would allocate
     its argument closures on every routed message (96 minor words per
     message against the 68 budget in test_bus.ml), so the branch comes
     first. *)
  if Engine.tracing t.engine then
    Engine.tracef t.engine
      ~actor:(if msg.src >= 0 then device_name t msg.src else "bus")
      ~kind:("msg." ^ Message.payload_tag msg.payload)
      "%s" (Format.asprintf "%a" Message.pp msg);
  match msg.dst with
  | Types.Device dst when not (known_device t dst) ->
    Metrics.incr t.m_undeliverable;
    trace t "bus.undeliverable" "%s to unknown dev%d dropped"
      (Message.payload_tag msg.payload) dst;
    bounce t msg Types.E_bad_address (Printf.sprintf "no such device %d" dst)
  | Types.Device dst when t.devices.(dst).port ->
    (* Cross-shard frame: hand it to the port instead of taking a local
       lane — the destination's station discipline belongs to its shard. *)
    Metrics.incr t.m_routed;
    cross t t.devices.(dst) msg
  | _ ->
  (* One hop to the bus, then the bus's FIFO processor, then delivery.
     The sender's link is FIFO: frames it sends in one tick reach the
     lanes in send order whatever the engine's tie-break, because every
     arrival event runs the oldest frame in flight on that link (the hop
     is a constant latency, so that frame is always one arriving now).
     The hop is not a frame commit (no digest contribution), so only the
     sanitizer label is at stake — branch rather than allocate a thunk. *)
  let link = link_of t msg.src in
  Queue.push msg link.frames;
  if Engine.sanitizing t.engine then
    Engine.schedule
      ~label:(fun () -> frame_desc msg)
      t.engine ~delay:Costs.bus_hop_ns link.next
  else Engine.schedule t.engine ~delay:Costs.bus_hop_ns link.next

(* The quarantine fence: a fenced device's frames never reach a lane. *)
let send t (msg : Message.t) =
  Ownership.touch t.owner_cell;
  if quarantined_src t msg.src then begin
    Metrics.bump t.m_fenced;
    trace t "bus.fenced" "%s from quarantined dev%d dropped"
      (Message.payload_tag msg.payload) msg.src
  end
  else send_routed t msg

(* Raw-byte ingress: the only entry point for bytes whose shape the bus
   does not trust (a compromised device's egress, the fuzzer's mutations).
   Decoding is the typed, never-raising kind; a frame that decodes but
   claims someone else's source address is dropped as spoofing evidence. *)
let send_raw t ~src bytes =
  Ownership.touch t.owner_cell;
  if quarantined_src t src then begin
    Metrics.bump t.m_fenced;
    trace t "bus.fenced" "raw frame from quarantined dev%d dropped" src
  end
  else begin
    match Codec.decode_framed_result bytes with
    | Error reason ->
      (if src >= 0 && src < Array.length t.devices then
         let s = t.devices.(src) in
         s.malformed_frames <- s.malformed_frames + 1);
      Metrics.bump t.m_malformed;
      score_malformed t ~src ~what:("malformed frame: " ^ reason);
      trace t "bus.malformed" "frame from dev%d dropped: %s" src reason
    | Ok msg ->
      if msg.src <> src then begin
        report_misbehavior t ~src ~weight:spoof_weight
          ~what:(Printf.sprintf "spoofed src %d" msg.src);
        trace t "bus.spoofed" "dev%d forged src %d, dropped" src msg.src
      end
      else send t msg
  end

let notify t ~src ~dst ~queue =
  Ownership.touch t.owner_cell;
  if quarantined_src t src then begin
    Metrics.bump t.m_fenced;
    trace t "bus.fenced" "doorbell from quarantined dev%d dropped" src
  end
  else if not (known_device t dst) then begin
    Metrics.incr t.m_doorbells_dropped;
    trace t "bus.doorbell-dropped" "dev%d -> unknown dev%d queue=%d"
      src dst queue
  end
  else begin
  let s = slot t dst in
  if s.port then
    (* A doorbell ringing across the border rides the link port like any
       other frame; the remote bus applies its own doorbell cost and
       liveness check on arrival. *)
    cross t s
      (Message.make ~src ~dst:(Types.Device dst) ~corr:0
         (Message.Doorbell { queue }))
  else if not s.live then begin
    (* A doorbell to a dead device is a write to nowhere: count it so the
       silence is visible in telemetry instead of a mystery hang. *)
    Metrics.incr t.m_doorbells_dropped;
    trace t "bus.doorbell-dropped" "dev%d -> dev%d queue=%d (target not live)"
      src dst queue
  end
  else begin
    let msg =
      Message.make ~src ~dst:(Types.Device dst) ~corr:0
        (Message.Doorbell { queue })
    in
    schedule_frame t msg ~delay:Costs.doorbell_ns
      (fun () -> if s.live then s.handler msg)
  end
  end

(* --- failure injection --------------------------------------------------- *)

let fail_device t id =
  trace t "bus.fail-device" "dev%d (%s)" id (device_name t id);
  mark_failed t id

let revive_device t id =
  let s = slot t id in
  s.connected <- true;
  trace t "bus.revive" "dev%d (%s)" id s.name

(* --- containment observability ------------------------------------------ *)

let trust_of t id = (slot t id).trust
let misbehavior_score t id = (slot t id).misbehavior
let malformed_frames_of t id = (slot t id).malformed_frames

let trust_to_string = function
  | Trusted -> "trusted"
  | Suspect -> "suspect"
  | Quarantined -> "quarantined"

let stale_tokens t = Metrics.lazy_value t.m_stale_tokens
let messages_fenced t = Metrics.lazy_value t.m_fenced
let malformed_total t = Metrics.lazy_value t.m_malformed
let quarantines t = Metrics.lazy_value t.m_quarantines
let revocations t = Metrics.lazy_value t.m_revocations
