module Smart_nic = Lastcpu_devices.Smart_nic
module Device = Lastcpu_device.Device
module Detmap = Lastcpu_sim.Detmap
module Engine = Lastcpu_sim.Engine
module Snapshot = Lastcpu_sim.Snapshot

type t = {
  nic : Smart_nic.t;
  (* (subscriber network address, pattern) — kept as a list per pattern so
     fan-out iterates once per matching pattern. *)
  subs : (string, int list ref) Hashtbl.t;
  retained : (string, string) Hashtbl.t;
  mutable publish_count : int;
  mutable event_count : int;
}

let send_frame t ~dst frame =
  t.event_count <-
    (match frame with
    | Pubsub_proto.Event _ -> t.event_count + 1
    | Pubsub_proto.Response _ -> t.event_count);
  Smart_nic.send_packet t.nic ~dst (Pubsub_proto.encode_frame frame)

let respond t ~dst ~corr reply =
  send_frame t ~dst (Pubsub_proto.Response { corr; reply })

let subscribe t ~src pattern =
  let l =
    match Hashtbl.find_opt t.subs pattern with
    | Some l -> l
    | None ->
      let l = ref [] in
      Hashtbl.replace t.subs pattern l;
      l
  in
  if not (List.mem src !l) then l := src :: !l;
  (* Retained replay: every retained topic the new pattern matches, in
     topic order so replay order never depends on hash internals. *)
  Detmap.iter_sorted
    (fun topic payload ->
      if Pubsub_proto.topic_matches ~pattern topic then
        send_frame t ~dst:src (Pubsub_proto.Event { topic; payload }))
    t.retained

let unsubscribe t ~src pattern =
  match Hashtbl.find_opt t.subs pattern with
  | None -> ()
  | Some l ->
    l := List.filter (fun a -> a <> src) !l;
    if !l = [] then Hashtbl.remove t.subs pattern

let publish t ~topic ~payload ~retain =
  t.publish_count <- t.publish_count + 1;
  if retain then Hashtbl.replace t.retained topic payload;
  let reached = ref [] in
  (* Pattern order decides delivery order on multi-pattern matches; sort it
     so fan-out order is a function of the subscription set alone. *)
  Detmap.iter_sorted
    (fun pattern l ->
      if Pubsub_proto.topic_matches ~pattern topic then
        List.iter
          (fun dst -> if not (List.mem dst !reached) then reached := dst :: !reached)
          !l)
    t.subs;
  List.iter
    (fun dst -> send_frame t ~dst (Pubsub_proto.Event { topic; payload }))
    !reached;
  List.length !reached

(* Checkpoint hook. The subscription and retained tables are broker state
   a rebuild cannot re-derive (they accumulate from client traffic), so a
   restore without them would silently drop every subscriber. Tables are
   written in sorted key order so the section bytes are a function of
   content, never of Hashtbl internals. *)
let save_state t w =
  Snapshot.W.varint w t.publish_count;
  Snapshot.W.varint w t.event_count;
  Snapshot.W.varint w (Hashtbl.length t.subs);
  Detmap.iter_sorted
    (fun pattern l ->
      Snapshot.W.string w pattern;
      Snapshot.W.list w (fun w a -> Snapshot.W.varint w a) !l)
    t.subs;
  Snapshot.W.varint w (Hashtbl.length t.retained);
  Detmap.iter_sorted
    (fun topic payload ->
      Snapshot.W.string w topic;
      Snapshot.W.string w payload)
    t.retained

let restore_state t r =
  t.publish_count <- Snapshot.R.varint r;
  t.event_count <- Snapshot.R.varint r;
  Hashtbl.reset t.subs;
  for _ = 1 to Snapshot.R.varint r do
    let pattern = Snapshot.R.string r in
    let l = Snapshot.R.list r Snapshot.R.varint in
    Hashtbl.replace t.subs pattern (ref l)
  done;
  Hashtbl.reset t.retained;
  for _ = 1 to Snapshot.R.varint r do
    let topic = Snapshot.R.string r in
    let payload = Snapshot.R.string r in
    Hashtbl.replace t.retained topic payload
  done

let launch ~nic ?(start_device = true) () =
  let t =
    {
      nic;
      subs = Hashtbl.create 16;
      retained = Hashtbl.create 16;
      publish_count = 0;
      event_count = 0;
    }
  in
  let dev = Smart_nic.device nic in
  Engine.register_snapshot (Device.engine dev)
    ~name:("pubsub:" ^ Device.actor dev)
    ~save:(save_state t)
    ~restore:(restore_state t);
  if start_device then Device.start (Smart_nic.device nic);
  Smart_nic.on_packet nic (fun ~src frame ->
      match Pubsub_proto.decode_request frame with
      | Error _ -> () (* drop garbage, as a NIC would *)
      | Ok { corr; op } -> (
        match op with
        | Pubsub_proto.Subscribe pattern ->
          if String.length pattern = 0 then
            respond t ~dst:src ~corr (Pubsub_proto.Rejected "empty pattern")
          else begin
            subscribe t ~src pattern;
            respond t ~dst:src ~corr (Pubsub_proto.Acked 0)
          end
        | Pubsub_proto.Unsubscribe pattern ->
          unsubscribe t ~src pattern;
          respond t ~dst:src ~corr (Pubsub_proto.Acked 0)
        | Pubsub_proto.Publish { topic; payload; retain } ->
          let n = publish t ~topic ~payload ~retain in
          respond t ~dst:src ~corr (Pubsub_proto.Acked n)));
  t

let subscriptions t =
  Detmap.fold_sorted (fun _ l acc -> acc + List.length !l) t.subs 0

let topics_retained t = Hashtbl.length t.retained
let published t = t.publish_count
