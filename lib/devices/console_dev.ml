module Types = Lastcpu_proto.Types
module Message = Lastcpu_proto.Message
module Device = Lastcpu_device.Device

type t = {
  dev : Device.t;
  capacity : int;
  mutable lines : string list;  (* newest first *)
  mutable count : int;
  mutable received : int;
}

let trim t =
  if t.count > t.capacity then begin
    let rec keep n = function
      | [] -> []
      | _ when n = 0 -> []
      | x :: rest -> x :: keep (n - 1) rest
    in
    t.lines <- keep t.capacity t.lines;
    t.count <- t.capacity
  end

let create sysbus ~mem ?(capacity = 4096) () =
  let dev = Device.create sysbus ~mem ~name:"console" () in
  let t = { dev; capacity; lines = []; count = 0; received = 0 } in
  Device.add_service dev
    {
      desc =
        { Message.kind = Types.Console_service; name = "console.ops"; version = 1 };
      can_serve = (fun ~query:_ -> true);
      on_open =
        (fun ~client:_ ~pasid:_ ~auth:_ ~params:_ ->
          Ok { Device.connection = Device.fresh_connection dev; shm_bytes = 0L });
      on_close = (fun ~connection:_ -> ());
    };
  Device.set_app_handler dev (fun msg ->
      match msg.Message.payload with
      | Message.App_message { tag = "log"; body } ->
        t.received <- t.received + 1;
        t.lines <- body :: t.lines;
        t.count <- t.count + 1;
        trim t
      | Message.App_message { tag = "log-read"; body } ->
        let n =
          match int_of_string_opt body with Some n when n > 0 -> n | _ -> 100
        in
        let rec take k = function
          | [] -> []
          | _ when k = 0 -> []
          | x :: rest -> x :: take (k - 1) rest
        in
        let tail = List.rev (take n t.lines) in
        Device.reply dev ~to_:msg.Message.src ~corr:msg.Message.corr
          (Message.App_message { tag = "log-data"; body = String.concat "\n" tail })
      | _ -> ());
  (* Checkpoint: the ring of log lines (newest first, order preserved) and
     the receive counter. *)
  let module Snapshot = Lastcpu_sim.Snapshot in
  Lastcpu_sim.Engine.register_snapshot (Device.engine dev)
    ~name:(Device.actor dev)
    ~save:(fun w ->
      Snapshot.W.varint w t.received;
      Snapshot.W.list w (fun w line -> Snapshot.W.string w line) t.lines)
    ~restore:(fun r ->
      t.received <- Snapshot.R.varint r;
      t.lines <- Snapshot.R.list r Snapshot.R.string;
      t.count <- List.length t.lines;
      trim t);
  Device.start dev;
  t

let id t = Device.id t.dev
let log_lines t = List.rev t.lines
let lines_received t = t.received
