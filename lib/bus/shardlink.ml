(* Cross-shard links: port pairs over the Temporal boundary.

   A link couples one device on shard A with one device on shard B by
   attaching a link port on each side (Sysbus.attach_port): P on A's bus
   standing for the remote device, Q on B's bus standing for the local one.
   A port's handler is its forwarder: the bus hands it every frame
   addressed to the port, and it re-sends the frame through Temporal.post,
   so it is delivered on the destination shard's engine at send time +
   lookahead, at the rendezvous closing the sending window.

   On arrival the frame is rebuilt with the source rewritten to the
   destination-side port: real_b sees requests "from Q" and replies to Q,
   which routes straight back across the same link. Links are
   point-to-point: every frame reaching port P is attributed to the link
   peer (including bus-originated error bounces, src = -1), matching how a
   cabled interconnect port behaves — whatever leaves through the port
   arrives from the paired port on the far side. *)

module Message = Lastcpu_proto.Message
module Types = Lastcpu_proto.Types
module Temporal = Lastcpu_sim.Temporal

type t = {
  temporal : Temporal.t;
  buses : Sysbus.t array;  (* indexed by shard id *)
}

let create temporal buses =
  if Array.length buses <> Temporal.shard_count temporal then
    invalid_arg "Shardlink.create: one bus per shard required";
  Array.iteri
    (fun i bus ->
      if not (Sysbus.engine bus == Temporal.engine temporal i) then
        invalid_arg
          (Printf.sprintf
             "Shardlink.create: bus at index %d not on shard %d's engine" i i))
    buses;
  { temporal; buses }

(* The forwarder of a port on [src_shard] standing for [real] on
   [dst_shard]; [far] is the port on [dst_shard] that the frame arrives
   from. *)
let forward t ~src_shard ~dst_shard ~real ~far (msg : Message.t) =
  let msg' =
    Message.make ?deadline_ns:msg.deadline_ns ~src:(Lazy.force far)
      ~dst:(Types.Device real) ~corr:msg.corr msg.payload
  in
  let dst_bus = t.buses.(dst_shard) in
  Temporal.post
    ~label:(fun () -> "xshard:" ^ Sysbus.frame_desc msg')
    t.temporal ~src:src_shard ~dst:dst_shard
    (fun () -> Sysbus.send dst_bus msg')

let link t ~a:(shard_a, dev_a) ~b:(shard_b, dev_b) =
  if shard_a = shard_b then
    invalid_arg "Shardlink.link: endpoints must be on different shards";
  let bus_a = t.buses.(shard_a) and bus_b = t.buses.(shard_b) in
  let name_a = Sysbus.device_name bus_a dev_a
  and name_b = Sysbus.device_name bus_b dev_b in
  (* Each forwarder names the other port, which exists by the time any
     frame crosses. *)
  let rec port_on_a =
    lazy
      (Sysbus.attach_port bus_a
         ~name:(Printf.sprintf "link:%s@%d" name_b shard_b)
         ~forward:
           (forward t ~src_shard:shard_a ~dst_shard:shard_b ~real:dev_b
              ~far:port_on_b))
  and port_on_b =
    lazy
      (Sysbus.attach_port bus_b
         ~name:(Printf.sprintf "link:%s@%d" name_a shard_a)
         ~forward:
           (forward t ~src_shard:shard_b ~dst_shard:shard_a ~real:dev_a
              ~far:port_on_a))
  in
  let port_on_a = Lazy.force port_on_a in
  (port_on_a, Lazy.force port_on_b)
