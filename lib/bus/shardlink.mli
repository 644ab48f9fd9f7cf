(** Cross-shard links: port pairs over the {!Lastcpu_sim.Temporal}
    boundary.

    A link couples one device on shard A with one on shard B through a
    pair of link ports ({!Sysbus.attach_port}). A frame addressed to a
    port is handed to its forwarder, crosses through
    {!Lastcpu_sim.Temporal.post} (arriving at send time + lookahead, at
    the rendezvous closing the sending window), and is re-sent on the
    destination bus with the source rewritten to the far-side port — so
    replies route back over the same link with no special casing.

    Links are point-to-point, like a cabled interconnect port: every frame
    reaching a port is attributed to the link peer on the far side,
    including bus-originated error bounces. *)

module Types = Lastcpu_proto.Types

type t

val create : Lastcpu_sim.Temporal.t -> Sysbus.t array -> t
(** [create temporal buses] couples the buses of a decoupled run. [buses]
    is indexed by shard id and must match the coordinator: one bus per
    shard, each on shard [i]'s engine.
    @raise Invalid_argument on a mismatched array. *)

val link :
  t ->
  a:int * Types.device_id ->
  b:int * Types.device_id ->
  Types.device_id * Types.device_id
(** [link t ~a:(shard_a, dev_a) ~b:(shard_b, dev_b)] couples the two
    devices and returns [(port_on_a, port_on_b)]: shard [a] code sends
    to [port_on_a] to reach [dev_b], and vice versa. The ports are live
    immediately (no [Device_alive] handshake crosses the boundary).
    @raise Invalid_argument if both endpoints are on the same shard. *)
