(** Simulated network: a single switch connecting named endpoints.

    The smart NIC attaches here to serve remote KVS clients (§3: "the NIC
    exposes a KVS interface to other machines over the network"). Delivery
    is scheduled on the simulation engine with a per-link latency plus a
    per-byte serialisation cost from the engine's cost model. Frames to
    unknown endpoints are counted and dropped. *)

type t
type endpoint

val create : ?shard:int -> Lastcpu_sim.Engine.t -> t
(** [shard] (default [0]) is the shard that owns this network in a
    temporally decoupled run: the ownership sanitizer checks that only
    that shard sends on it. Every endpoint is local: traffic between
    shards crosses on the system bus, through [Shardlink]'s proxies. *)

val endpoint : t -> name:string -> endpoint
(** Attach a new endpoint; names must be unique. *)

val address : endpoint -> int

val endpoint_count : t -> int
(** Number of attached endpoints. Useful for minting deterministic
    per-network endpoint names ("client-<n>") without any process-global
    counter, which parallel experiment runs must avoid. *)

val set_receiver : endpoint -> (src:int -> string -> unit) -> unit
(** Frame-arrival handler (at most one; replaces any previous). *)

val send : endpoint -> dst:int -> string -> unit
(** Transmit a frame: it first serialises through the sender's egress port
    (a FIFO station at [net_byte_ns] per byte — concurrent sends from one
    endpoint queue behind each other), then traverses the link
    ([net_link_ns]). In-order per sender. *)

val frames_delivered : t -> int
val frames_dropped : t -> int
val bytes_carried : t -> int
