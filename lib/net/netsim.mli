(** Simulated network: a single switch connecting named endpoints.

    The smart NIC attaches here to serve remote KVS clients (§3: "the NIC
    exposes a KVS interface to other machines over the network"). Delivery
    is scheduled on the simulation engine with a per-link latency plus a
    per-byte serialisation cost from the engine's cost model. Frames to
    unknown endpoints are counted and dropped. *)

type t
type endpoint

val create : ?shard:int -> Lastcpu_sim.Engine.t -> t
(** [shard] (default [0]) is this network's home shard in a temporally
    decoupled run; endpoints default to it. *)

val home_shard : t -> int

val endpoint : ?shard:int -> t -> name:string -> endpoint
(** Attach a new endpoint; names must be unique. [shard] (default the
    network's home shard) is the endpoint's affinity: a remote-affinity
    endpoint is a {e boundary port} — frames sent to it serialise locally,
    then ride the boundary uplink ({!set_boundary}) instead of the local
    link, and its receiver is never invoked locally. *)

val address : endpoint -> int
val name : endpoint -> string

val shard : endpoint -> int
(** The endpoint's shard affinity. *)

(** {1 Cross-shard boundary} *)

val set_boundary :
  t -> (dst_shard:int -> src:int -> dst:int -> string -> unit) -> unit
(** Wire the cross-shard uplink (once, by the run's shard glue). It
    receives the frame after local serialisation; the glue is responsible
    for carrying it to the destination shard (normally via
    {!Lastcpu_sim.Temporal.post}) and handing it to that shard's network
    with {!inject}. [src] and [dst] are this network's address space; the
    glue rewrites them for the far side.
    @raise Invalid_argument if already wired. *)

val inject : t -> src:int -> dst:int -> string -> unit
(** Deliver a frame that arrived from another shard directly to local
    endpoint [dst] (counted as delivered/dropped exactly like local
    traffic). *)

val boundary_out : t -> int
(** Frames handed to the boundary uplink so far (a
    {!Lastcpu_sim.Metrics.lazy_counter}). *)

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

val broadcast : endpoint -> string -> unit
(** Deliver to every other endpoint. *)

val frames_delivered : t -> int
val frames_dropped : t -> int
val bytes_carried : t -> int
