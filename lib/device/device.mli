(** Self-managing device framework (§2.1).

    A device in the CPU-less system must, on its own:
    - run a self-test and announce itself to the bus ([start]);
    - expose its resources as *services* in a standard way, multiplexing
      them into isolated per-client connections ([add_service],
      connection table);
    - communicate autonomously: discover services it needs, open them,
      request memory — all asynchronous, continuation-passing, over the
      bus ([discover], [open_service], [alloc], [grant]);
    - handle its own errors: IOMMU faults are delivered here, not to any
      central entity ([on_fault], §4).

    The framework owns the device's IOMMU and exposes memory only through
    {!dma} views, so application code on a device cannot bypass
    translation. *)

module Types = Lastcpu_proto.Types
module Message = Lastcpu_proto.Message
module Token = Lastcpu_proto.Token
module Iommu = Lastcpu_iommu.Iommu
module Dma = Lastcpu_virtio.Dma

type t

(** Outcome of opening a connection to one of this device's services. *)
type open_accept = {
  connection : int;
  shm_bytes : int64;  (** shared memory the service needs (Fig. 2 step 4) *)
}

type service_impl = {
  desc : Message.service_desc;
  can_serve : query:string -> bool;
      (** does this instance serve e.g. this file name? (Fig. 2 step 2) *)
  on_open :
    client:Types.device_id ->
    pasid:int ->
    auth:Token.t option ->
    params:(string * string) list ->
    (open_accept, Types.error_code) result;
  on_close : connection:int -> unit;
}

val create :
  ?shard:int ->
  Lastcpu_bus.Sysbus.t ->
  mem:Lastcpu_mem.Physmem.t ->
  name:string ->
  unit ->
  t
(** Attach a new device to the bus (not yet live; call [start]). [shard]
    (default the bus's home shard) is the slot's shard affinity — see
    {!Lastcpu_bus.Sysbus.attach}. *)

val id : t -> Types.device_id
val name : t -> string

val bus : t -> Lastcpu_bus.Sysbus.t
val engine : t -> Lastcpu_sim.Engine.t

val dma : t -> pasid:int -> Dma.t
(** This device's translated view of memory for one address space. *)

val add_service : t -> service_impl -> unit
(** Register a service. Before [start] it is announced with the initial
    [Device_alive]; after [start] the device re-announces itself with the
    updated service list (application loaded at runtime). *)

val fresh_connection : t -> int
(** Mint a connection id (for [on_open] implementations). *)

val fresh_queue_id : t -> int
(** Mint a run-unique virtqueue id, prefixed with this device's id. The
    counter is per-device (not a process global) so concurrent experiment
    runs on separate domains stay bit-deterministic. *)

val start : t -> unit
(** Self-test (a short virtual delay), then announce [Device_alive] with
    the registered services (§2.2 System Initialization). *)

val started : t -> bool

val reannounce : t -> unit
(** Immediately resend [Device_alive] — used after a bus-side revive
    (reset recovery, §4) to rejoin the live set. *)

val on_doorbell : t -> queue:int -> (unit -> unit) -> unit
(** Register a handler for data-plane doorbells aimed at [queue]. Doorbells
    with no registered queue fall through to the app handler. *)

val clear_doorbell : t -> queue:int -> unit

val set_app_handler : t -> (Message.t -> unit) -> unit
(** Receives messages the framework does not consume (e.g. [App_message],
    [Doorbell], [Device_failed], [Resource_failed]). *)

val on_fault : t -> (Iommu.fault -> unit) -> unit
(** Device-local fault policy (§4): default is to count and trace. *)

val on_device_failed : t -> (device:Types.device_id -> unit) -> unit
(** Register a watcher for bus [Device_failed] broadcasts. Watchers run
    before the app handler (which still receives the message), so
    supervisors — e.g. a client failing over to another provider — can
    react without stealing the single app-handler slot. *)

val fault_count : t -> int

val enable_heartbeat : t -> period:int64 -> unit
(** Periodically send [Heartbeat] (pairs with the bus's liveness sweep). *)

(** {1 Client-side asynchronous operations}

    All take a continuation; it runs when the response arrives (virtual
    time has advanced by then). *)

val discover :
  t ->
  kind:Types.service_kind ->
  query:string ->
  ?timeout:int64 ->
  ?retries:int ->
  ((Types.device_id * Message.service_desc) option -> unit) ->
  unit
(** Broadcast discovery (Fig. 2 step 1); continuation gets the first
    provider to answer, or [None] once [timeout] (default 1 ms) has expired
    [retries + 1] times (default [retries = 0]). A silent window re-probes
    with the same correlation id — under fault injection the broadcast
    itself can be lost. Re-probes count toward [request_retries]. *)

val open_service :
  t ->
  provider:Types.device_id ->
  service:Message.service_desc ->
  pasid:int ->
  ?auth:Token.t ->
  ?params:(string * string) list ->
  ?timeout:int64 ->
  ?retries:int ->
  ((open_accept, Types.error_code) result -> unit) ->
  unit
(** Fig. 2 step 3/4. [timeout]/[retries] as in {!request}. *)

val close_service : t -> provider:Types.device_id -> connection:int -> unit

val alloc :
  t ->
  memctl:Types.device_id ->
  pasid:int ->
  va:int64 ->
  bytes:int64 ->
  perm:Types.perm ->
  ?timeout:int64 ->
  ?retries:int ->
  ((Token.t, Types.error_code) result -> unit) ->
  unit
(** Fig. 2 steps 5/6: ask the memory controller for memory at [va]; the
    controller authorizes and instructs the bus to program this device's
    IOMMU; the continuation receives the capability token (for later
    grants) once the mapping is complete. *)

val grant :
  t ->
  to_device:Types.device_id ->
  pasid:int ->
  va:int64 ->
  bytes:int64 ->
  perm:Types.perm ->
  auth:Token.t ->
  ?timeout:int64 ->
  ?retries:int ->
  ((unit, Types.error_code) result -> unit) ->
  unit
(** Fig. 2 step 7: extend access to shared memory to another device. *)

val free :
  t ->
  memctl:Types.device_id ->
  pasid:int ->
  va:int64 ->
  bytes:int64 ->
  ((unit, Types.error_code) result -> unit) ->
  unit

val request :
  t ->
  ?deadline_ns:int64 ->
  ?timeout:int64 ->
  ?retries:int ->
  dst:Types.dest ->
  Message.payload ->
  (Message.payload -> unit) ->
  unit
(** Generic correlated request: continuation fires on the first response
    bearing the same correlation id. When [timeout] is given and no
    response arrives in time, the request is retransmitted up to [retries]
    times (default 0) with the same correlation id — idempotent at the
    receiver — under exponential backoff with deterministic jitter; after
    the final timeout the continuation receives a synthetic
    [Error_msg E_busy] — devices must handle unresponsive peers themselves
    (§4 error handling). A response arriving after the give-up is swallowed
    and counted ([late_responses]), never leaked to the app handler.

    [deadline_ns] (absolute virtual time) rides on the message and its
    retransmits: any hop past the deadline sheds the message instead of
    servicing it. With the circuit breaker enabled, a request to a peer
    whose breaker is open completes on the next tick with a synthetic
    [Error_msg E_busy] carrying the remaining window as a retry-after hint,
    without touching the bus; retransmits are likewise suppressed while the
    breaker is open. *)

(** {1 Overload protection} *)

val enable_circuit_breaker : t -> threshold:int -> cooldown_ns:int64 -> unit
(** Arm a per-peer circuit breaker on {!request}: after [threshold]
    consecutive failures to a peer — busy answers, timeout give-ups, or
    the bus bouncing the frame off a dead device — the breaker opens for
    [cooldown_ns] (or the peer's retry-after hint, whichever is longer) and
    new requests fast-fail locally; the first request after the window is a
    half-open probe whose outcome closes or reopens the breaker. Registers
    [breaker_opened]/[breaker_fast_fails] counters under this device's
    actor. Off by default. *)

val breaker_state : t -> peer:Types.device_id -> [ `Closed | `Open | `Half_open ]
(** Current breaker state for a peer (bus = peer [-1]); [`Closed] when the
    breaker is disabled or the peer has never failed. *)

val breaker_opens : t -> int
val breaker_fast_fails : t -> int

val queue_rejections : t -> int
(** Inbound messages rejected because the bounded monitor queue was full
    (only when the system configures [device_queue_capacity]). *)

val send : t -> dst:Types.dest -> Message.payload -> unit
(** Fire-and-forget (no correlation). *)

val reply : t -> to_:Types.device_id -> corr:int -> Message.payload -> unit
(** Answer a request received in the app handler, echoing its correlation
    id so the requester's continuation fires. *)

val doorbell : t -> dst:Types.device_id -> queue:int -> unit
(** Data-plane notification: modelled as a direct memory write (cheap,
    does not transit the bus's message processor — §2.3). Set
    [route_doorbells_via_bus] to conflate planes (the T6 ablation). *)

val route_doorbells_via_bus : t -> bool -> unit

(** {1 Connection table introspection} *)

type connection_info = {
  conn_id : int;
  service : string;
  client : Types.device_id;
  conn_pasid : int;
}

val connections : t -> connection_info list
val connection_count : t -> int

(** {1 Counters}

    Thin reads over the engine registry: the live instruments are
    [actor t]/handled|sent|faults|discover_late (plus the device's IOMMU
    under [actor t ^ ".iommu"]). *)

val messages_handled : t -> int
val requests_sent : t -> int

val late_responses : t -> int
(** Responses that arrived after their request already completed (timed
    out or was answered by a duplicate); swallowed and counted. *)

val request_retries : t -> int
(** Timed-out requests that were retransmitted. *)

val requests_gave_up : t -> int
(** Requests that exhausted all retries and completed with [E_busy]. *)

val actor : t -> string
(** Registry actor name this device claimed (its [name], uniquified). *)
