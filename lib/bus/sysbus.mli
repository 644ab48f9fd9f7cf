(** The system management bus: the privileged control plane (§2.2).

    The bus is mechanism, not policy:
    - it routes control messages between devices (unicast + broadcast
      discovery) with a FIFO queueing model of its message processor;
    - it tracks device liveness from [Device_alive]/[Heartbeat] messages and
      broadcasts [Device_failed] on timeout or explicit failure (§4);
    - it performs the only privileged operation in the system — programming
      a device's IOMMU — and only when instructed by the controller of the
      resource, proven by a capability token it verifies against the
      controller's registered key.

    No entity sees the whole system: the bus holds no allocation tables, no
    file tables, no application state — only liveness, routes and keys. *)

module Types = Lastcpu_proto.Types
module Message = Lastcpu_proto.Message
module Token = Lastcpu_proto.Token
module Iommu = Lastcpu_iommu.Iommu

type t

(** {2 Quarantine policy}

    The one policy the bus scores misbehavior with when [config.quarantine]
    is set: each piece of evidence adds its class's weight to the sender's
    score, and a score reaching [quarantine_score] fences the device. *)

val quarantine_score : int
(** score at which the device is fenced *)

val bad_token_weight : int
(** forged, stale or miswielded capability token *)

val dma_fault_weight : int
(** out-of-grant DMA (IOMMU fault observer) *)

val replay_weight : int
(** privileged corr replays past the allowance *)

val spoof_weight : int
(** frame claiming another device's source *)

type config = {
  enable_tokens : bool;
      (** verify capability tokens (ablation: T1 --no-tokens) *)
  heartbeat_timeout_ns : int64;
      (** declare a device dead after this silence; 0 disables sweeping *)
  lanes : int;
      (** parallel message processors (a switched control fabric instead of
          one shared bus); messages hash by source device. Default 1. *)
  lane_capacity : int option;
      (** bound each lane's queue; a full lane rejects the message and the
          bus bounces [Error_msg E_busy] with a retry-after hint to the
          sender. [None] (default) keeps the historical unbounded queue. *)
  device_queue_capacity : int option;
      (** advisory bound devices apply to their own request stations (read
          via {!device_queue_capacity}); [None] (default) = unbounded. *)
  quarantine : bool;
      (** misbehavior scoring and automatic quarantine under the policy
          above. [false] (default) disables scoring
          entirely: no counters register, no observers attach, and runs
          are bit-identical to pre-containment builds. *)
}

val default_config : config

val create : ?config:config -> ?shard:int -> Lastcpu_sim.Engine.t -> t
(** [shard] (default [0]) is this bus's home shard id in a temporally
    decoupled run; attached slots default to it. Single-shard runs never
    need to pass it. *)

val engine : t -> Lastcpu_sim.Engine.t

val home_shard : t -> int

(** {1 Attachment and liveness} *)

val attach :
  ?shard:int ->
  t ->
  name:string ->
  iommu:Iommu.t ->
  handler:(Message.t -> unit) ->
  Types.device_id
(** Physically connect a device. It is not live (routable) until its
    [Device_alive] is processed. The handler runs at message-delivery time.

    [shard] (default the bus's home shard) is the slot's shard affinity.
    A slot whose affinity differs from the home shard is a {e boundary
    proxy}: frames addressed to it are handed to the boundary mailbox (see
    {!set_boundary}) instead of a local station, its handler is never
    invoked, and local broadcasts and the heartbeat sweep skip it. *)

val device_name : t -> Types.device_id -> string

val device_shard : t -> Types.device_id -> int
(** The slot's shard affinity (the home shard for ordinary devices). *)

val iommu_of : t -> Types.device_id -> Iommu.t
(** The IOMMU the bus programs for this slot. Read-only introspection for
    containment assertions (pair with {!Iommu.probe} /
    {!Iommu.iter_mappings}); devices keep their own handle from attach. *)

val is_remote : t -> Types.device_id -> bool
(** Whether the slot is a boundary proxy (affinity differs from home). *)

val is_live : t -> Types.device_id -> bool
val live_devices : t -> Types.device_id list

(** {1 Cross-shard boundary}

    In a temporally decoupled run ({!Lastcpu_sim.Temporal}) every
    cross-shard interaction leaves this bus through one funnel: the
    boundary mailbox. [send], [reply], [notify] and unicast delivery all
    divert to it when the destination slot's affinity is remote, so no
    local station ever queues work for another shard's state — the
    decoupling invariant the D006 lint rule enforces at call sites. *)

val set_boundary : t -> (dst_shard:int -> Message.t -> unit) -> unit
(** Wire the cross-shard mailbox (done once, by [Shardlink.create]).
    @raise Invalid_argument if already wired. *)

val boundary_out : t -> int
(** Frames handed to the boundary mailbox so far (a
    {!Lastcpu_sim.Metrics.lazy_counter}). *)

val register_controller :
  t -> Types.device_id -> resource:string -> key:Token.key -> unit
(** A resource controller (e.g. the memory controller for "dram") deposits
    its token-verification key at the bus. Minting stays on the device; the
    bus can only verify. *)

val fail_device : t -> Types.device_id -> unit
(** Hard failure injection: stop delivering to the device, mark dead and
    broadcast [Device_failed] (§4). *)

val revive_device : t -> Types.device_id -> unit
(** Reconnect after a reset: the device must re-announce [Device_alive]. *)

(** {1 Containment: capability epochs, revocation, quarantine}

    Every capability token carries the epoch of its subject at mint time,
    covered by the MAC. The bus keeps the authoritative per-device epoch
    table; {!revoke} bumps it and cascades — registered revoke hooks run
    (the memory controller tears down its grants), then the device's IOMMU
    is cleared per PASID with TLB shootdown. Outstanding stale tokens die
    passively: the next {!val-send} of a privileged operation fails
    verification with ["stale capability epoch"], counted in
    [stale_tokens] and NACKed [E_bad_token].

    When [config.quarantine] is set, the bus also scores misbehavior per
    device (bad tokens, malformed frames at the raw ingress, out-of-grant
    DMA faults, replayed privileged correlation ids, spoofed sources) and
    walks the slot [Trusted -> Suspect -> Quarantined]. A quarantined
    device is fenced from routing, its capabilities revoked, and its
    failure broadcast so consumers fail over. Re-admission is only via
    {!release_quarantine} — the reset-line -> re-announce handshake — never
    a bare [Heartbeat] or self-announce. *)

type trust = Trusted | Suspect | Quarantined

val current_epoch : t -> Types.device_id -> int
(** The device's capability epoch (0 until first revocation). Controllers
    read this when minting so their tokens verify. *)

val revoke : t -> Types.device_id -> unit
(** Revoke every capability the device wields: bump its epoch, run the
    revoke hooks, clear its IOMMU (all PASIDs, TLB shot down). *)

val on_revoke : t -> (device:Types.device_id -> unit) -> unit
(** Register a revocation-cascade hook (e.g. the memory controller frees
    the device's allocations). Hooks run in registration order, inside
    {!revoke}, after the epoch bump — directives they mint under the new
    epoch verify. *)

val release_quarantine : t -> Types.device_id -> unit
(** Operator re-admission: the slot reconnects on parole ([Suspect], score
    cleared) and receives the reset line; only its own re-announce makes it
    live. No-op if the device is not quarantined. *)

val trust_of : t -> Types.device_id -> trust
val trust_to_string : trust -> string
val misbehavior_score : t -> Types.device_id -> int

val malformed_frames_of : t -> Types.device_id -> int
(** Undecodable frames this device pushed through {!send_raw}. *)

val stale_tokens : t -> int
(** Token verifications that failed only on the epoch check. *)

val messages_fenced : t -> int
(** Frames from quarantined devices dropped at the fence. *)

val malformed_total : t -> int
val quarantines : t -> int
val revocations : t -> int

(** {1 Messaging} *)

val send : t -> Message.t -> unit
(** Submit a message; it traverses src->bus, queues at the bus processor,
    then bus->dst. Messages to dead devices turn into [Error_msg
    E_device_failed] back to the sender. [dst = Bus] messages are handled by
    the privileged logic below.

    Overload behavior: if the message carries a [deadline_ns] that has
    passed (on arrival at the bus, or by the time its lane would deliver
    it), it is shed and counted in the bus's [expired_dropped] counter.
    If the lane's queue is full ([lane_capacity]), the message is rejected
    and the sender gets [Error_msg E_busy] whose detail carries a
    deterministic retry-after hint ({!Message.retry_after_of_detail}). *)

val send_raw : t -> src:Types.device_id -> string -> unit
(** Raw-byte ingress for untrusted egress traffic (a compromised device,
    the protocol fuzzer): CRC-framed bytes are decoded with the typed
    never-raising codec. Undecodable frames are dropped and counted
    (per-device {!malformed_frames_of} + the bus [malformed_frames]
    counter); frames whose decoded [src] differs from the physical [src]
    are dropped as spoofing; well-formed frames proceed exactly as
    {!val-send}. *)

(** {1 Privileged operations (performed on [dst = Bus] messages)}

    - [Device_alive]: mark live, record services.
    - [Heartbeat]: refresh liveness.
    - [Map_directive]: verify the token (issuer key, subject, pasid, range,
      perm), then program the target device's IOMMU and reply
      [Map_complete].
    - [Grant_request]: verify the token, read the *owner's* current
      mappings for the range, and replicate them into the target device's
      IOMMU at the same virtual addresses (same address space — §3 step 7).
    - [Unmap_directive]: verify and remove mappings + TLB entries.
    - [Discover_request] arrives with [dst = Broadcast] and is fanned out
      to all live devices except the source. *)

val services_of : t -> Types.device_id -> Message.service_desc list
(** Services announced in the device's last [Device_alive]. *)

(** {1 Counters} *)

type counters = {
  routed : int;  (** unicast messages delivered *)
  broadcasts : int;  (** broadcast fan-out deliveries *)
  maps_programmed : int;  (** pages mapped via directives/grants *)
  unmaps : int;
  token_failures : int;
  undeliverable : int;
  control_bytes : int;  (** wire bytes through the bus *)
  doorbells_dropped : int;  (** doorbells to non-live devices, swallowed *)
}

val counters : t -> counters
(** Snapshot of the bus's registry counters as the legacy record. The
    live values are the [actor t] instruments in [Engine.metrics]. *)

val actor : t -> string
(** Registry actor name this bus claimed (["bus"], or ["bus#2"], … when
    several buses share an engine). *)

val station : t -> Lastcpu_sim.Station.t
(** The bus's first message processor. *)

val stations : t -> Lastcpu_sim.Station.t list
(** Every lane's message processor, in lane order. *)

val device_queue_capacity : t -> int option
(** The configured advisory bound for device request stations; devices
    consult this at creation time. *)

val messages_expired : t -> int
(** Messages shed because their deadline passed in transit. *)

val messages_rejected : t -> int
(** Messages bounced with [E_busy] because a lane queue was full. *)

val notify : t -> src:Types.device_id -> dst:Types.device_id -> queue:int -> unit
(** Data-plane doorbell: an MSI-style memory write (§2.3 Notifications).
    Delivered directly with only the doorbell cost — it does not occupy the
    bus's message processor. Dropped if the target is not live. *)

(** {1 Frame digest contract}

    The sanitizer's bus probe digests every scheduled frame. The digest is
    defined over the frame description string [frame_desc], but the hot
    path never formats it: [frame_hash]/[frame_key] stream the same bytes
    through the {!Lastcpu_sim.Sanitizer} fnv fold. The equivalences
    [frame_hash msg = Sanitizer.hash_string frame_digest_seed
    (frame_desc msg)] and [frame_key msg = Faults.key_of_string
    (frame_desc msg)] are pinned by unit tests; exposed here so the tests
    can state them verbatim. *)

val frame_desc : Message.t -> string
(** ["bus:<src>><dst>:<payload-tag>"] — the canonical frame description. *)

val frame_digest_seed : int64
(** Seed of the frame digest hash (the bytes of ["frame"]). *)

val frame_hash : Message.t -> int64
(** Streaming hash of [frame_desc msg] under [frame_digest_seed]. *)

val frame_key : Message.t -> int64
(** Streaming fault-injection key of [frame_desc msg]; equals
    [Lastcpu_sim.Faults.key_of_string (frame_desc msg)]. *)
