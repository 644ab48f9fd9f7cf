(** The complete §3 application: a key-value store hosted on the smart NIC,
    persisting through the smart SSD, serving remote network clients.

    [launch] performs the whole bring-up: announce a
    {!Lastcpu_proto.Types.Kv_service} on the NIC, run the Figure-2
    initialization against the SSD ({!Lastcpu_devices.File_client.connect}),
    create/recover the write-ahead log, and install the network fast path.
    After that the CPU... does not exist, and nothing misses it. *)

module Types = Lastcpu_proto.Types

type t

val launch :
  nic:Lastcpu_devices.Smart_nic.t ->
  memctl:Types.device_id ->
  pasid:int ->
  shm_va:int64 ->
  user:string ->
  log_path:string ->
  ?auth:Lastcpu_proto.Token.t ->
  ?start_device:bool ->
  ?req_timeout:int64 ->
  ?req_retries:int ->
  ?supervisor:(unit -> int * int64) ->
  unit ->
  ((t, string) result -> unit) ->
  unit
(** [start_device] (default true) also starts the NIC device; pass [false]
    if it was already started. The log file is created on first launch and
    replayed on relaunch.

    [req_timeout]/[req_retries] arm the attach's control-plane requests
    (see {!Lastcpu_devices.File_client.connect}).

    [supervisor], when given, watches for the storage provider's
    [Device_failed] broadcast and fails over: in-flight file ops are
    aborted, incoming KV ops are parked, the Figure-2 attach is re-run
    against whichever file service now answers discovery (with backoff
    between attempts), the store is recovered there and the parked ops are
    drained. The callback supplies a fresh [(pasid, shm_va)] for each
    attach attempt. Failovers are counted in the registry
    ([<actor>/failovers]). The dead provider's log is not migrated — the
    supervisor restores availability, not that device's data. *)

val store : t -> Store.t
val client : t -> Lastcpu_devices.File_client.t
val ops_served : t -> int
val recovered_records : t -> int

val failovers : t -> int
(** Provider failovers performed by the supervisor (0 without one). *)

val local_op : t -> Kv_proto.op -> (Kv_proto.reply -> unit) -> unit
(** Execute an operation directly (console/examples), same path as network
    requests minus the network. Counts as control traffic: never subject to
    the overload policy (priority admission — supervisor and recovery work
    must get through even when clients are being shed). *)

(** {1 Overload protection} *)

val set_overload_policy : t -> max_pending:int -> unit
(** Bound the client-op admission window: network requests beyond
    [max_pending] concurrently admitted ops are answered immediately with
    [Failed "busy; retry-after=..."] (a deterministic hint: admitted window
    x flash page-program time) instead of queueing toward the WAL. Registers
    [shed] and [goodput] counters under this app's actor. Off by default. *)

val ops_shed : t -> int
(** Client ops refused at the door by the overload policy. *)
