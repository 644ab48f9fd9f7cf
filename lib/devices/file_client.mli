(** Client library for the smart SSD's file service.

    [connect] performs the paper's entire Figure-2 initialization sequence
    on behalf of an application running on some device (typically the smart
    NIC):

    + broadcast-discover which storage service owns the file;
    + open the service (with the user identity / session token);
    + allocate shared memory from the memory controller at a chosen
      virtual address — the bus programs this device's IOMMU;
    + grant the provider access to the shared region (bus re-programs the
      provider's IOMMU for the same virtual addresses);
    + build a VIRTIO queue in the shared region and attach it to the
      provider;

    after which file operations are pure data-plane: request buffers in
    shared memory, descriptor chains, doorbells — no bus messages at all.

    All calls are asynchronous (continuation style); continuations run at
    the virtual time the response is available. *)

module Types = Lastcpu_proto.Types
module Token = Lastcpu_proto.Token

type t

val connect :
  Lastcpu_device.Device.t ->
  memctl:Types.device_id ->
  pasid:int ->
  shm_va:int64 ->
  user:string ->
  path_hint:string ->
  ?auth:Token.t ->
  ?req_timeout:int64 ->
  ?req_retries:int ->
  ((t, string) result -> unit) ->
  unit
(** The queue has 64 descriptors (32 in-flight request slots).
    [req_timeout]/[req_retries] arm each control-plane request of the
    sequence (open, alloc, grant, vq-attach) with a timeout and bounded
    retransmits — used when connecting under fault injection. Default: no
    timeout, as before. *)

val provider : t -> Types.device_id
val connection : t -> int

val request : t -> Ssd_proto.request -> (Ssd_proto.response -> unit) -> unit
(** Queue a raw file operation; queues internally when all slots are in
    flight. *)

(** Convenience wrappers; [Error] carries the provider's message. *)

val create : t -> string -> ((unit, string) result -> unit) -> unit
(** Create a regular file with mode 0o644. *)

val read :
  t -> string -> off:int -> len:int -> ((string, string) result -> unit) -> unit
val write :
  t -> string -> off:int -> string -> ((unit, string) result -> unit) -> unit
val stat :
  t -> string -> ((int * bool, string) result -> unit) -> unit
(** [(size, is_directory)]. *)

val rename : t -> string -> string -> ((unit, string) result -> unit) -> unit
(** Atomic replace of the target when it is a regular file. *)

(** Block-service wrappers (handle-based virtual block devices; handles are
    scoped to this connection): *)

val bopen : t -> string -> ((int, string) result -> unit) -> unit
(** Open (creating if needed) a backing file as a block device of
    512-byte blocks. *)

val bread :
  t -> handle:int -> lba:int -> count:int -> ((string, string) result -> unit) -> unit

val bwrite :
  t -> handle:int -> lba:int -> string -> ((unit, string) result -> unit) -> unit

val bclose : t -> handle:int -> ((unit, string) result -> unit) -> unit

val abort_in_flight : t -> string -> unit
(** Fail every queued and in-flight request with [Err reason] and clear
    them. Called by a supervisor when the provider dies: the used ring
    will never advance, so stranded continuations must be completed
    before failing over. *)

val close : t -> (unit -> unit) -> unit
(** Detach the queue, close the connection and free the shared memory. *)

val save : Lastcpu_sim.Snapshot.W.t -> t -> unit
(** Append the virtqueue driver state, free request-slot pool (in reuse
    order) and completion counter (checkpointing). Must be called at a
    quiescent point — in-flight requests hold continuations a snapshot
    cannot carry. *)

val restore : Lastcpu_sim.Snapshot.R.t -> t -> unit
(** Overwrite a freshly connected client with {!save}d state. Ring memory
    itself returns with the DRAM image; this only rebuilds the driver-local
    view over it.
    @raise Lastcpu_sim.Snapshot.R.Corrupt on malformed input. *)
