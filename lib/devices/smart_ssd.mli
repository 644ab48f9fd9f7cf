(** The smart SSD: NAND + FTL + file system, exposed as a bus service.

    Control plane: a {!Lastcpu_proto.Types.File_service} answering
    discovery by file name (Fig. 2 steps 1-4), plus a
    {!Lastcpu_proto.Types.Loader_service} that accepts [Load_image]
    messages and stores images under ["/images/"] (§2.1).

    Data plane: clients attach a VIRTIO queue in shared memory (after
    granting this device access — Fig. 2 step 7) with an [App_message]
    tagged ["vq-attach"], then exchange {!Ssd_proto} requests through it;
    completions are signalled with doorbells both ways. Each request's
    virtual latency includes the NAND operations it actually caused.

    Isolation: each connection carries its own user identity and address
    space; file permission checks happen here, on the device (§4 Access
    Control). *)

type t

val create :
  Lastcpu_bus.Sysbus.t ->
  mem:Lastcpu_mem.Physmem.t ->
  name:string ->
  ?auth_key:Lastcpu_proto.Token.key ->
  unit ->
  t
(** Formats a fresh file system and starts the device. When [auth_key] is
    given, service opens require a valid session token minted by the
    authentication device with that key (params ["user"], token in
    [auth]). *)

val device : t -> Lastcpu_device.Device.t
val id : t -> Lastcpu_proto.Types.device_id
val fs : t -> Lastcpu_fs.Fs.t
(** Direct FS handle — for provisioning in scenario setup and tests only;
    live traffic must use the data plane. *)

val ftl : t -> Lastcpu_flash.Ftl.t

(** Encoding of the ["vq-attach"] body (also used by {!File_client}). *)

val encode_vq_attach :
  queue:int -> base:int64 -> size:int -> pasid:int -> user:string -> string

val decode_vq_attach :
  string -> (int * int64 * int * int * string, string) result

val requests_served : t -> int
