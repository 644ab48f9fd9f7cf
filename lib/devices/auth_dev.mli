(** The authentication / access-control service device (§4).

    The paper's "roughly equivalent to the 'login' program and 'passwd'
    file on Linux": a small device holding a user table; on a successful
    [Auth_request] it mints a *session capability* (a {!Lastcpu_proto.Token}
    over resource ["session:<user>"]). Services that were configured with
    this device's key (e.g. the smart SSD's [?auth_key]) verify the session
    token locally at open time — key distribution happens once, at system
    assembly, standing in for device provisioning. *)

type t

val create :
  Lastcpu_bus.Sysbus.t ->
  mem:Lastcpu_mem.Physmem.t ->
  ?users:(string * string) list ->
  unit ->
  t
(** [users] are (name, password) pairs. *)

val id : t -> Lastcpu_proto.Types.device_id

val key : t -> Lastcpu_proto.Token.key
(** Verification key to hand to services at assembly time. *)

val auth_attempts : t -> int
val auth_failures : t -> int
