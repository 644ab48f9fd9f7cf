(** The operator console device (§4 System Maintenance).

    Collects log lines sent by other devices ([App_message] tag ["log"])
    and serves them back to a remote operator ([App_message] tag
    ["log-read"], body = max line count as a decimal string; reply body =
    newline-joined tail). A data-center deployment would reach this over
    the network; here any device (e.g. the NIC relaying a remote operator)
    can query it over the bus. *)

type t

val create :
  Lastcpu_bus.Sysbus.t ->
  mem:Lastcpu_mem.Physmem.t ->
  ?capacity:int ->
  unit ->
  t
(** [capacity] bounds retained lines (default 4096, oldest dropped). *)

val id : t -> Lastcpu_proto.Types.device_id

val log_lines : t -> string list
(** Retained lines, oldest first (local introspection for tests). *)

val lines_received : t -> int
