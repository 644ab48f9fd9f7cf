(** The smart NIC: a programmable network device that hosts application
    logic (§3: the KVS "operations ... are processed in a smart-NIC").

    The NIC bridges two worlds:
    - the simulated network ({!Lastcpu_net.Netsim}), where remote clients
      send requests;
    - the CPU-less system, where the hosted application uses the device
      framework to discover and consume services (files on the SSD, memory
      from the controller).

    It announces a {!Lastcpu_proto.Types.Socket_service} so other devices
    can discover the network path, and hands received frames to the hosted
    application's packet handler. *)

type t

val create :
  Lastcpu_bus.Sysbus.t ->
  mem:Lastcpu_mem.Physmem.t ->
  net:Lastcpu_net.Netsim.t ->
  name:string ->
  unit ->
  t
(** The NIC does not announce itself: a hosted application adds its own
    services first, then calls [Device.start (device t)]. *)

val device : t -> Lastcpu_device.Device.t
val id : t -> Lastcpu_proto.Types.device_id

val endpoint_address : t -> int
(** Network address of this NIC on the simulated switch. *)

val on_packet : t -> (src:int -> string -> unit) -> unit
(** Install the hosted application's receive path. *)

val send_packet : t -> dst:int -> string -> unit
