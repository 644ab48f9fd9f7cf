(** A pub/sub broker hosted on a smart NIC.

    A second complete application offloaded to a device (§1: "entire
    applications are offloaded"): remote machines subscribe to topics
    (exact or ['*']-suffix prefix patterns) and publish messages; the
    broker fans events out over the simulated network. Retained messages
    are replayed to new subscribers, MQTT-style.

    The broker is deliberately CPU-free end to end: frames arrive at the
    NIC, matching and fan-out run in the NIC's runtime, and events leave
    through the same port. *)

type t

val launch : nic:Lastcpu_devices.Smart_nic.t -> ?start_device:bool -> unit -> t
(** Install the broker as the NIC's packet handler; reachability is
    advertised by the NIC's socket service. [start_device] (default true)
    also starts the NIC device. *)

val subscriptions : t -> int
(** Live (address, pattern) pairs. *)

val topics_retained : t -> int
val published : t -> int
