(** Assembly of a complete CPU-less machine (the paper's Figure 1).

    A built system contains: simulated DRAM, the system management bus, a
    memory controller, one or more smart SSDs and smart NICs, an
    authentication device and an operator console — and no CPU. [boot]
    runs the §2.2 initialization: every device self-tests and announces
    itself; the bus records liveness. *)

module Types = Lastcpu_proto.Types

type spec = {
  seed : int64;
  enable_tokens : bool;
  nic_count : int;
  ssd_count : int;
  accel_count : int;
  memctl_count : int;  (** parallel memory controllers (disaggregation) *)
  bus_lanes : int;  (** control-fabric lanes (1 = classic shared bus) *)
  bus_lane_capacity : int option;
      (** bound each bus lane's queue; [None] (default) = unbounded *)
  device_queue_capacity : int option;
      (** bound each device's request station; [None] (default) = unbounded *)
  with_auth : bool;
  users : (string * string) list;
  with_console : bool;
  fault_plan : Lastcpu_sim.Faults.plan;
      (** seeded chaos plan carried by the engine; {!Lastcpu_sim.Faults.zero}
          (the default) injects nothing *)
  tie : Lastcpu_sim.Engine.tie_break;
      (** same-tick event order; [Fifo] (default) is the determinism
          contract, the other modes drive the ordering sanitizer *)
  sanitize : bool;
      (** journal multi-event ticks for the ordering sanitizer (default
          [false]: zero overhead) *)
  trace : bool;
      (** record the run trace ({!Lastcpu_sim.Engine.trace}); [false]
          (default) records nothing and formats no trace detail *)
  shard : int;
      (** ownership tag of this system's bus and network for the shard
          sanitizer in a temporally decoupled run (default [0]; irrelevant
          outside one) *)
  quarantine : bool;
      (** bus misbehavior scoring + automatic quarantine under the
          {!Lastcpu_bus.Sysbus} quarantine policy; [false] (default)
          disables the policy entirely (bit-identical to pre-containment) *)
}

val default_spec : spec

type t

val build : ?spec:spec -> unit -> t
(** Construct all hardware. Devices begin their self-tests immediately;
    call [boot] to advance virtual time until the system is live. *)

val boot : t -> (unit, string) result
(** Run the engine until every attached device is live, for at most 1 ms
    of virtual time. *)

val engine : t -> Lastcpu_sim.Engine.t
val net : t -> Lastcpu_net.Netsim.t
val bus : t -> Lastcpu_bus.Sysbus.t
val memctl : t -> Lastcpu_devices.Memctl.t
(** The first memory controller. *)

val memctls : t -> Lastcpu_devices.Memctl.t list
val ssd : t -> int -> Lastcpu_devices.Smart_ssd.t
val nic : t -> int -> Lastcpu_devices.Smart_nic.t
val ssds : t -> Lastcpu_devices.Smart_ssd.t list
val nics : t -> Lastcpu_devices.Smart_nic.t list
val auth : t -> Lastcpu_devices.Auth_dev.t option
val console : t -> Lastcpu_devices.Console_dev.t option
val accel : t -> int -> Lastcpu_devices.Accel_dev.t

val fresh_pasid : t -> Types.pasid
(** Allocate an application address-space id. *)

val run_until_quiescent : t -> unit
(** The one drain: run events in time order, stopping as soon as the
    queue holds nothing but statics (at most 10 million events). It does
    not fast-forward through pending fault-plan statics, so a crash
    window scheduled for the future survives bring-up. To reach a given
    virtual time, run the engine with [Engine.run ~until]. *)

val topology : t -> string
(** Figure-1 rendering: devices, their services, and the control-plane
    topology, as text. *)
