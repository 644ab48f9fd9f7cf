(** The paper's §3 end-to-end example, orchestrated and checkable.

    [run] boots a system, provisions the data directory on the smart SSD,
    launches the KVS application on the smart NIC (which performs the
    Figure-2 initialization sequence against the SSD, the memory controller
    and the bus), then optionally drives a few operations.

    [figure2_steps] extracts from the run trace the seven-step message
    sequence of Figure 2, in order, so tests and the CLI can compare
    it against the paper; the run must be traced ([spec.trace]). *)

type outcome = {
  system : System.t;
  app : Lastcpu_kv.Kv_app.t;
  boot_ns : int64;  (** virtual time when the app finished initialization *)
}

val boot : System.spec -> (System.t, string) result
(** [run]'s first half: build the system, provision [/kv] on ssd0 and
    boot. For machines that launch the KVS their own way. *)

val provision : System.t -> int -> unit
(** Create the world-writable [/kv] data directory on SSD [i].
    @raise Invalid_argument if it cannot. *)

val run :
  ?spec:System.spec -> ?smoke_ops:int -> unit -> (outcome, string) result
(** [boot], then launch the KVS on nic0 with its log at [/kv/data.log]
    and drain to quiescence; [smoke_ops] (default 3) put/get pairs
    executed after bring-up prove the data path. *)

type step = {
  n : int;  (** 1-7, paper numbering *)
  description : string;
  kind : string;  (** trace kind, e.g. "msg.discover-req" *)
  at_ns : int64;
}

val figure2_steps : outcome -> step list
(** The seven steps in trace order; fewer than seven indicates a broken
    bring-up (tests assert all seven, in order).
    @raise Invalid_argument unless the run was built with
    [spec.trace = true]. *)

val pp_steps : Format.formatter -> step list -> unit
