(** Deterministic pseudo-random numbers for the simulation.

    SplitMix64 generator: fast, well-distributed, and splittable so that
    independent subsystems can derive uncorrelated streams from one seed,
    keeping whole-system runs reproducible. *)

type t
(** Mutable generator state. *)

val create : seed:int64 -> t
(** [create ~seed] is a fresh generator. Equal seeds give equal streams. *)

val split : t -> t
(** [split t] derives a new, statistically independent generator and
    advances [t]. Used to give each device its own stream. *)

val state : t -> int64
(** Current stream position, for checkpointing. *)

val set_state : t -> int64 -> unit
(** Restore a position previously read with {!state}: the generator
    continues with exactly the stream it would have produced. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)

val float : t -> float
(** [float t] is uniform in [\[0, 1)]. *)

val exponential : t -> mean:float -> float
(** [exponential t ~mean] samples an exponential distribution. Used for
    inter-arrival times of open workloads. *)

val zipf : t -> n:int -> theta:float -> int
(** [zipf t ~n ~theta] samples ranks in [\[0, n)] with Zipfian skew [theta]
    (YCSB-style key popularity). [theta = 0.] degenerates to uniform. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
