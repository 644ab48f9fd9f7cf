(** Online statistics for simulation measurements.

    Two collectors: a Welford accumulator for mean/variance and a
    log-bucketed histogram for percentiles over latencies spanning many
    orders of magnitude (nanoseconds to seconds). *)

module Summary : sig
  type t
  (** Mean/variance accumulator (Welford's algorithm). *)

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  (** Mean of observations; [0.] when empty. *)

  val variance : t -> float
  (** Unbiased sample variance; [0.] with fewer than two observations. *)

  val min : t -> float
  val max : t -> float
  val total : t -> float
  val merge : t -> t -> t
  (** [merge a b] is a summary equivalent to having observed both streams. *)

  val save : Snapshot.W.t -> t -> unit
  (** Append the accumulator's exact state (checkpointing). *)

  val restore : Snapshot.R.t -> t -> unit
  (** Overwrite the accumulator with state written by {!save}. *)
end

module Histogram : sig
  type t
  (** Log-bucketed histogram: buckets grow geometrically so that relative
      error is bounded (~2.4% with the default 30 buckets per decade). *)

  val create : unit -> t
  val add : t -> float -> unit
  (** [add h v] records [v]; non-positive values land in an underflow
      bucket. *)

  val count : t -> int
  val percentile : t -> float -> float
  (** [percentile h p] for [p] in [\[0, 100\]]; returns the upper edge of the
      bucket holding the p-th observation, [0.] when empty. *)

  val mean : t -> float
  val merge : t -> t -> t

  val save : Snapshot.W.t -> t -> unit
  (** Append the histogram (sparse bucket encoding) for checkpointing. *)

  val restore : Snapshot.R.t -> t -> unit
  (** Overwrite the histogram with state written by {!save}. *)
end

type latency_report = {
  n : int;
  mean : float;
  p50 : float;
  p95 : float;
  p99 : float;
  max : float;
}

val latency_report : Histogram.t -> Summary.t -> latency_report
(** Combine a histogram and summary over the same stream into one report. *)

val pp_latency_report : Format.formatter -> latency_report -> unit
