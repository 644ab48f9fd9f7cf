(** Engine-carried telemetry registry.

    One registry per {!Engine.t}: named counters, gauges and log-bucketed
    latency histograms, keyed by [actor/instrument]. Subsystems resolve a
    handle once at creation time and bump it on the hot path; snapshots are
    deterministic (sorted by actor then instrument, never hash order), so a
    seeded run always exports byte-identical telemetry. *)

type t

type counter
type gauge
type histogram

type value =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of Stats.latency_report

val create : unit -> t

val claim_actor : t -> string -> string
(** [claim_actor t base] reserves a unique actor name: [base] on first
    claim, ["base#2"], ["base#3"], … after. Prevents two subsystems
    created with the same name from silently sharing instruments. *)

(** {2 Instrument handles} — registering an existing [(actor, name)] key
    returns the same handle; registering it with a different instrument
    type raises [Invalid_argument]. *)

val counter : t -> actor:string -> name:string -> counter
val gauge : t -> actor:string -> name:string -> gauge
val histogram : t -> actor:string -> name:string -> histogram

val incr : ?by:int -> counter -> unit

val add : counter -> int -> unit
(** [add c n] is [incr ~by:n c] without boxing [Some n] at the call: for
    hot paths that bump by a computed amount. *)

val counter_value : counter -> int

val set : gauge -> float -> unit
val gauge_value : gauge -> float

val observe : histogram -> float -> unit
val observations : histogram -> int
val report : histogram -> Stats.latency_report
val summary : histogram -> Stats.Summary.t

(** {2 Reading the registry} *)

val find : t -> actor:string -> name:string -> value option

val counter_read : t -> actor:string -> name:string -> int
(** Counter value by name; [0] if absent or not a counter. *)

(** {2 Lazily registered counters}

    A counter that must not appear in the registry until something
    happens: a run that never sheds, crosses a shard boundary or meets a
    misbehaving device keeps the telemetry snapshot (and so every digest)
    it had before the counter existed. This is the one place that policy
    lives. An instrument registered only when a feature is enabled
    takes the same handle with a zero {!bump} where the feature is
    switched on. *)

type lazy_counter

val lazy_counter : t -> actor:string -> name:string -> lazy_counter
(** A handle for [(actor, name)]; registers nothing. *)

val bump : ?by:int -> lazy_counter -> unit
(** Add [by] (default 1). The first bump registers the counter, or binds
    to the record {!restore_state} already put there, and every later
    bump is a plain increment. [~by:0] registers without counting. *)

val lazy_value : lazy_counter -> int
(** The registry's value for the handle's key: [0] while it is absent.
    Never registers. Reads correctly after {!restore_state}, before the
    handle's first bump. *)

val snapshot : t -> (string * string * value) list
(** All instruments, sorted by (actor, instrument). *)

val actors : t -> string list
(** Distinct actor names, sorted. *)

val size : t -> int

val save_state : t -> Snapshot.W.t -> unit
(** Write the whole registry (instrument values, histogram buckets,
    claimed-actor table) for a checkpoint. *)

val restore_state : t -> Snapshot.R.t -> unit
(** Overwrite the registry with state written by {!save_state}.
    Instrument records already present (a rebuilt topology re-registered
    them) are mutated in place so existing handles observe the restored
    values; instruments not yet re-created are added, and a lazy counter's
    first {!bump} binds to them ({!lazy_value} reads them before that).
    @raise Invalid_argument if a key changed instrument type.
    @raise Snapshot.R.Corrupt on malformed input. *)

val digest : t -> int64
(** Deterministic digest of the registry for the ordering sanitizer:
    counter and gauge values plus histogram observation counts (quantiles
    are excluded — they shift benignly with same-tick queueing order). *)

(** {2 Export} *)

val to_prometheus : t -> string
(** Prometheus text exposition: one [lastcpu_<instrument>] family per
    instrument with an [actor] label; histograms export as summaries. *)

val to_json : t -> string
(** One JSON object: [{"metrics":[{"actor":…,"instrument":…,…},…]}]. *)
