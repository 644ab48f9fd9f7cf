(** FIFO single-server queueing station.

    Models a serial resource in the emulation: the system management bus's
    message processor, or the baseline's single CPU running the kernel.
    Jobs submitted while the server is busy wait; each job's completion
    callback runs at its virtual finish time. The busy-time and
    waiting-time totals feed the benchmark's per-layer bus figures.

    A station may be bounded with [capacity]: {!try_submit} then rejects
    jobs that would make more than [capacity] outstanding, modelling a
    finite hardware queue (NIC ring, SSD submission queue, PCIe credits)
    instead of queueing forever. The default is unbounded, and an
    unbounded station registers no telemetry — behavior and snapshots are
    identical to builds without the overload layer. *)

type t

val create :
  ?capacity:int -> ?telemetry:Metrics.t * string -> Engine.t -> t
(** [create ?capacity ?telemetry engine]. [capacity] bounds outstanding
    jobs (admitted but not yet completed); omitted = unbounded. When both
    [capacity] and [telemetry:(registry, actor)] are given, the station
    registers an [actor/queue_limit] gauge and an [actor/rejected] counter;
    stations sharing the same [(registry, actor)] share the counter, so
    multi-lane resources export one aggregate.
    @raise Invalid_argument if [capacity <= 0]. *)

val submit : t -> service:int64 -> (unit -> unit) -> unit
(** [submit t ~service k] enqueues a job needing [service] ns; [k] runs at
    completion time. Unconditional: ignores [capacity] (legacy call sites
    must never silently drop work). Capacity-aware callers use
    {!try_submit}. *)

val try_submit :
  t -> service:int64 -> (unit -> unit) -> [ `Accepted | `Rejected ]
(** Like {!submit}, but a bounded station that is full rejects the job:
    [k] is never scheduled, accounting ([busy_ns], [total_wait_ns],
    [jobs_completed]) is untouched, and the rejection is counted. An
    unbounded station always accepts. *)

val queue_length : t -> int
(** Jobs submitted but not yet completed (including the one in service). *)

val capacity : t -> int option
val jobs_completed : t -> int
val jobs_rejected : t -> int
(** Jobs turned away by {!try_submit} on a full station. *)

val busy_ns : t -> int64
(** Total service time accumulated. *)

val total_wait_ns : t -> int64
(** Sum over jobs of (start - submit): pure queueing delay. *)

val drain_ns : t -> now:int64 -> int64
(** Virtual time until the server goes idle if nothing else arrives: the
    deterministic retry-after hint for rejected work. 0 when idle. *)

val save : Snapshot.W.t -> t -> unit
(** Append the station's accounting (busy horizon, completion/rejection
    counts, busy/wait totals) to a checkpoint. In-flight completion
    callbacks live in the engine queue and are not captured — checkpoint
    only a drained station. *)

val restore : Snapshot.R.t -> t -> unit
(** Overwrite the accounting with state written by {!save}. *)
