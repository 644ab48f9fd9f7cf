(** Deterministic discrete-event simulation engine.

    The engine owns the virtual clock and an event queue. Components
    schedule closures at future virtual times; [run] executes them in
    (time, insertion-order) order, so identical inputs give identical runs.
    The engine also carries the run-wide trace and root PRNG so that every
    subsystem shares one deterministic context.

    {b Hot path.} The queue stores bare closures; event labels are lazy
    thunks consumed only in sanitize mode. With sanitize off, scheduling
    an event allocates nothing beyond the heap entry, and a label thunk
    passed to {!schedule} is never forced — call sites that would have to
    allocate the thunk itself should branch on {!sanitizing} instead.

    {b Sanitize mode} (opt-in) journals observable state after every tick
    that executed two or more events. Replaying the same workload with a
    perturbed [tie] and comparing journals (see {!Sanitizer}) exposes
    same-tick ordering races: event pairs whose relative order — which the
    determinism contract says must not matter — leaks into observable
    state. *)

type tie_break = Heap.tie_break =
  | Fifo  (** insertion order among equal times — the contract *)
  | Lifo  (** reverse order — flips every colliding pair *)
  | Salted of int64  (** seed-keyed pseudo-random permutation of ties *)

type t

val create :
  ?seed:int64 ->
  ?trace:bool ->
  ?fault_plan:Faults.plan ->
  ?tie:tie_break ->
  ?sanitize:bool ->
  unit ->
  t
(** Fresh engine at time 0. [seed] defaults to [42L]; [trace] to [false]
    (no trace is recorded: {!trace} stays empty); [fault_plan] to
    {!Faults.zero} (no injection); [tie] to [Fifo]; [sanitize] to [false]
    (no journalling overhead). *)

val now : t -> int64
(** Current virtual time in nanoseconds. *)

val bind_shard : t -> shard:int -> unit
(** Tag this engine as owned by the given shard for the dynamic
    ownership sanitizer ({!Ownership}): every subsequent schedule is a
    guarded access, so cross-shard scheduling during a parallel window
    raises {!Ownership.Violation} when checking is enabled. Called by
    the shard coordinator ({!Temporal.create}); idempotent (re-binding
    re-homes the cell). *)

val shard_owner : t -> int option
(** The shard this engine is bound to, if {!bind_shard} has run. *)

val trace : t -> Trace.t
(** The run trace; empty unless created with [~trace:true]. *)

val rng : t -> Rng.t
(** The engine's root generator; prefer [fork_rng] per component. *)

val fork_rng : t -> Rng.t
(** An independent stream derived from the root. *)

val schedule :
  ?label:(unit -> string) -> t -> delay:int64 -> (unit -> unit) -> unit
(** [schedule t ~delay f] runs [f] at [now t + delay]. [delay >= 0].
    [label] names the event in sanitizer race reports; it is a thunk,
    forced only in sanitize mode (at schedule time), so hot paths pay no
    formatting when no sanitizer will read it. Give one wherever events
    can share a timestamp. *)

val schedule_at :
  ?label:(unit -> string) -> t -> time:int64 -> (unit -> unit) -> unit
(** [schedule_at t ~time f] runs [f] at absolute [time >= now t]. *)

val schedule_static_at : t -> time:int64 -> (unit -> unit) -> unit
(** Like {!schedule_at}, but marks the event {e static}: one that a rebuilt
    topology re-schedules identically from declarative inputs (fault-plan
    crash windows, periodic sweeps). Static events do not block quiescence
    ({!quiescent}), because a checkpoint can represent them as bare
    timestamps and a resume re-derives their closures from the rebuild —
    see {!save_state}/{!restore_state}. *)

val pending : t -> int
(** Number of queued events. *)

val pending_volatile : t -> int
(** Queued events that are {e not} static: closures a checkpoint cannot
    capture. [0] iff the engine is {!quiescent}. *)

val events_executed : t -> int
(** Total events run so far — the denominator for events/sec reporting. *)

val next_event_time : t -> int64 option
(** Timestamp of the earliest queued event, [None] when the queue is
    empty. The shard coordinator ({!Temporal}) uses this to pick the next
    quantum rendezvous without popping anything. *)

val run : ?until:int64 -> t -> unit
(** [run t] executes events, statics included, until the queue is empty
    or [until] (inclusive) is passed. The clock advances to each event's
    time; when stopped by [until], the clock is left at [until]. *)

val step : t -> bool
(** Execute exactly one event. [false] if the queue was empty. *)

val run_until_quiescent : ?max_events:int -> t -> unit
(** Execute events (in time order, statics included) until only static
    events remain — the earliest point at which {!save_state} may run. *)

val quiescent : t -> bool
(** Whether every queued event is static ({!pending_volatile} is [0]). *)

(** {2 Checkpoint/restore}

    A whole-machine checkpoint is driven from outside (see
    [Core.Checkpoint]): each subsystem registers a named hook at creation
    time; at a quiescent point the orchestrator collects {!save_state} plus
    every hook's [save] into one {!Snapshot} file. Restore rebuilds the
    topology with the identical deterministic builder (recreating closures,
    handles and static events), then feeds each section back through
    {!restore_state} and the hooks' [restore]. *)

val register_snapshot :
  t -> name:string ->
  save:(Snapshot.W.t -> unit) -> restore:(Snapshot.R.t -> unit) -> unit
(** Register a subsystem checkpoint hook: [save] writes its section body
    into the save's shared writer, [restore] reads it from a window over
    that body. Hooks are kept in registration
    order; a rebuild therefore re-registers the same names in the same
    order.
    @raise Invalid_argument on a duplicate [name]. *)

val snapshot_hooks :
  t -> (string * (Snapshot.W.t -> unit) * (Snapshot.R.t -> unit)) list
(** All registered hooks, in registration order. *)

val save_state : t -> Snapshot.W.t -> unit
(** Write the engine's own state: clock, event counter, RNG
    position, sanitizer journal, metrics and fault state, and the multiset
    of pending static timestamps (closures are never serialized).
    @raise Invalid_argument unless {!quiescent}. *)

val restore_state : t -> Snapshot.R.t -> unit
(** Overwrite a freshly rebuilt engine with checkpointed state. The
    rebuilt queue is reconciled against the saved timestamps: each rebuilt
    static whose time matches a saved pending time at or past the restored
    clock survives (multiset matching); the rest — statics that had already
    fired before the checkpoint, such as the crash half of a crash→revive
    window — are dropped.
    @raise Invalid_argument if sanitize mode differs from the checkpoint.
    @raise Snapshot.R.Corrupt on malformed input. *)

val tracef :
  t -> actor:string -> kind:string -> ('a, unit, string, unit) format4 -> 'a
(** [tracef t ~actor ~kind fmt args] appends the formatted detail to the
    run trace at the current virtual time. With tracing off nothing is
    formatted, though the arguments are still evaluated. *)

val tracing : t -> bool
(** Whether the engine records a trace. A per-message site whose argument
    closures alone would cost allocations can branch on this instead. *)

val metrics : t -> Metrics.t
(** The run-wide telemetry registry: all subsystem counters, gauges and
    latency histograms live here, keyed [actor/instrument]. *)

val observe_since : t -> actor:string -> name:string -> int64 -> unit
(** [observe_since t ~actor ~name t0] feeds [now t - t0] into the registry
    histogram [actor/name], which is created on its first observation. An
    op that holds its start time in its continuation calls this once, when
    it completes. *)

val faults : t -> Faults.t
(** The run's fault-injection state (a zero plan unless [create] was given
    one). Delivery channels consult it at each injection point. *)

(** {2 Ordering sanitizer} *)

val sanitizing : t -> bool
(** Whether this engine journals multi-event ticks. *)

val register_probe : t -> (unit -> int64) -> unit
(** Add an observable-state probe for the sanitizer digest (e.g. a bus
    frame digest). Probe results are summed — commutatively — with the
    metrics digest, so registration order does not matter. Probes must
    return values derived from simulation-stable state only. *)

val sanitizer_journal : t -> Sanitizer.tick list
(** The multi-event ticks journalled so far (flushes the in-progress tick
    group). Empty unless created with [~sanitize:true]. *)
