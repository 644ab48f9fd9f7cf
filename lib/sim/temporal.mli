(** Quantum-synchronized shard coordinator (conservative parallel DES).

    A run is partitioned into {e shards} — ordinary sequential {!Engine}
    instances, each owning its event heap and local virtual clock. Shards
    execute one {e window} at a time: every shard runs up to the same
    target timestamp, then all rendezvous and exchange the cross-shard
    messages posted during the window. Within a window shards share
    nothing, so windows can execute on separate domains (via
    {!Parallel.Pool}) with no locking on simulation state.

    {b Lookahead.} Every cross-shard interaction has a minimum latency
    [lookahead >= 1ns]: a message posted at local time [t] arrives at its
    natural timestamp [t + lookahead]. Because the window length
    ([quantum]) never exceeds the lookahead, an arrival handed over at the
    barrier is always strictly in the destination's future.

    {b Determinism contract.} For a fixed (seed, quantum) the computation
    is a pure function of its inputs, independent of how many domains
    execute the shards. Boundary events are merged in
    [(arrival time, source shard, per-source sequence)] order, and all
    events sharing (destination, arrival time) are delivered as a single
    scheduled closure, so the destination heap's tie-break policy — even
    the sanitizer's salted one — cannot reorder boundary delivery.

    [quantum = 0] degenerates to lock-step: shards advance one global tick
    at a time, reproducing the union schedule of a sequential engine. *)

type t

val create : ?quantum:int64 -> lookahead:int64 -> Engine.t array -> t
(** [create ~lookahead engines] couples the given engines as shards
    [0 .. n-1]. [lookahead] is the uniform minimum cross-shard latency in
    nanoseconds; [quantum] (default [lookahead]) is the window length and
    must satisfy [0 <= quantum <= lookahead]. Engines with unequal clocks
    are aligned: each is run up to the maximum current clock, which
    becomes the common window origin.
    @raise Invalid_argument on an empty array, [lookahead < 1], or a
    quantum outside [[0, lookahead]]. *)

val shard_count : t -> int

val engine : t -> int -> Engine.t
(** [engine t i] is shard [i]'s engine. *)

val lookahead : t -> int64
val quantum : t -> int64

val post :
  ?label:(unit -> string) -> t -> src:int -> dst:int -> (unit -> unit) -> unit
(** [post t ~src ~dst fire] records a cross-shard message: [fire] will run
    on shard [dst]'s engine at time [now (engine t src) + lookahead t],
    delivered at the rendezvous that closes the current window. Must be
    called from shard [src]'s lane (outboxes are lane-confined). [label]
    names the event in the destination's sanitizer journal and is forced
    only when that shard journals. *)

val run_window : ?pool:Parallel.Pool.t -> t -> bool
(** Execute one window: pick the next rendezvous target (the first quantum
    edge at or past the earliest pending event anywhere — or that event's
    exact time when [quantum = 0]), run every shard up to it (on [pool]'s
    lanes when given), then flush boundary events. [false] when no shard
    has work left, in which case nothing ran. *)

val boundary_events : t -> int
(** Total cross-shard messages delivered so far. *)

val windows_run : t -> int
(** Number of rendezvous windows executed. *)

(** {2 Checkpoint/restore}

    Checkpoints are taken only at quiescent window edges: every shard
    clock is then uniform (equal to the last rendezvous target), outboxes
    are empty, and each shard engine holds only static events — the one
    configuration a rebuilt coordinator can be restored into
    bit-identically, for any lane count. *)

val quiescent : t -> bool
(** No unflushed outbox entries and no volatile events on any shard. *)

val run_until_quiescent : ?pool:Parallel.Pool.t -> t -> unit
(** Run windows until {!quiescent} — the nearest checkpointable point. *)

val save_state : t -> Snapshot.W.t -> unit
(** Write the coordinator: clock origin, window/boundary counters and
    per-shard posting sequence numbers. Shard engine state is saved
    separately via {!Engine.save_state}. Call it only when {!quiescent}:
    outbox entries are not saved. *)

val restore_state : t -> Snapshot.R.t -> unit
(** Overwrite a rebuilt coordinator (same shard count) with checkpointed
    state.
    @raise Invalid_argument on a shard-count mismatch.
    @raise Snapshot.R.Corrupt on malformed input. *)
