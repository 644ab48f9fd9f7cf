(** Whole-machine checkpoint orchestrator.

    A checkpoint is taken at a quiescent point — only static events queued
    ({!Lastcpu_sim.Engine.quiescent}), every shard at a common quantum edge
    for multi-shard runs ({!Lastcpu_sim.Temporal.quiescent}) — and collects
    into one {!Lastcpu_sim.Snapshot} file:

    - a [meta] section (caller tag + shard count), so a resume into the
      wrong experiment or topology is rejected before any state moves;
    - for multi-shard targets, the coordinator state ([temporal]);
    - per shard: the engine's own state ([<i>/engine]) and one section per
      registered subsystem hook ([<i>/hook/<name>]).

    Restore expects a topology produced by the {e same deterministic
    builder} as the checkpointed run: it applies each shard's engine
    section first (reconciling the rebuilt static events against the saved
    pending times), then every hook in registration order — the order the
    rebuild registered them. *)

type target =
  | Single of Lastcpu_sim.Engine.t
  | Sharded of Lastcpu_sim.Temporal.t

val save : ?torn_keep_bytes:int -> path:string -> tag:string -> target -> unit
(** Collect every section and atomically write the snapshot (keeping the
    displaced previous file as the fallback generation).
    [torn_keep_bytes] is the chaos hook: write a deliberately truncated
    primary instead — the on-disk state of a process killed mid-checkpoint
    by a non-atomic writer.
    @raise Invalid_argument when the target is not quiescent (checked
    before any file is opened or rotated) or a subsystem refuses to
    checkpoint (the temp file is removed, both generations untouched). *)

val restore :
  path:string ->
  tag:string ->
  target ->
  (Lastcpu_sim.Snapshot.generation, string) result
(** Load [path] (falling back to the previous generation when the primary
    is missing, torn or corrupt) and overlay it onto the freshly rebuilt
    [target]. [Error] covers: both generations unreadable, tag mismatch,
    shard-count mismatch, a registered hook with no matching section, or a
    section whose contents don't fit the rebuilt topology. Every failure
    but the last is detected before any state is touched. On success the
    returned generation says which file actually restored. *)
