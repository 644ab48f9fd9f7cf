(** Experiment harness: every figure and table of EXPERIMENTS.md.

    The paper (a HotOS position paper) publishes no quantitative results;
    each experiment here operationalises one of its claims, comparing the
    CPU-less design against the centralized-CPU baseline where a comparison
    is meaningful. All experiments are deterministic given the seed. A
    table is reached by its id through {!by_id}; EXPERIMENTS.md says what
    each one measures. *)

type table = {
  id : string;
  title : string;
  claim : string;  (** the paper claim the experiment tests *)
  columns : string list;
  rows : string list list;
  notes : string list;
}

val print_table : Format.formatter -> table -> unit

(** {2 T15: temporal decoupling} *)

type t15_result = {
  t15_events : int;  (** events executed, summed over shards *)
  t15_elapsed : int64;  (** max shard virtual clock at drain *)
  t15_digest : int64;
      (** per-shard metrics digests combined in shard order — THE value the
          determinism contract pins: independent of lane count *)
  t15_boundary : int;  (** cross-shard messages delivered at quantum edges *)
  t15_windows : int;  (** rendezvous windows executed *)
  t15_systems : System.t array;
}

val t15_soak :
  ?shards:int ->
  ?quantum:int64 ->
  ?tie:Lastcpu_sim.Engine.tie_break ->
  ?sanitize:bool ->
  seed:int64 ->
  unit ->
  t15_result
(** The multi-shard soak: a fixed ring of four device clusters (full
    Systems on their own engines), coupled with {!Lastcpu_sim.Temporal} +
    {!Lastcpu_bus.Shardlink}; each shard runs a local KVS closed loop
    while churning alloc/free pairs against the next shard's memory
    controller across the quantum boundary. [shards] (default 1) is the
    number of execution lanes (Domains) only — for a fixed (seed,
    [quantum]) the result is bit-identical whatever its value. [quantum]
    defaults to the lookahead (50 us). *)

(** {2 T16: crash-survivable simulation} *)

type t16_result = {
  t16_digest : int64;
      (** per-shard metrics digests combined in shard order — THE value the
          crash-survivability contract pins: equal between an
          uninterrupted run and a killed-and-resumed run *)
  t16_events : int;  (** events executed, summed over shards *)
  t16_elapsed : int64;  (** max shard virtual clock at drain *)
  t16_segments_run : int;  (** segments executed by THIS process *)
  t16_restored : Lastcpu_sim.Snapshot.generation option;
      (** [Some g] when this run resumed from a snapshot; [g] says whether
          the primary file or the previous-generation fallback restored *)
  t16_systems : System.t array;
}

val t16_soak :
  ?lanes:int ->
  ?tie:Lastcpu_sim.Engine.tie_break ->
  ?sanitize:bool ->
  ?snapshot_path:string ->
  ?resume:bool ->
  ?stop_after:int ->
  ?torn_final:bool ->
  seed:int64 ->
  unit ->
  t16_result
(** The t15 ring run as five segments on the {!Soak} loop: with
    [snapshot_path], a whole-machine snapshot at every segment boundary (a
    quiescent quantum edge); [resume], [stop_after] and [torn_final] as in
    {!Soak.run}. [lanes] is the execution-lane count only; results are
    lane-independent. *)

val t16_kill_boundary : int
(** Segment boundary after which the kill leg of the "t16" table dies
    (3): that table runs an uninterrupted soak, one killed mid-checkpoint
    here (leaving a torn primary), and a resume that must fall back to the
    previous generation and still finish bit-identical. *)

(** {2 T17: rogue-device containment soak} *)

type t17_result = {
  t17_digest : int64;
      (** metrics digest under the t17 seed — pinned equal between the
          uninterrupted run and the killed-and-resumed run *)
  t17_events : int;
  t17_elapsed : int64;
  t17_segments_run : int;  (** segments executed by THIS process *)
  t17_restored : Lastcpu_sim.Snapshot.generation option;
  t17_quarantines : int;
  t17_revocations : int;
  t17_stale : int;  (** pre-revocation tokens NACKed on the epoch check *)
  t17_fenced : int;  (** frames dropped at the quarantine fence *)
  t17_malformed : int;
  t17_failovers : int;  (** KV provider failovers (PR-2 path) *)
  t17_rogue_trust : string;  (** rogue's trust state at drain *)
  t17_system : System.t;
}

val t17_soak :
  ?snapshot_path:string ->
  ?resume:bool ->
  ?stop_after:int ->
  ?torn_final:bool ->
  seed:int64 ->
  unit ->
  t17_result
(** Six segments on one engine, on the {!Soak} loop: warm-up; the rogue
    NIC's barrage (DMA overreach, forged MAC, a same-corr privileged replay
    storm, a spoofed source, malformed raw frames) ending in quarantine
    and revocation; a KV provider crash and failover; a
    no-silent-resurrection revive (bare heartbeat ignored, explicit
    re-announce honored); parole re-admission with a stale pre-revocation
    token replay; and recovery. Checkpointing stops after boundary 2,
    where the kill leg dies mid-checkpoint, because [Kv_app.save_state]
    refuses once the app has failed over; the resume leg must fall back a
    generation and re-run the barrage. The soak asserts each segment's
    containment postcondition and raises [Invalid_argument] on any
    violation. *)

(** {2 Same-tick ordering sanitizer} *)

type sanitize_report = {
  san_exp : string;
  san_perturbation : string;  (** ["lifo"] or ["salted"] *)
  san_multi_event_ticks : int;  (** journalled ticks in the reference run *)
  san_divergence : Lastcpu_sim.Sanitizer.divergence option;
      (** [None] = no ordering race found under this perturbation *)
}

val sanitize_experiments : string list
(** Experiment ids the sanitizer can drive
    (["t1"; "t13"; "t14"; "t15"]). *)

val soaked_system :
  ?tie:Lastcpu_sim.Heap.tie_break ->
  ?sanitize:bool ->
  exp:string ->
  seed:int64 ->
  unit ->
  System.t
(** Build and run the CPU-less arm of a digest-pinned soak — ["t1"],
    ["t13"] (the chaos soak) or ["t14"] (the guarded overload run) — to
    completion with the given seed, returning the soaked system. Callers
    read its telemetry registry: the golden digests, the [chaos] and
    [overload] CLI commands (same seed ⇒ byte-identical snapshot; CI diffs
    two runs).
    @raise Invalid_argument for any other [exp]. *)

val metrics_digest : exp:string -> seed:int64 -> int64
(** Build and run experiment [exp] ("t1", "t13", "t14" or "t15") with the
    given seed and return the {!Lastcpu_sim.Metrics.digest} of its
    telemetry registry ("t15": the shard-ordered combination of per-shard
    digests, [t15_digest]). This is the golden value the
    determinism-equivalence test pins: hot-path optimisations must keep it
    bit-identical. *)

val sanitize_journal :
  exp:string ->
  seed:int64 ->
  tie:Lastcpu_sim.Heap.tie_break ->
  Lastcpu_sim.Sanitizer.tick list
(** The full sanitizer journal of one run of [exp] under the given
    tie-break (the raw material {!sanitize} compares; exposed so the
    golden determinism test can pin journals, labels included). *)

val sanitize : ?seed:int64 -> exp:string -> unit -> sanitize_report list
(** Run experiment [exp] once under the contractual FIFO same-tick order
    and once per perturbed tie-break (LIFO and seed-salted), journalling an
    observable-state digest after every multi-event tick. A report's
    [san_divergence] names the first tick where the perturbed run's
    observable state differs — a same-tick ordering race, with the
    colliding events' labels. Raises [Invalid_argument] for unknown [exp].

    "t15" is multi-shard and its journal samples the trajectory at
    collisions of independent streams, which legitimate tie-break drift
    dissolves, so the FIFO-vs-perturbed diff is replaced by the strict t15
    contracts: the final digest must be tie-invariant, and under each
    perturbed tie the shard-ordered journal must be bit-identical between
    one and four execution lanes. *)

val ids : string list
(** Every experiment id, in table order: "f1", "f2", "t1", "t1-notokens",
    "t2".."t17". *)

val by_id : ?shards:int -> string -> (unit -> table) option
(** Look up an experiment by id (one of {!ids}). [shards] (default 1) sets
    the execution-lane count for "t15" and "t16" (ignored by every other
    experiment — their tables are single-engine runs). *)
