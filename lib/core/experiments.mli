(** Experiment harness: every figure and table of EXPERIMENTS.md.

    The paper (a HotOS position paper) publishes no quantitative results;
    each experiment here operationalises one of its claims, comparing the
    CPU-less design against the centralized-CPU baseline where a comparison
    is meaningful. All experiments are deterministic given the seed. *)

type table = {
  id : string;
  title : string;
  claim : string;  (** the paper claim the experiment tests *)
  columns : string list;
  rows : string list list;
  notes : string list;
}

val print_table : Format.formatter -> table -> unit

val f1 : unit -> table
(** Figure 1: the architecture — topology of a booted CPU-less system. *)

val f2 : unit -> table
(** Figure 2: the seven-step KVS initialization sequence, with virtual
    timestamps. *)

val t1 : ?enable_tokens:bool -> unit -> table
(** Control-plane operation latency, CPU-less vs centralized.
    [enable_tokens:false] is the no-capability ablation. *)

val t2 : unit -> table
(** Performance isolation: KVS tail latency under a control-plane-noisy
    neighbour, both designs. *)

val t3 : unit -> table
(** Control-plane scalability: aggregate throughput vs concurrent
    applications. *)

val t4 : unit -> table
(** Failure handling: detection and recovery after a storage-device
    failure, both designs. *)

val t5 : unit -> table
(** Address translation: TLB geometry sweep under a Zipfian working set. *)

val t6 : ?doorbells_via_bus:bool -> unit -> table
(** VIRTIO virtqueue throughput vs queue depth. [doorbells_via_bus:true]
    adds the §2.3 ablation column: notifications conflated onto the
    control bus instead of MSI-style memory writes. *)

val t7 : unit -> table
(** End-to-end KVS under YCSB-like mixes, both designs. *)

val t8 : unit -> table
(** Fault containment: IOMMU faults are delivered to the faulting device
    only; bystander address spaces are unaffected. *)

val t9 : unit -> table
(** Initialization scaling: boot and discovery-storm time vs device count. *)

val t10 : unit -> table
(** FTL characterization: write amplification vs over-provisioning. *)

val t11 : unit -> table
(** Offload crossover: accelerator vs on-device embedded core. *)

val t12 : unit -> table
(** Recovery economics: WAL replay before/after compaction. *)

val t13 : ?seed:int64 -> unit -> table
(** Chaos soak: both designs run the same seeded client workload under an
    identical fault plan (message loss/duplication/corruption, frame
    loss/reordering, NAND read faults, a mid-workload storage-device
    crash→revive window), reporting ops completed, retries, failovers and
    convergence. *)

val t14 : ?seed:int64 -> unit -> table
(** Overload probe: an open-loop warm→pulse→recover load replayed on both
    designs with the overload guards off and on. Guards off, the pulse's
    backlog plus naive client retransmits keep post-pulse goodput
    collapsed (metastable failure); guards on (bounded queues, admission
    control, E_busy backpressure, circuit breaker, EAGAIN run queues) the
    pulse is shed and recovery goodput returns to the warm baseline. *)

(** {2 T15: temporal decoupling} *)

type t15_result = {
  t15_events : int;  (** events executed, summed over shards *)
  t15_elapsed : int64;  (** max shard virtual clock at drain *)
  t15_digest : int64;
      (** per-shard metrics digests combined in shard order — THE value the
          determinism contract pins: independent of lane count *)
  t15_boundary : int;  (** cross-shard messages delivered at quantum edges *)
  t15_windows : int;  (** rendezvous windows executed *)
  t15_run_seconds : float;
      (** wall time of the coupled soak phase alone (setup excluded),
          measured with the caller-injected [clock]; [0.] without one *)
  t15_systems : System.t array;
}

val t15_soak :
  ?shards:int ->
  ?quantum:int64 ->
  ?tie:Lastcpu_sim.Engine.tie_break ->
  ?sanitize:bool ->
  ?clock:(unit -> float) ->
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

val t15 : ?shards:int -> ?quantum:int64 -> ?seed:int64 -> unit -> table
(** {!t15_soak} rendered as a table whose every cell is a pure function of
    (seed, quantum) — CI diffs the output of [--shards 1] vs [--shards 4]
    runs verbatim. *)

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
(** Segment boundary after which the kill leg of {!t16} dies (3). *)

val t16 : ?lanes:int -> ?seed:int64 -> unit -> table
(** The full kill-resume cycle in one table: an uninterrupted run, a run
    killed mid-checkpoint at boundary {!t16_kill_boundary} (leaving a torn
    primary), and a resumed run that must fall back to the previous
    generation and still finish bit-identical. Every cell is a pure
    function of the seed — CI diffs [--shards 1] vs [--shards 4] output
    verbatim. *)

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
    token replay; and recovery. Checkpointing stops after boundary
    {!t17_kill_boundary} because [Kv_app.save_state] refuses once the app
    has failed over. The soak asserts each segment's containment
    postcondition and raises [Invalid_argument] on any violation. *)

val t17_kill_boundary : int
(** Boundary where the kill leg of {!t17} dies mid-checkpoint (2) — the
    resume leg must fall back a generation and re-run the barrage. *)

val t17 : ?seed:int64 -> unit -> table
(** Uninterrupted, killed-at-torn-checkpoint, and resumed runs of
    {!t17_soak} in one table; the verdict row pins bit-identical digests,
    events and virtual clocks. *)

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
    two runs) and the bench.
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

val all : unit -> table list
(** Every figure and table, in {!ids} order. *)

val by_id : ?shards:int -> string -> (unit -> table) option
(** Look up an experiment by id (one of {!ids}). [shards] (default 1) sets
    the execution-lane count for "t15" and "t16" (ignored by every other
    experiment — their tables are single-engine runs). *)
