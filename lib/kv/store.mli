(** The key-value store: hash index in device memory, durability through a
    write-ahead log on a storage backend.

    The backend is abstract so the same store logic runs on the CPU-less
    system (log appended through {!Lastcpu_devices.File_client}, i.e. pure
    data plane) and on the centralized baseline (log through the kernel's
    syscall path). All operations are asynchronous. *)

type backend = {
  append : string -> ((unit, string) result -> unit) -> unit;
      (** durably append bytes to the log *)
  read_log : ((string, string) result -> unit) -> unit;
      (** read the whole log (for recovery) *)
  reset_log : ((unit, string) result -> unit) -> unit;
      (** truncate the log to empty *)
  replace_log : string -> ((unit, string) result -> unit) -> unit;
      (** atomically replace the whole log (compaction): implementations
          write a sidecar and rename it over the live log, so a crash
          leaves either the old or the new log, never a mix *)
}

val memory_backend : unit -> backend
(** Volatile backend for unit tests: the "log" is an in-memory buffer. *)

type t

val create : ?metrics:Lastcpu_sim.Metrics.t -> ?actor:string -> backend -> t
(** Op counters (puts/gets/deletes) register under [actor] (default
    ["kv"]) in [metrics] (default: a private registry). *)

val recover : t -> ((int, string) result -> unit) -> unit
(** Replay the log into the index; continuation receives the number of
    records applied (torn tails are discarded silently — crash
    semantics).

    Replay honours the {e snapshot watermark}: records the index already
    reflects — because the store was just {!restore}d from a checkpoint —
    are skipped rather than double-applied, and only the log suffix past
    the watermark is replayed (the index is {e not} reset in that case).
    A fresh store has watermark zero, so first-boot recovery replays the
    whole log exactly as before. *)

val get : t -> string -> (string option -> unit) -> unit
val put : t -> key:string -> value:string -> ((unit, string) result -> unit) -> unit
val delete : t -> string -> ((bool, string) result -> unit) -> unit
(** [false] when the key was absent (still durably logged as a no-op
    delete? no — absent keys are not logged). *)

val scan_prefix : t -> prefix:string -> ((string * string) list -> unit) -> unit
(** Snapshot of current matching pairs, key-sorted. *)

val size : t -> int
val compact : t -> ((unit, string) result -> unit) -> unit
(** Rewrite the log as one Put per live key (bounds recovery time). The
    rewrite goes through [replace_log], so it is crash-safe: a crash during
    compaction recovers either the old log or the compacted one. *)

val puts : t -> int
val gets : t -> int

val applied_watermark : t -> int
(** Number of decodable log records the index currently reflects. *)

val set_applied_watermark : t -> int -> unit
(** Override the watermark (tests and checkpoint plumbing).
    @raise Invalid_argument when negative. *)

val save : Lastcpu_sim.Snapshot.W.t -> t -> unit
(** Append the index (key order) and watermark (checkpointing). *)

val restore : Lastcpu_sim.Snapshot.R.t -> t -> unit
(** Overwrite index and watermark from {!save}d state.
    @raise Lastcpu_sim.Snapshot.R.Corrupt on malformed input. *)
