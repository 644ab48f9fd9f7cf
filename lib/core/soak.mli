(** The segmented-checkpoint soak loop (contract: DESIGN §11).

    A soak runs [segments] segments: install the segment's load, drain the
    target to quiescence, check the segment. Boundary [s + 1] follows
    segment [s] and is checkpointed while it is at most the last
    checkpointable one. The segment counter rides the snapshot as the
    ["<name>-progress"] hook. *)

type leg = {
  segments_run : int;  (** segments executed by this process *)
  restored : Lastcpu_sim.Snapshot.generation option;
      (** the generation this leg resumed from, if it resumed *)
}

val run :
  name:string ->
  seed:int64 ->
  ?lanes:int ->
  segments:int ->
  ?last_checkpoint:int ->
  ?snapshot_path:string ->
  ?resume:bool ->
  ?stop_after:int ->
  ?torn_final:bool ->
  install:(int -> unit) ->
  check:(int -> unit) ->
  Checkpoint.target ->
  leg
(** Register the progress hook, restore from [snapshot_path] when
    [resume], then run the remaining segments; a sharded target drains on
    [lanes] domains (default 1). Snapshots are tagged ["<name>:<seed>"];
    [last_checkpoint] defaults to [segments]. [stop_after:b] abandons the
    run right after boundary [b], whose save [torn_final] truncates (a
    kill mid-checkpoint).
    @raise Invalid_argument when [resume] has no path or the restore
    fails. *)

val kill_resume :
  name:string ->
  kill_boundary:int ->
  (?snapshot_path:string ->
  ?resume:bool ->
  ?stop_after:int ->
  ?torn_final:bool ->
  unit ->
  'r) ->
  'r * 'r * 'r
(** The uninterrupted, killed-mid-checkpoint-at-[kill_boundary] and
    resumed legs, over a temporary snapshot file removed afterwards. *)

val killed_label : int -> string
val resumed_label : Lastcpu_sim.Snapshot.generation option -> string

val verdict_row :
  columns:int ->
  identical:bool ->
  Lastcpu_sim.Snapshot.generation option ->
  string list
(** ["bit-identical"] in the last of [columns] cells when the resumed leg
    fell back a generation and its observables are [identical] to the
    uninterrupted leg's; ["DIVERGED"] otherwise. *)
