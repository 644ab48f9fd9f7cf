(** Store backend over the smart SSD's file service.

    Appends go through the VIRTIO data plane ({!Lastcpu_devices.File_client});
    large appends are chunked to the client's slot size. Offsets are
    reserved at submission so concurrent appends land disjoint. *)

type t

val create :
  Lastcpu_devices.File_client.t ->
  path:string ->
  ((t, string) result -> unit) ->
  unit
(** Creates the log file if missing and learns its current size. *)

val backend : t -> Store.backend

val save : Lastcpu_sim.Snapshot.W.t -> t -> unit
(** Append the end-of-log offset (checkpointing). *)

val restore : Lastcpu_sim.Snapshot.R.t -> t -> unit
(** Overwrite the end-of-log offset from {!save}d state.
    @raise Lastcpu_sim.Snapshot.R.Corrupt on malformed input. *)
