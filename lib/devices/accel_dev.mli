(** A programmable accelerator device (FPGA/GPU-class).

    The class of hardware the paper's whole argument starts from (§1):
    application logic runs here, not on a CPU. The device exposes a
    {!Lastcpu_proto.Types.Compute_service}; clients allocate shared memory,
    [grant] it to the accelerator, then submit {!Accel_proto} jobs over the
    control plane. The accelerator reads and writes the data exclusively
    through its own IOMMU view — a job over memory that was never granted
    faults *on the accelerator* and is reported back as a job fault (§4).

    Job latency is [accel_setup_ns + bytes x accel_byte_ns]. *)

type t

val create : Lastcpu_bus.Sysbus.t -> mem:Lastcpu_mem.Physmem.t -> name:string -> unit -> t

val id : t -> Lastcpu_proto.Types.device_id

val jobs_run : t -> int
val bytes_processed : t -> int
val job_faults : t -> int

(** {1 Client side} *)

val submit :
  Lastcpu_device.Device.t ->
  accel:Lastcpu_proto.Types.device_id ->
  pasid:int ->
  Accel_proto.job ->
  (Accel_proto.outcome -> unit) ->
  unit
(** Submit a job from a client device; the continuation receives the
    outcome when the accelerator answers. *)

val run_locally :
  Lastcpu_device.Device.t ->
  pasid:int ->
  Accel_proto.job ->
  (Accel_proto.outcome -> unit) ->
  unit
(** Execute the same job on the *submitting* device's embedded core
    (per-byte cost [wimpy_byte_ns]): the comparator for the offload
    crossover experiment (T11). *)
