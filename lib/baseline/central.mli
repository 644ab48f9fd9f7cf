(** The centralized system assembled: CPU kernel + storage + the same
    control-plane vocabulary as the CPU-less design, so experiments can run
    identical workloads on both.

    Mapping of operations (each [»] is CPU core time):

    - [discover]: name lookup in the kernel » (no broadcast — the kernel
      holds the global device table, the paper's "centralized control").
    - [open_file]: syscall » + device command + completion interrupt ».
    - [setup_shared]: the Figure-2 equivalent — mmap syscall » (kernel
      programs both IOMMUs itself) + grant syscall ».
    - file I/O: submit syscall », NAND time off-CPU, completion
      interrupt » (the classic interrupt-driven storage stack).
    - KVS network op: NIC RX interrupt », application work on the CPU,
      file I/O as above, TX syscall ».

    The file system and FTL are the *same implementations* as the smart
    SSD's, so storage behaviour is identical; only the control/coordination
    architecture differs. *)

type t

val create :
  Lastcpu_sim.Engine.t ->
  ?cores:int ->
  ?run_queue_capacity:int ->
  unit ->
  t
(** [run_queue_capacity] bounds the kernel's per-core run queues (see
    {!Kernel.create}); default unbounded. *)

val kernel : t -> Kernel.t
val fs : t -> Lastcpu_fs.Fs.t

(** Control-plane operations (T1/T3 workloads): *)

val discover : t -> query:string -> (unit -> unit) -> unit
val open_file : t -> path:string -> user:string -> ((unit, string) result -> unit) -> unit
val setup_shared : t -> bytes:int64 -> (unit -> unit) -> unit
val teardown_shared : t -> (unit -> unit) -> unit

(** Data-plane file operations (kernel-mediated): *)

val file_read :
  t -> path:string -> user:string -> off:int -> len:int ->
  ((string, string) result -> unit) -> unit

val file_write :
  t -> path:string -> user:string -> off:int -> data:string ->
  ((unit, string) result -> unit) -> unit

val file_create :
  t -> path:string -> user:string -> ((unit, string) result -> unit) -> unit

val store_backend : t -> path:string -> user:string -> Lastcpu_kv.Store.backend
(** A {!Lastcpu_kv.Store} backend whose log I/O goes through the kernel:
    the baseline KVS runs the identical store logic. *)

val try_kv_network_op :
  t ->
  ((unit -> unit) -> unit) ->
  on_busy:(retry_after_ns:int64 -> unit) ->
  (unit -> unit) ->
  unit
(** [try_kv_network_op t work ~on_busy k]: RX interrupt, then [work]
    (which performs store operations and calls its continuation), then a
    TX syscall, then [k] — packet-in/packet-out through the CPU. The RX
    interrupt goes through {!Kernel.try_interrupt}: when the run queues
    are full the frame is refused and [on_busy] fires with the core's
    drain time instead — EAGAIN at the NIC rather than an interrupt storm.
    A kernel without a [run_queue_capacity] never refuses. The TX
    completion of admitted work is never refused. *)
