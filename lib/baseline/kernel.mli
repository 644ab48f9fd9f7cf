(** The centralized comparator's CPU + OS kernel.

    Models the architecture the paper wants to remove: one (or a few)
    general-purpose cores running a monolithic kernel that mediates every
    control operation (and, for the classic configuration, every I/O
    completion) via syscalls and interrupts.

    Each syscall costs a user/kernel crossing plus kernel service time *on
    a CPU core*; cores are FIFO stations, so control operations from all
    applications contend on them — exactly the serialization the
    decentralized design distributes across devices and the bus. *)

type t

val create :
  Lastcpu_sim.Engine.t -> ?cores:int -> ?run_queue_capacity:int -> unit -> t
(** [cores] defaults to 1 (the last CPU...). [run_queue_capacity] bounds
    each core's run queue for the [try_*] admission variants; default
    [None] keeps queues unbounded and [try_*] always accepts. *)

val syscall : t -> name:string -> ?extra:int64 -> (unit -> unit) -> unit
(** [syscall t ~name k]: enter the kernel, run [kernel_op_ns + extra] of
    service on the least-loaded core, then [k] at completion time. *)

val interrupt : t -> name:string -> ?extra:int64 -> (unit -> unit) -> unit
(** Device interrupt: costs [interrupt_ns + kernel_op_ns + extra] of core
    time. *)

val try_syscall :
  t ->
  name:string ->
  ?extra:int64 ->
  (unit -> unit) ->
  [ `Ok | `Eagain of int64 ]
(** EAGAIN-style admission: like [syscall], but when the least-loaded
    core's run queue is at [run_queue_capacity] the work is refused with
    [`Eagain retry_after_ns] (that core's drain time) instead of queueing.
    Without a capacity this always returns [`Ok]. *)

val try_interrupt :
  t ->
  name:string ->
  ?extra:int64 ->
  (unit -> unit) ->
  [ `Ok | `Eagain of int64 ]

val syscalls : t -> int
val interrupts : t -> int

val eagains : t -> int
(** Control operations refused by [try_syscall]/[try_interrupt]. *)
