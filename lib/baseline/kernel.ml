module Engine = Lastcpu_sim.Engine
module Station = Lastcpu_sim.Station
module Costs = Lastcpu_sim.Costs

type t = {
  engine : Engine.t;
  stations : Station.t array;
  mutable syscall_count : int;
  mutable interrupt_count : int;
  mutable eagain_count : int;
}

let create engine ?(cores = 1) ?run_queue_capacity () =
  if cores <= 0 then invalid_arg "Kernel.create: cores must be positive";
  (match run_queue_capacity with
  | Some cap when cap <= 0 ->
    invalid_arg "Kernel.create: run_queue_capacity must be positive"
  | _ -> ());
  {
    engine;
    stations = Array.init cores (fun _ -> Station.create ?capacity:run_queue_capacity engine);
    syscall_count = 0;
    interrupt_count = 0;
    eagain_count = 0;
  }

(* Least-loaded dispatch approximates an SMP scheduler. *)
let pick t =
  let best = ref t.stations.(0) in
  Array.iter
    (fun s -> if Station.queue_length s < Station.queue_length !best then best := s)
    t.stations;
  !best

type entry = Syscall | Interrupt

(* The one way into the kernel: [extra] ns of service on top of the
   entry's crossing and [kernel_op_ns], on the least-loaded core. A
   [bounded] entry is refused EAGAIN-style when that core's run queue is
   full, with the core's drain time as the retry-after hint; an unbounded
   one always queues. Without a run-queue capacity the two are the same. *)
let enter t entry ~bounded ~extra k =
  let station = pick t in
  let crossing =
    match entry with Syscall -> Costs.syscall_ns | Interrupt -> Costs.interrupt_ns
  in
  let service = Int64.add crossing (Int64.add Costs.kernel_op_ns extra) in
  let admitted =
    if bounded then Station.try_submit station ~service k
    else begin
      Station.submit station ~service k;
      `Accepted
    end
  in
  match admitted with
  | `Accepted ->
    (match entry with
    | Syscall -> t.syscall_count <- t.syscall_count + 1
    | Interrupt -> t.interrupt_count <- t.interrupt_count + 1);
    `Ok
  | `Rejected ->
    t.eagain_count <- t.eagain_count + 1;
    `Eagain (Station.drain_ns station ~now:(Engine.now t.engine))

let syscall t ?(extra = 0L) k =
  match enter t Syscall ~bounded:false ~extra k with `Ok | `Eagain _ -> ()

let interrupt t k =
  match enter t Interrupt ~bounded:false ~extra:0L k with `Ok | `Eagain _ -> ()

let try_syscall t k = enter t Syscall ~bounded:true ~extra:0L k
let try_interrupt t k = enter t Interrupt ~bounded:true ~extra:0L k

let syscalls t = t.syscall_count
let interrupts t = t.interrupt_count
let eagains t = t.eagain_count
