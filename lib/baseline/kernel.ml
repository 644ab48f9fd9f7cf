module Engine = Lastcpu_sim.Engine
module Station = Lastcpu_sim.Station
module Costs = Lastcpu_sim.Costs

type t = {
  engine : Engine.t;
  stations : Station.t array;
  run_queue_capacity : int option;
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
    run_queue_capacity;
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

let syscall t ~name ?(extra = 0L) k =
  ignore name;
  t.syscall_count <- t.syscall_count + 1;
  let service =
    Int64.add Costs.syscall_ns (Int64.add Costs.kernel_op_ns extra)
  in
  Station.submit (pick t) ~service k

let interrupt t ~name ?(extra = 0L) k =
  ignore name;
  t.interrupt_count <- t.interrupt_count + 1;
  let service =
    Int64.add Costs.interrupt_ns (Int64.add Costs.kernel_op_ns extra)
  in
  Station.submit (pick t) ~service k

(* Bounded-admission variants: with a run-queue capacity, a full
   least-loaded core refuses the work EAGAIN-style instead of queueing it
   unboundedly; the retry-after hint is that core's drain time. Without a
   capacity these are exactly [syscall]/[interrupt]. *)
let try_syscall t ~name ?(extra = 0L) k =
  let station = pick t in
  let service =
    Int64.add Costs.syscall_ns (Int64.add Costs.kernel_op_ns extra)
  in
  ignore name;
  match Station.try_submit station ~service k with
  | `Accepted ->
    t.syscall_count <- t.syscall_count + 1;
    `Ok
  | `Rejected ->
    t.eagain_count <- t.eagain_count + 1;
    `Eagain (Station.drain_ns station ~now:(Engine.now t.engine))

let try_interrupt t ~name ?(extra = 0L) k =
  let station = pick t in
  let service =
    Int64.add Costs.interrupt_ns (Int64.add Costs.kernel_op_ns extra)
  in
  ignore name;
  match Station.try_submit station ~service k with
  | `Accepted ->
    t.interrupt_count <- t.interrupt_count + 1;
    `Ok
  | `Rejected ->
    t.eagain_count <- t.eagain_count + 1;
    `Eagain (Station.drain_ns station ~now:(Engine.now t.engine))

let syscalls t = t.syscall_count
let interrupts t = t.interrupt_count
let eagains t = t.eagain_count
let run_queue_capacity t = t.run_queue_capacity
let cores t = Array.length t.stations

let busy_ns t =
  Array.fold_left (fun acc s -> Int64.add acc (Station.busy_ns s)) 0L t.stations

let total_wait_ns t =
  Array.fold_left
    (fun acc s -> Int64.add acc (Station.total_wait_ns s))
    0L t.stations

let utilization t =
  let now = Engine.now t.engine in
  if now <= 0L then 0.
  else
    Int64.to_float (busy_ns t)
    /. (Int64.to_float now *. float_of_int (Array.length t.stations))
