type t = {
  engine : Engine.t;
  capacity : int option;
  mutable busy_until : int64;
  mutable in_flight : int;
  mutable completed : int;
  mutable rejected : int;
  mutable busy_total : int64;
  mutable wait_total : int64;
  m_rejected : Metrics.counter option;
}

let create ?capacity ?telemetry engine =
  (match capacity with
  | Some cap when cap <= 0 -> invalid_arg "Station.create: capacity must be positive"
  | _ -> ());
  let m_rejected =
    (* Instruments appear in the registry only when the station is bounded:
       an unbounded station (the default) leaves telemetry snapshots
       bit-identical to builds without the overload layer. *)
    match (capacity, telemetry) with
    | Some cap, Some (m, actor) ->
      Metrics.set (Metrics.gauge m ~actor ~name:"queue_limit") (float_of_int cap);
      Some (Metrics.counter m ~actor ~name:"rejected")
    | _ -> None
  in
  {
    engine;
    capacity;
    busy_until = 0L;
    in_flight = 0;
    completed = 0;
    rejected = 0;
    busy_total = 0L;
    wait_total = 0L;
    m_rejected;
  }

let submit t ~service k =
  assert (service >= 0L);
  let now = Engine.now t.engine in
  let start = if t.busy_until > now then t.busy_until else now in
  let finish = Int64.add start service in
  t.busy_until <- finish;
  t.in_flight <- t.in_flight + 1;
  t.busy_total <- Int64.add t.busy_total service;
  t.wait_total <- Int64.add t.wait_total (Int64.sub start now);
  Engine.schedule_at t.engine ~time:finish (fun () ->
      t.in_flight <- t.in_flight - 1;
      t.completed <- t.completed + 1;
      k ())

let try_submit t ~service k =
  match t.capacity with
  | Some cap when t.in_flight >= cap ->
    t.rejected <- t.rejected + 1;
    (match t.m_rejected with Some c -> Metrics.incr c | None -> ());
    `Rejected
  | _ ->
    submit t ~service k;
    `Accepted

let queue_length t = t.in_flight
let capacity t = t.capacity
let jobs_completed t = t.completed
let jobs_rejected t = t.rejected
let busy_ns t = t.busy_total
let total_wait_ns t = t.wait_total

(* Checkpoint support. Completion callbacks of in-flight jobs live in the
   engine queue and are not reconstructible here, so checkpoints are only
   taken when the station is drained (in_flight = 0, enforced by the
   engine's quiescence protocol); the scalar accounting below is the whole
   state. *)
let save w t =
  Snapshot.W.int64 w t.busy_until;
  Snapshot.W.varint w t.in_flight;
  Snapshot.W.varint w t.completed;
  Snapshot.W.varint w t.rejected;
  Snapshot.W.int64 w t.busy_total;
  Snapshot.W.int64 w t.wait_total

let restore r t =
  t.busy_until <- Snapshot.R.int64 r;
  t.in_flight <- Snapshot.R.varint r;
  t.completed <- Snapshot.R.varint r;
  t.rejected <- Snapshot.R.varint r;
  t.busy_total <- Snapshot.R.int64 r;
  t.wait_total <- Snapshot.R.int64 r

let drain_ns t ~now =
  if t.busy_until > now then Int64.sub t.busy_until now else 0L

let utilization t ~now =
  if now <= 0L then 0.
  else Int64.to_float t.busy_total /. Int64.to_float now
