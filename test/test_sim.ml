(* Tests for the simulation substrate: heap, rng, stats, trace, engine,
   station. *)

module Heap = Lastcpu_sim.Heap
module Rng = Lastcpu_sim.Rng
module Stats = Lastcpu_sim.Stats
module Trace = Lastcpu_sim.Trace
module Engine = Lastcpu_sim.Engine
module Station = Lastcpu_sim.Station

(* --- Heap ------------------------------------------------------------- *)

let test_heap_basic () =
  let h = Heap.create () in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Heap.push h ~priority:3L "c";
  Heap.push h ~priority:1L "a";
  Heap.push h ~priority:2L "b";
  Alcotest.(check int) "length" 3 (Heap.length h);
  Alcotest.(check (option (pair int64 string))) "peek" (Some (1L, "a")) (Heap.peek h);
  Alcotest.(check (option (pair int64 string))) "pop a" (Some (1L, "a")) (Heap.pop h);
  Alcotest.(check (option (pair int64 string))) "pop b" (Some (2L, "b")) (Heap.pop h);
  Alcotest.(check (option (pair int64 string))) "pop c" (Some (3L, "c")) (Heap.pop h);
  Alcotest.(check (option (pair int64 string))) "pop empty" None (Heap.pop h)

let test_heap_fifo_ties () =
  let h = Heap.create () in
  List.iter (fun v -> Heap.push h ~priority:5L v) [ "first"; "second"; "third" ];
  let order = List.map snd (Heap.to_sorted_list h) in
  Alcotest.(check (list string)) "FIFO among ties" [ "first"; "second"; "third" ] order

let test_heap_clear () =
  let h = Heap.create () in
  for i = 1 to 10 do
    Heap.push h ~priority:(Int64.of_int i) i
  done;
  Heap.clear h;
  Alcotest.(check int) "cleared" 0 (Heap.length h)

(* Pop order among equal priorities under each tie-break mode. *)
let tie_order tie =
  let h = Heap.create ~tie () in
  List.iter (fun v -> Heap.push h ~priority:7L v) [ "a"; "b"; "c"; "d" ];
  List.map snd (Heap.to_sorted_list h)

let test_heap_lifo_ties () =
  Alcotest.(check (list string))
    "LIFO among ties" [ "d"; "c"; "b"; "a" ] (tie_order Heap.Lifo)

let test_heap_salted_ties () =
  let o1 = tie_order (Heap.Salted 0xABCL) in
  let o2 = tie_order (Heap.Salted 0xABCL) in
  Alcotest.(check (list string)) "salted order is deterministic" o1 o2;
  Alcotest.(check (list string))
    "salted order is a permutation of the ties"
    [ "a"; "b"; "c"; "d" ] (List.sort compare o1)

(* A small hint must not cap the heap: growth past the initial capacity
   keeps every entry and the order. *)
let test_heap_growth () =
  let h = Heap.create ~hint:2 () in
  for i = 999 downto 0 do
    Heap.push h ~priority:(Int64.of_int i) i
  done;
  Alcotest.(check (list int))
    "sorted after growth" (List.init 1000 Fun.id)
    (List.map snd (Heap.to_sorted_list h))

let test_heap_top_accessors () =
  let h = Heap.create () in
  Alcotest.check_raises "top_prio on empty"
    (Invalid_argument "Heap.top_prio: empty heap") (fun () ->
      ignore (Heap.top_prio h));
  Alcotest.check_raises "pop_top on empty"
    (Invalid_argument "Heap.pop_top: empty heap") (fun () ->
      ignore (Heap.pop_top h));
  Heap.push h ~priority:9L "late";
  Heap.push h ~priority:4L "early";
  Alcotest.(check int64) "top_prio" 4L (Heap.top_prio h);
  Alcotest.(check string) "pop_top" "early" (Heap.pop_top h);
  Alcotest.(check int64) "top_prio after pop" 9L (Heap.top_prio h)

(* Regression for the pop space leak: a popped entry must not linger in the
   vacated tail slot of the backing array. A weak pointer to the popped
   value must die at the next major collection even though the heap (and
   its array) stays live. *)
let test_heap_pop_clears_slot () =
  let h = Heap.create () in
  let w = Weak.create 1 in
  let push_tracked () =
    let v = Bytes.make 8 'x' in
    Weak.set w 0 (Some v);
    Heap.push h ~priority:1L v
  in
  push_tracked ();
  Heap.push h ~priority:2L Bytes.empty (* keeps the backing array live *);
  ignore (Heap.pop h);
  Gc.full_major ();
  Alcotest.(check bool)
    "vacated slot does not retain the popped value" true (Weak.get w 0 = None);
  Alcotest.(check int) "survivor still queued" 1 (Heap.length h)

let heap_sorted_prop =
  QCheck.Test.make ~name:"heap pops in nondecreasing priority order" ~count:200
    QCheck.(list (int_bound 1000))
    (fun priorities ->
      let h = Heap.create () in
      List.iteri (fun i p -> Heap.push h ~priority:(Int64.of_int p) i) priorities;
      let popped = List.map fst (Heap.to_sorted_list h) in
      let rec nondecreasing = function
        | a :: (b :: _ as rest) -> a <= b && nondecreasing rest
        | _ -> true
      in
      nondecreasing popped && List.length popped = List.length priorities)

(* --- Rng -------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:99L and b = Rng.create ~seed:99L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_split_independent () =
  let root = Rng.create ~seed:1L in
  let a = Rng.split root in
  let b = Rng.split root in
  Alcotest.(check bool) "split streams differ" true
    (not (Int64.equal (Rng.int64 a) (Rng.int64 b)))

let test_rng_bounds () =
  let r = Rng.create ~seed:5L in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    Alcotest.(check bool) "in [0,17)" true (v >= 0 && v < 17)
  done

let test_rng_float_range () =
  let r = Rng.create ~seed:6L in
  for _ = 1 to 1000 do
    let f = Rng.float r in
    Alcotest.(check bool) "in [0,1)" true (f >= 0. && f < 1.)
  done

let test_rng_zipf_bounds_and_skew () =
  let r = Rng.create ~seed:7L in
  let n = 100 in
  let counts = Array.make n 0 in
  let samples = 20_000 in
  for _ = 1 to samples do
    let v = Rng.zipf r ~n ~theta:0.99 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < n);
    counts.(v) <- counts.(v) + 1
  done;
  (* Rank 0 should dominate rank 50 heavily under theta=0.99. *)
  Alcotest.(check bool) "skewed" true (counts.(0) > 5 * max 1 counts.(50))

let test_rng_exponential_mean () =
  let r = Rng.create ~seed:8L in
  let n = 50_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential r ~mean:100.
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean within 5%" true (abs_float (mean -. 100.) < 5.)

let test_rng_shuffle_permutation () =
  let r = Rng.create ~seed:9L in
  let a = Array.init 50 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

(* --- Stats ------------------------------------------------------------- *)

let test_summary_moments () =
  let s = Stats.Summary.create () in
  List.iter (Stats.Summary.add s) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  Alcotest.(check int) "count" 8 (Stats.Summary.count s);
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Stats.Summary.mean s);
  Alcotest.(check (float 1e-9)) "min" 2.0 (Stats.Summary.min s);
  Alcotest.(check (float 1e-9)) "max" 9.0 (Stats.Summary.max s);
  (* population variance = 4; sample variance = 32/7 *)
  Alcotest.(check (float 1e-9)) "variance" (32. /. 7.) (Stats.Summary.variance s)

let test_summary_merge () =
  let a = Stats.Summary.create () and b = Stats.Summary.create () in
  let whole = Stats.Summary.create () in
  for i = 1 to 100 do
    let v = float_of_int (i * i mod 37) in
    Stats.Summary.add whole v;
    if i <= 50 then Stats.Summary.add a v else Stats.Summary.add b v
  done;
  let merged = Stats.Summary.merge a b in
  Alcotest.(check int) "count" (Stats.Summary.count whole) (Stats.Summary.count merged);
  Alcotest.(check (float 1e-6)) "mean" (Stats.Summary.mean whole) (Stats.Summary.mean merged);
  Alcotest.(check (float 1e-6))
    "variance" (Stats.Summary.variance whole) (Stats.Summary.variance merged)

let test_histogram_percentiles () =
  let h = Stats.Histogram.create () in
  for i = 1 to 1000 do
    Stats.Histogram.add h (float_of_int i)
  done;
  let p50 = Stats.Histogram.percentile h 50. in
  let p99 = Stats.Histogram.percentile h 99. in
  (* log-bucketed: accept ~10% relative error *)
  Alcotest.(check bool) "p50 near 500" true (p50 > 450. && p50 < 560.);
  Alcotest.(check bool) "p99 near 990" true (p99 > 900. && p99 < 1100.);
  Alcotest.(check bool) "p100 >= p99" true (Stats.Histogram.percentile h 100. >= p99)

let test_histogram_empty () =
  let h = Stats.Histogram.create () in
  Alcotest.(check (float 0.)) "empty percentile" 0. (Stats.Histogram.percentile h 99.)

let test_histogram_merge () =
  let a = Stats.Histogram.create () and b = Stats.Histogram.create () in
  Stats.Histogram.add a 10.;
  Stats.Histogram.add b 1000.;
  let m = Stats.Histogram.merge a b in
  Alcotest.(check int) "count" 2 (Stats.Histogram.count m)

(* --- Trace -------------------------------------------------------------- *)

let test_trace_order_and_filter () =
  let t = Trace.create () in
  Trace.append t ~time:1L ~actor:"a" ~kind:"x" "one";
  Trace.append t ~time:2L ~actor:"b" ~kind:"y" "two";
  Trace.append t ~time:3L ~actor:"a" ~kind:"x" "three";
  Alcotest.(check int) "length" 3 (Trace.length t);
  let kinds = List.map (fun (e : Trace.entry) -> e.Trace.kind) (Trace.entries t) in
  Alcotest.(check (list string)) "order" [ "x"; "y"; "x" ] kinds;
  Alcotest.(check int) "filter" 2 (List.length (Trace.find_all t ~kind:"x"))

let test_trace_json_lines () =
  let t = Trace.create () in
  Trace.append t ~time:5L ~actor:"a\"b" ~kind:"k" "line\nwith \\ specials\t\x01";
  let json = Trace.to_json_lines t in
  Alcotest.(check bool) "escaped quote" true
    (String.length json > 0
    &&
    let has sub =
      let n = String.length sub and m = String.length json in
      let rec scan i = i + n <= m && (String.sub json i n = sub || scan (i + 1)) in
      scan 0
    in
    has "a\\\"b" && has "\\n" && has "\\\\" && has "\\u0001")

let test_trace_capacity () =
  let t = Trace.create ~capacity:3 () in
  for i = 1 to 10 do
    Trace.append t ~time:(Int64.of_int i) ~actor:"a" ~kind:"k" (string_of_int i)
  done;
  Alcotest.(check int) "bounded" 3 (Trace.length t);
  let details = List.map (fun (e : Trace.entry) -> e.Trace.detail) (Trace.entries t) in
  Alcotest.(check (list string)) "newest retained" [ "8"; "9"; "10" ] details

(* --- Engine -------------------------------------------------------------- *)

let test_engine_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:30L (fun () -> log := "c" :: !log);
  Engine.schedule e ~delay:10L (fun () -> log := "a" :: !log);
  Engine.schedule e ~delay:20L (fun () -> log := "b" :: !log);
  Engine.run e;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.(check int64) "clock at last event" 30L (Engine.now e)

let test_engine_fifo_same_time () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Engine.schedule e ~delay:7L (fun () -> log := i :: !log)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "insertion order" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_engine_until () =
  let e = Engine.create () in
  let ran = ref 0 in
  Engine.schedule e ~delay:10L (fun () -> incr ran);
  Engine.schedule e ~delay:100L (fun () -> incr ran);
  Engine.run ~until:50L e;
  Alcotest.(check int) "only first ran" 1 !ran;
  Alcotest.(check int64) "clock at until" 50L (Engine.now e);
  Alcotest.(check int) "one pending" 1 (Engine.pending e)

let test_engine_nested_schedule () =
  let e = Engine.create () in
  let times = ref [] in
  Engine.schedule e ~delay:5L (fun () ->
      times := Engine.now e :: !times;
      Engine.schedule e ~delay:5L (fun () -> times := Engine.now e :: !times));
  Engine.run e;
  Alcotest.(check (list int64)) "nested times" [ 5L; 10L ] (List.rev !times)

let test_engine_determinism () =
  let run_once () =
    let e = Engine.create ~seed:3L () in
    let acc = ref [] in
    let rng = Engine.fork_rng e in
    for _ = 1 to 20 do
      let d = Int64.of_int (Rng.int rng 100) in
      Engine.schedule e ~delay:d (fun () -> acc := Engine.now e :: !acc)
    done;
    Engine.run e;
    !acc
  in
  Alcotest.(check (list int64)) "identical runs" (run_once ()) (run_once ())

(* Allocation budget of the schedule->pop loop: a fixed-width wave of
   self-rescheduling events drains with trace and sanitize off. The ping
   closure is allocated once, so the minor words per event are the queue
   machinery alone. *)
let schedule_words_budget = 8.

let test_engine_allocation_budget () =
  let e = Engine.create ~trace_capacity:0 ~queue_hint:64 () in
  let remaining = ref 200_000 in
  let rec ping () =
    if !remaining > 0 then begin
      decr remaining;
      Engine.schedule e ~delay:1L ping
    end
  in
  for _ = 1 to 8 do
    Engine.schedule e ~delay:1L ping
  done;
  let w0 = Gc.minor_words () in
  Engine.run e;
  let per_event =
    (Gc.minor_words () -. w0) /. float_of_int (Engine.events_executed e)
  in
  if per_event > schedule_words_budget then
    Alcotest.failf "schedule->pop: %.2f minor words/event > budget %.0f"
      per_event schedule_words_budget

(* --- Station --------------------------------------------------------------- *)

let test_station_serializes () =
  let e = Engine.create () in
  let st = Station.create e in
  let finish = ref [] in
  Station.submit st ~service:100L (fun () -> finish := Engine.now e :: !finish);
  Station.submit st ~service:100L (fun () -> finish := Engine.now e :: !finish);
  Station.submit st ~service:100L (fun () -> finish := Engine.now e :: !finish);
  Engine.run e;
  Alcotest.(check (list int64)) "back to back" [ 100L; 200L; 300L ] (List.rev !finish);
  Alcotest.(check int) "completed" 3 (Station.jobs_completed st);
  Alcotest.(check int64) "busy" 300L (Station.busy_ns st);
  Alcotest.(check int64) "wait = 0+100+200" 300L (Station.total_wait_ns st)

let test_station_idle_gap () =
  let e = Engine.create () in
  let st = Station.create e in
  let finish = ref 0L in
  Station.submit st ~service:10L (fun () -> ());
  Engine.run e;
  (* Now idle at t=10; submit at t=10 => finishes at 20, no wait. *)
  Station.submit st ~service:10L (fun () -> finish := Engine.now e);
  Engine.run e;
  Alcotest.(check int64) "finish" 20L !finish;
  Alcotest.(check int64) "no extra wait" 0L (Station.total_wait_ns st)

let test_station_capacity_rejects () =
  let e = Engine.create () in
  let st = Station.create ~capacity:2 e in
  let ran = ref 0 in
  let admit () = Station.try_submit st ~service:100L (fun () -> incr ran) in
  Alcotest.(check bool) "first admitted" true (admit () = `Accepted);
  Alcotest.(check bool) "second admitted" true (admit () = `Accepted);
  (* Queue is at capacity (one in service + one waiting): reject. *)
  Alcotest.(check bool) "third rejected" true (admit () = `Rejected);
  Alcotest.(check int) "queue never exceeds capacity" 2 (Station.queue_length st);
  Alcotest.(check int) "rejections counted" 1 (Station.jobs_rejected st);
  (* The retry-after hint is the server's drain time: two 100ns jobs. *)
  Alcotest.(check int64) "drain hint" 200L (Station.drain_ns st ~now:0L);
  Engine.run e;
  (* Rejected job never ran, and accepted-job accounting is untouched by
     the rejection: same busy/wait as two back-to-back jobs. *)
  Alcotest.(check int) "rejected job never runs" 2 !ran;
  Alcotest.(check int) "completions" 2 (Station.jobs_completed st);
  Alcotest.(check int64) "busy" 200L (Station.busy_ns st);
  Alcotest.(check int64) "wait" 100L (Station.total_wait_ns st);
  (* Drained: capacity is available again. *)
  Alcotest.(check bool) "admits after drain" true (admit () = `Accepted);
  Engine.run e;
  Alcotest.(check int) "late job ran" 3 !ran

let test_station_unbounded_baseline () =
  (* Regression pin for the bit-identical-default rule: a station built
     without [capacity] accepts everything through [try_submit] and behaves
     exactly like the pre-overload station. *)
  let e = Engine.create () in
  let st = Station.create e in
  let finish = ref [] in
  for _ = 1 to 3 do
    match Station.try_submit st ~service:100L (fun () ->
              finish := Engine.now e :: !finish)
    with
    | `Accepted -> ()
    | `Rejected -> Alcotest.fail "unbounded station rejected a job"
  done;
  Engine.run e;
  Alcotest.(check (list int64)) "back to back" [ 100L; 200L; 300L ]
    (List.rev !finish);
  Alcotest.(check (option int)) "no capacity" None (Station.capacity st);
  Alcotest.(check int) "no rejections" 0 (Station.jobs_rejected st);
  Alcotest.(check int64) "busy" 300L (Station.busy_ns st);
  Alcotest.(check int64) "wait" 300L (Station.total_wait_ns st)

let test_station_capacity_validated () =
  let e = Engine.create () in
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Station.create: capacity must be positive") (fun () ->
      ignore (Station.create ~capacity:0 e))

let () =
  Alcotest.run "sim"
    [
      ( "heap",
        [
          Alcotest.test_case "basic order" `Quick test_heap_basic;
          Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "lifo ties" `Quick test_heap_lifo_ties;
          Alcotest.test_case "salted ties" `Quick test_heap_salted_ties;
          Alcotest.test_case "growth past hint" `Quick test_heap_growth;
          Alcotest.test_case "top accessors" `Quick test_heap_top_accessors;
          Alcotest.test_case "pop clears slot" `Quick test_heap_pop_clears_slot;
          Alcotest.test_case "clear" `Quick test_heap_clear;
          QCheck_alcotest.to_alcotest heap_sorted_prop;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_rng_bounds;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "zipf" `Quick test_rng_zipf_bounds_and_skew;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summary moments" `Quick test_summary_moments;
          Alcotest.test_case "summary merge" `Quick test_summary_merge;
          Alcotest.test_case "histogram percentiles" `Quick test_histogram_percentiles;
          Alcotest.test_case "histogram empty" `Quick test_histogram_empty;
          Alcotest.test_case "histogram merge" `Quick test_histogram_merge;
        ] );
      ( "trace",
        [
          Alcotest.test_case "order and filter" `Quick test_trace_order_and_filter;
          Alcotest.test_case "json lines" `Quick test_trace_json_lines;
          Alcotest.test_case "capacity" `Quick test_trace_capacity;
        ] );
      ( "engine",
        [
          Alcotest.test_case "ordering" `Quick test_engine_ordering;
          Alcotest.test_case "fifo same time" `Quick test_engine_fifo_same_time;
          Alcotest.test_case "until" `Quick test_engine_until;
          Alcotest.test_case "nested schedule" `Quick test_engine_nested_schedule;
          Alcotest.test_case "determinism" `Quick test_engine_determinism;
          Alcotest.test_case "allocation budget" `Quick
            test_engine_allocation_budget;
        ] );
      ( "station",
        [
          Alcotest.test_case "serializes" `Quick test_station_serializes;
          Alcotest.test_case "idle gap" `Quick test_station_idle_gap;
          Alcotest.test_case "capacity rejects" `Quick test_station_capacity_rejects;
          Alcotest.test_case "unbounded baseline" `Quick test_station_unbounded_baseline;
          Alcotest.test_case "capacity validated" `Quick test_station_capacity_validated;
        ] );
    ]
