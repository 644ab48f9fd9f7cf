(* Metrics from a run's episodes. End-to-end metrics come from untraced
   episodes (host times as medians over episodes); per-layer metrics come
   from the first traced episode. *)

open Workloads

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

let ratio a b = if b = 0. then 0. else a /. b

(* Medians over the episodes of ops/s, events/s and set-up seconds, as
   measured on the wall clock. *)
let host_figures (eps : episode list) =
  let med f = median (List.map f eps) in
  ( med (fun e -> float_of_int e.completed /. e.measure_s),
    med (fun e -> float_of_int e.events /. e.measure_s),
    med (fun e -> e.setup_s) )

(* [slowdown]: the run's median calibration-probe time over its reference
   time (see {!Calib}); the host figures are rescaled by it. *)
let end_to_end ~peak_heap_bytes ~slowdown (eps : episode list) =
  let first = List.hd eps in
  let ops, events, setup = host_figures eps in
  [
    m "host_ops_per_s" "1/s" (ops *. slowdown);
    m "host_events_per_s" "1/s" (events *. slowdown);
    m "setup_s" "s" (setup /. slowdown);
    m "host_peak_heap_mb" "MB" (peak_heap_bytes /. 1e6);
    m "sim_op_p50_us" "sim_us" (first.sim_p50_ns /. 1e3);
    m "sim_op_p99_us" "sim_us" (first.sim_p99_ns /. 1e3);
    m "sim_ops_per_s" "1/sim_s" (ratio (float_of_int first.completed) first.sim_s);
  ]

(* Host seconds of the traced measured phase charged to [layer]. *)
let self_seconds (t : episode) layer =
  match t.tracer with
  | Some tr -> float_of_int tr.self_ns.(Layers.index layer) *. 1e-9
  | None ->
    (* Multi-engine runs cannot be stepped from outside: the whole measured
       phase stays unattributed. *)
    if layer = Layers.Engine_only then t.measure_s else 0.

let per_layer ~(untraced : episode list) ~(traced : episode list) =
  let t = List.hd traced in
  let u = List.hd untraced in
  let k = t.counts in
  let c = float_of_int in
  let self layer = ratio (self_seconds t layer) t.measure_s in
  let med f l = median (List.map f l) in
  let ck f = match t.checkpoint with Some c -> float_of_int (f c) | None -> 0. in
  [
    m "flash.nand_programs" "count" (c k.Layers.nand_programs);
    m "flash.nand_reads" "count" (c k.Layers.nand_reads);
    m "flash.erases" "count" (c k.Layers.erases);
    m "flash.gc_runs" "count" (c k.Layers.gc_runs);
    m "flash.waf" "ratio"
      (ratio (c k.Layers.ftl_host_writes +. c k.Layers.gc_moves) (c k.Layers.ftl_host_writes));
    m "flash.self_frac" "ratio" (self Layers.Flash);
    m "fs.block_writes" "count" (c k.Layers.fs_block_writes);
    m "fs.cache_hit_ratio" "ratio"
      (ratio (c k.Layers.fs_cache_hits) (c k.Layers.fs_block_reads));
    m "fs.self_frac" "ratio" (self Layers.Fs);
    m "iommu.translations" "count" (c k.Layers.translations);
    m "iommu.tlb_hit_ratio" "ratio"
      (ratio (c k.Layers.tlb_hits) (c k.Layers.tlb_hits +. c k.Layers.tlb_misses));
    m "iommu.walks" "count" (c k.Layers.walks);
    m "virtio.self_frac" "ratio" (self Layers.Virtio);
    m "iommu.maps" "count" (c k.Layers.maps);
    m "iommu.unmaps" "count" (c k.Layers.unmaps);
    m "bus.routed" "count" (c k.Layers.routed);
    m "bus.control_bytes" "B" (c k.Layers.control_bytes);
    m "bus.token_failures" "count" (c k.Layers.token_failures);
    m "bus.station_busy_frac" "ratio"
      (ratio (c k.Layers.station_busy_ns *. 1e-9) t.sim_s);
    m "bus.station_wait_us_per_job" "sim_us"
      (ratio (c k.Layers.station_wait_ns /. 1e3) (c k.Layers.station_jobs));
    m "bus.self_frac" "ratio" (self Layers.Bus);
    m "device.retries" "count" (c k.Layers.retries);
    m "device.gave_up" "count" (c k.Layers.gave_up);
    m "device.request_p99_us" "sim_us" (t.device_p99_ns /. 1e3);
    m "memctl.self_frac" "ratio" (self Layers.Memctl);
    m "net.frames" "count" (c k.Layers.frames);
    m "net.bytes" "B" (c k.Layers.net_bytes);
    m "net.self_frac" "ratio" (self Layers.Net);
    m "kv.gets" "count" (c k.Layers.kv_gets);
    m "kv.puts" "count" (c k.Layers.kv_puts);
    m "kv.self_frac" "ratio" (self Layers.Kv);
    m "sim.events" "count" (float_of_int t.events);
    m "sim.host_ns_per_event" "ns"
      (med (fun e -> ratio (e.measure_s *. 1e9) (float_of_int e.events)) untraced);
    m "sim.minor_words_per_op" "words/op" (ratio u.minor_words (float_of_int u.completed));
    m "sim.major_collections" "count" (float_of_int u.major_collections);
    m "sim.trace_entries" "count" (c k.Layers.trace_entries);
    m "sim.engine_only_self_frac" "ratio" (self Layers.Engine_only);
    m "checkpoint.save_ms" "ms" (ck (fun c -> c.save_ns) /. 1e6);
    m "checkpoint.restore_ms" "ms" (ck (fun c -> c.restore_ns) /. 1e6);
    m "checkpoint.bytes" "B" (ck (fun c -> c.bytes));
    m "temporal.lanes2_vs_lanes1" "ratio" (Option.value t.lanes_ratio ~default:0.);
    m "trace.measured_s" "s" t.measure_s;
    m "trace.overhead_frac" "ratio"
      (ratio (med (fun e -> e.measure_s) traced) (med (fun e -> e.measure_s) untraced) -. 1.);
  ]

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let json ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (json_number x.value)
             x.unit_)
         metrics)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed body
