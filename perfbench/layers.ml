(* Per-layer attribution, read from outside the program: every number here
   comes from a public accessor or from [Metrics.find]/[counter_read] on a
   key the machine already registered. Nothing registers an instrument, so
   the metrics digest is the same with and without tracing. *)

module Engine = Lastcpu_sim.Engine
module Metrics = Lastcpu_sim.Metrics
module Station = Lastcpu_sim.Station
module Trace = Lastcpu_sim.Trace
module System = Lastcpu_core.System
module Smart_ssd = Lastcpu_devices.Smart_ssd
module Smart_nic = Lastcpu_devices.Smart_nic
module Memctl = Lastcpu_devices.Memctl
module Ftl = Lastcpu_flash.Ftl
module Nand = Lastcpu_flash.Nand
module Iommu = Lastcpu_iommu.Iommu
module Sysbus = Lastcpu_bus.Sysbus
module Netsim = Lastcpu_net.Netsim
module Store = Lastcpu_kv.Store

(* Deepest first: a step is charged to the first layer in this order whose
   counter moved during it. *)
type layer = Flash | Fs | Virtio | Bus | Memctl | Kv | Net | Engine_only

let layers = [| Flash; Fs; Virtio; Bus; Memctl; Kv; Net; Engine_only |]

let index = function
  | Flash -> 0
  | Fs -> 1
  | Virtio -> 2
  | Bus -> 3
  | Memctl -> 4
  | Kv -> 5
  | Net -> 6
  | Engine_only -> 7

let name = function
  | Flash -> "flash"
  | Fs -> "fs"
  | Virtio -> "virtio"
  | Bus -> "bus"
  | Memctl -> "memctl"
  | Kv -> "kv"
  | Net -> "net"
  | Engine_only -> "engine_only"

(* One monotone reading per layer (Engine_only has none). *)
type probe = { readers : (unit -> int) array; last : int array }

let probe readers =
  let n = Array.length layers - 1 in
  let r = Array.make n (fun () -> 0) in
  List.iter (fun (l, f) -> if l <> Engine_only then r.(index l) <- f) readers;
  { readers = r; last = Array.map (fun f -> f ()) r }

(* The deepest layer whose reading moved since the last call. *)
let charge p =
  let hit = ref Engine_only in
  for i = Array.length p.readers - 1 downto 0 do
    let v = p.readers.(i) () in
    if v <> p.last.(i) then begin
      p.last.(i) <- v;
      hit := layers.(i)
    end
  done;
  !hit

(* --- readings of a built machine ------------------------------------------ *)

let sum_list f l () = List.fold_left (fun acc x -> acc + f x) 0 l

let device_ids system =
  List.map Smart_nic.id (System.nics system)
  @ List.map Smart_ssd.id (System.ssds system)
  @ List.map Memctl.id (System.memctls system)

(* Actors that already own a counter of this name. *)
let actors_with m name =
  List.filter
    (fun actor ->
      match Metrics.find m ~actor ~name with
      | Some (Metrics.Counter_v _) -> true
      | _ -> false)
    (Metrics.actors m)

let counter_sum m names actors () =
  List.fold_left
    (fun acc actor ->
      List.fold_left (fun acc name -> acc + Metrics.counter_read m ~actor ~name) acc names)
    0 actors

let nands system = List.map (fun s -> Ftl.nand (Smart_ssd.ftl s)) (System.ssds system)
let ftls system = List.map Smart_ssd.ftl (System.ssds system)

let iommus system =
  let bus = System.bus system in
  List.map (Sysbus.iommu_of bus) (device_ids system)

let system_probe ?store system =
  let m = Engine.metrics (System.engine system) in
  let nands = nands system in
  let iommus = iommus system in
  let stations = Sysbus.stations (System.bus system) in
  let bus_actor = Sysbus.actor (System.bus system) in
  let fs_actors = actors_with m "block_writes" in
  let dev_actors = actors_with m "handled" in
  let memctls = System.memctls system in
  let net = System.net system in
  probe
    [
      (Flash, sum_list (fun n -> Nand.programs n + Nand.reads n + Nand.total_erases n) nands);
      (Fs, counter_sum m [ "block_reads"; "block_writes" ] fs_actors);
      (Virtio, sum_list (fun i -> Iommu.translations i + Iommu.walks i) iommus);
      ( Bus,
        fun () ->
          List.fold_left (fun a s -> a + Station.jobs_completed s) 0 stations
          + Metrics.counter_read m ~actor:bus_actor ~name:"routed" );
      ( Memctl,
        fun () ->
          sum_list Memctl.used_pages memctls ()
          + counter_sum m [ "handled"; "sent" ] dev_actors () );
      ( Kv,
        match store with
        | Some s -> fun () -> Store.gets s + Store.puts s
        | None -> fun () -> 0 );
      (Net, fun () -> Netsim.frames_delivered net);
    ]

(* --- counts over a phase ---------------------------------------------------- *)

(* Readings summed over every machine given, taken before and after a
   phase; the per-layer metrics are formulas over their differences. *)
type counts = {
  nand_programs : int;
  nand_reads : int;
  erases : int;
  gc_runs : int;
  gc_moves : int;
  ftl_host_writes : int;
  fs_block_reads : int;
  fs_block_writes : int;
  fs_cache_hits : int;
  translations : int;
  tlb_hits : int;
  tlb_misses : int;
  walks : int;
  maps : int;
  unmaps : int;
  routed : int;
  control_bytes : int;
  token_failures : int;
  station_busy_ns : int;
  station_wait_ns : int;
  station_jobs : int;
  retries : int;
  gave_up : int;
  frames : int;
  net_bytes : int;
  kv_gets : int;
  kv_puts : int;
  trace_entries : int;
  events : int;
}

let map2 f a b =
  {
    nand_programs = f a.nand_programs b.nand_programs;
    nand_reads = f a.nand_reads b.nand_reads;
    erases = f a.erases b.erases;
    gc_runs = f a.gc_runs b.gc_runs;
    gc_moves = f a.gc_moves b.gc_moves;
    ftl_host_writes = f a.ftl_host_writes b.ftl_host_writes;
    fs_block_reads = f a.fs_block_reads b.fs_block_reads;
    fs_block_writes = f a.fs_block_writes b.fs_block_writes;
    fs_cache_hits = f a.fs_cache_hits b.fs_cache_hits;
    translations = f a.translations b.translations;
    tlb_hits = f a.tlb_hits b.tlb_hits;
    tlb_misses = f a.tlb_misses b.tlb_misses;
    walks = f a.walks b.walks;
    maps = f a.maps b.maps;
    unmaps = f a.unmaps b.unmaps;
    routed = f a.routed b.routed;
    control_bytes = f a.control_bytes b.control_bytes;
    token_failures = f a.token_failures b.token_failures;
    station_busy_ns = f a.station_busy_ns b.station_busy_ns;
    station_wait_ns = f a.station_wait_ns b.station_wait_ns;
    station_jobs = f a.station_jobs b.station_jobs;
    retries = f a.retries b.retries;
    gave_up = f a.gave_up b.gave_up;
    frames = f a.frames b.frames;
    net_bytes = f a.net_bytes b.net_bytes;
    kv_gets = f a.kv_gets b.kv_gets;
    kv_puts = f a.kv_puts b.kv_puts;
    trace_entries = f a.trace_entries b.trace_entries;
    events = f a.events b.events;
  }

let read_counts system =
  let engine = System.engine system in
  let m = Engine.metrics engine in
  let bus = Sysbus.counters (System.bus system) in
  let stations = Sysbus.stations (System.bus system) in
  let sum f l = List.fold_left (fun a x -> a + f x) 0 l in
  let fs_actors = actors_with m "block_writes" in
  let dev_actors = actors_with m "retries" in
  let kv_actors = actors_with m "gets" in
  let c name actors = counter_sum m [ name ] actors () in
  let net = System.net system in
  {
    nand_programs = sum Nand.programs (nands system);
    nand_reads = sum Nand.reads (nands system);
    erases = sum Nand.total_erases (nands system);
    gc_runs = sum Ftl.gc_runs (ftls system);
    gc_moves = sum Ftl.moved_pages (ftls system);
    ftl_host_writes = sum Ftl.host_writes (ftls system);
    fs_block_reads = c "block_reads" fs_actors;
    fs_block_writes = c "block_writes" fs_actors;
    fs_cache_hits = c "cache_hits" fs_actors;
    translations = sum Iommu.translations (iommus system);
    tlb_hits = sum Iommu.tlb_hits (iommus system);
    tlb_misses = sum Iommu.tlb_misses (iommus system);
    walks = sum Iommu.walks (iommus system);
    maps = bus.Sysbus.maps_programmed;
    unmaps = bus.Sysbus.unmaps;
    routed = bus.Sysbus.routed;
    control_bytes = bus.Sysbus.control_bytes;
    token_failures = bus.Sysbus.token_failures;
    station_busy_ns = sum (fun s -> Int64.to_int (Station.busy_ns s)) stations;
    station_wait_ns = sum (fun s -> Int64.to_int (Station.total_wait_ns s)) stations;
    station_jobs = sum Station.jobs_completed stations;
    retries = c "retries" dev_actors;
    gave_up = c "gave_up" dev_actors;
    frames = Netsim.frames_delivered net;
    net_bytes = Netsim.bytes_carried net;
    kv_gets = c "gets" kv_actors;
    kv_puts = c "puts" kv_actors;
    trace_entries = Trace.length (Engine.trace engine);
    events = Engine.events_executed engine;
  }

let counts_of = function
  | [] -> invalid_arg "Layers.counts_of: no machine"
  | s :: rest ->
    List.fold_left (fun acc s -> map2 ( + ) acc (read_counts s)) (read_counts s) rest

let diff_counts after before = map2 ( - ) after before

(* Worst p99 of the device request-latency histograms ([request_ns]), in
   virtual ns. *)
let device_request_p99_ns system =
  let m = Engine.metrics (System.engine system) in
  List.fold_left
    (fun acc actor ->
      match Metrics.find m ~actor ~name:"request_ns" with
      | Some (Metrics.Histogram_v r) when r.Lastcpu_sim.Stats.n > 0 ->
        Float.max acc r.Lastcpu_sim.Stats.p99
      | _ -> acc)
    0. (Metrics.actors m)

(* Pages the memory controllers hold, and pages mapped in every device's
   IOMMU: control-churn must leave both where it found them. *)
let used_pages system = sum_list Memctl.used_pages (System.memctls system) ()

let mapped_pages system =
  List.fold_left
    (fun acc iommu ->
      List.fold_left
        (fun acc pasid -> acc + Iommu.mapped_pages iommu ~pasid)
        acc (Iommu.pasids iommu))
    0 (iommus system)
