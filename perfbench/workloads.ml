(* The four workloads. Each episode builds a fresh machine (the set-up
   phase), runs the measured phase, checks its outputs, and returns what
   the report needs. Only public entry points of the program are used. *)

module Engine = Lastcpu_sim.Engine
module Metrics = Lastcpu_sim.Metrics
module Stats = Lastcpu_sim.Stats
module Snapshot = Lastcpu_sim.Snapshot
module System = Lastcpu_core.System
module Scenario_kvs = Lastcpu_core.Scenario_kvs
module Experiments = Lastcpu_core.Experiments
module Checkpoint = Lastcpu_core.Checkpoint
module Kv_app = Lastcpu_kv.Kv_app
module Kv_proto = Lastcpu_kv.Kv_proto
module Store = Lastcpu_kv.Store
module Netsim = Lastcpu_net.Netsim
module Device = Lastcpu_device.Device
module Smart_nic = Lastcpu_devices.Smart_nic
module Smart_ssd = Lastcpu_devices.Smart_ssd
module Memctl = Lastcpu_devices.Memctl
module Types = Lastcpu_proto.Types

let now_ns = Spans.now_ns
let secs a b = Int64.to_float (Int64.sub b a) *. 1e-9

(* --- driving the engine ---------------------------------------------------- *)

(* Traced runs step the engine one event at a time; each step is timed
   with the monotonic clock and charged to the deepest layer whose counter
   moved during it. A step is charged the host time since the previous
   step ended, so work done between steps is not lost. *)
type tracer = {
  probe : Layers.probe;
  spans : Spans.t;
  self_ns : int array;
  mutable last : int64;
}

type driver = Plain | Traced of tracer

let traced_step tr e =
  let ran = Engine.step e in
  if ran then begin
    let layer = Layers.charge tr.probe in
    let now = now_ns () in
    let dur = Int64.to_int (Int64.sub now tr.last) in
    let i = Layers.index layer in
    tr.self_ns.(i) <- tr.self_ns.(i) + dur;
    Spans.step tr.spans ~host_begin:tr.last ~host_dur:dur ~layer ~vt:(Engine.now e);
    tr.last <- now
  end;
  ran

(* Run until only static events remain ([Engine.run_until_quiescent]). *)
let settle driver e =
  match driver with
  | Plain -> Engine.run_until_quiescent e
  | Traced tr ->
    while (not (Engine.quiescent e)) && traced_step tr e do
      ()
    done

(* Run every event up to and including virtual time [t] ([Engine.run ~until]). *)
let run_through driver e t =
  match driver with
  | Plain -> Engine.run ~until:t e
  | Traced tr ->
    let continue = ref true in
    while !continue do
      match Engine.next_event_time e with
      | Some t' when t' <= t -> ignore (traced_step tr e)
      | _ -> continue := false
    done

let make_driver ~traced ?store system =
  if not traced then Plain
  else
    Traced
      {
        probe = Layers.system_probe ?store system;
        spans = Spans.create ();
        self_ns = Array.make (Array.length Layers.layers) 0;
        last = now_ns ();
      }

(* --- one episode ------------------------------------------------------------ *)

type checkpoint = { save_ns : int; restore_ns : int; bytes : int }

type episode = {
  setup_s : float;
  measure_s : float;
  attempted : int;
  completed : int;
  sim_s : float;  (** virtual duration the completed ops span *)
  sim_p50_ns : float;
  sim_p99_ns : float;
  events : int;
  minor_words : float;
  major_collections : int;
  digest : int64;
  counts : Layers.counts;  (** over the measured phase *)
  device_p99_ns : float;
  checkpoint : checkpoint option;
  lanes_ratio : float option;
  tracer : tracer option;
  gate : Gate.t;
}

(* GC statistics are read outside the timed interval, on both ends; layer
   counts are read outside the marks. *)
type mark = { host : int64; minor : float; major : int }

let mark_begin () =
  let minor = Gc.minor_words () in
  let major = (Gc.quick_stat ()).Gc.major_collections in
  { host = now_ns (); minor; major }

let mark_end () =
  let host = now_ns () in
  let minor = Gc.minor_words () in
  let major = (Gc.quick_stat ()).Gc.major_collections in
  { host; minor; major }

let median xs =
  match List.sort Float.compare xs with
  | [] -> 0.
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* One set-up takes milliseconds and reads noisily: build [setup_repeats]
   machines, keep the last, and report the median time. Returns the
   machine, the host time its build began, and that median. *)
let setup_repeats = 5

let timed_setup build =
  let rec go n times =
    Gc.compact ();
    let t0 = now_ns () in
    let x = build () in
    let times = secs t0 (now_ns ()) :: times in
    if n <= 1 then (x, t0, median times) else go (n - 1) times
  in
  go setup_repeats []

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

(* Save then restore each engine as its own single-engine checkpoint. *)
let checkpoint_cost ~gate ~dir ~tag engines =
  let total = ref { save_ns = 0; restore_ns = 0; bytes = 0 } in
  Array.iteri
    (fun i e ->
      let path = Filename.concat dir (Printf.sprintf "%s-%d.snap" tag i) in
      let t0 = now_ns () in
      Checkpoint.save ~path ~tag (Checkpoint.Single e);
      let t1 = now_ns () in
      let bytes = (Unix.stat path).Unix.st_size in
      let t2 = now_ns () in
      (match Checkpoint.restore ~path ~tag (Checkpoint.Single e) with
      | Ok _ -> ()
      | Error m -> Gate.fail gate ("checkpoint restore: " ^ m));
      let t3 = now_ns () in
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        [ path; Snapshot.previous_generation path ];
      let c = !total in
      total :=
        {
          save_ns = c.save_ns + Int64.to_int (Int64.sub t1 t0);
          restore_ns = c.restore_ns + Int64.to_int (Int64.sub t3 t2);
          bytes = c.bytes + bytes;
        })
    engines;
  !total

(* The measured phase runs from [before] to [after]. A traced phase is
   spent in timed steps except for its last quiescence check: the layers'
   self times must cover all of it but that, here at most 1 ms or 1%. *)
let self_times_cover ~gate tr ~before ~after =
  let measured = Int64.to_int (Int64.sub after.host before.host) in
  let left = measured - Array.fold_left ( + ) 0 tr.self_ns in
  Gate.require gate
    (left >= 0 && left <= max 1_000_000 (measured / 100))
    (fun () ->
      Printf.sprintf "layer self times leave %d ns of the %d ns measured phase unattributed"
        left measured)

(* [t0]: host time the set-up began; [first_vt]/[last_vt]: virtual time the
   measured phase began and its last op completed. *)
let finish_episode ~gate ~driver ~t0 ~setup_s ~before ~after ~counts ~first_vt ~last_vt
    ~attempted ~completed ~lat ~digest ~device_p99_ns ~checkpoint =
  let tracer =
    match driver with
    | Plain -> None
    | Traced tr ->
      self_times_cover ~gate tr ~before ~after;
      Spans.phase tr.spans ~name:"setup" ~host_begin:t0 ~host_end:before.host ~vt_begin:0L
        ~vt_end:first_vt;
      Spans.phase tr.spans ~name:"measure" ~host_begin:before.host ~host_end:after.host
        ~vt_begin:first_vt ~vt_end:last_vt;
      Some tr
  in
  let sorted = Array.copy lat in
  Array.sort Float.compare sorted;
  {
    setup_s;
    measure_s = secs before.host after.host;
    attempted;
    completed;
    sim_s = Int64.to_float (Int64.sub last_vt first_vt) *. 1e-9;
    sim_p50_ns = percentile sorted 0.50;
    sim_p99_ns = percentile sorted 0.99;
    events = counts.Layers.events;
    minor_words = after.minor -. before.minor;
    major_collections = after.major - before.major;
    digest;
    counts;
    device_p99_ns;
    checkpoint;
    lanes_ratio = None;
    tracer;
    gate;
  }

(* --- KV workloads: closed-loop network clients against the NIC store ------- *)

type kv_shape = { mix : Gen.kv_mix; rounds : int }

(* kv-read: 16 clients, 95% Get / 5% Put, 64 B values, zipf 0.99 over 4096
   keys. Gets are answered from the NIC's in-memory index. *)
let kv_read =
  {
    mix =
      {
        Gen.clients = 16;
        ops_per_client = 5000;
        keys = 4096;
        value_bytes = 64;
        get_pct = 95;
        zipf_theta = Some 0.99;
      };
    rounds = 1;
  }

(* kv-write: 8 clients, 90% Put of 4 KiB values / 10% Get, uniform over 256
   keys, in 24 rounds of 600 ops with [Store.compact] between them (a WAL
   file caps near 4 MiB). The p99 sits on a ladder of FTL garbage-collection
   stalls. With 4 clients and 3600 ops its quartile spread over ten seeds
   was 31%; with 8 clients and 7200 ops, 11%; with 8 clients and 14400 ops,
   8 of 10 seeds gave the same p99 and 2 gave the rung 10% above it. *)
let kv_write =
  {
    mix =
      {
        Gen.clients = 8;
        ops_per_client = 1800;
        keys = 256;
        value_bytes = 4096;
        get_pct = 10;
        zipf_theta = None;
      };
    rounds = 24;
  }

let kv_machine ~gate ~spec_seed ~preload ~clients =
  let spec = { System.default_spec with System.seed = spec_seed } in
  match Scenario_kvs.run ~spec ~smoke_ops:0 () with
  | Error e -> failwith ("kv bring-up: " ^ e)
  | Ok o ->
    let system = o.Scenario_kvs.system in
    let store = Kv_app.store o.Scenario_kvs.app in
    let rec load = function
      | [] -> ()
      | (key, value) :: rest ->
        Store.put store ~key ~value (fun r ->
            (match r with Ok () -> () | Error e -> Gate.fail gate ("preload: " ^ e));
            load rest)
    in
    load preload;
    System.run_until_quiescent system;
    let net = System.net system in
    let endpoints =
      Array.init clients (fun c ->
          Netsim.endpoint net ~name:(Printf.sprintf "bench-client-%d" c))
    in
    (system, store, endpoints)

let kv_episode shape ~seed ~traced ~extras ~dir =
  let gate = Gate.create () in
  let mix = shape.mix in
  let ops = Gen.kv_ops mix ~seed in
  let preload = Gen.preload mix in
  let spec_seed = Gen.spec_seed ~seed ~salt:0x4b56 in
  let (system, store, endpoints), t0, setup_s =
    timed_setup (fun () -> kv_machine ~gate ~spec_seed ~preload ~clients:mix.Gen.clients)
  in
  let engine = System.engine system in
  let app_addr = Smart_nic.endpoint_address (System.nic system 0) in
  let per_client = mix.Gen.ops_per_client in
  if per_client mod shape.rounds <> 0 then invalid_arg "kv: rounds must divide ops";
  let per_round = per_client / shape.rounds in
  let attempted = mix.Gen.clients * per_client in
  let sent_vt = Array.make attempted 0L in
  let sent_host = Array.make attempted 0L in
  let lat = Array.make attempted 0. in
  let answered = Array.make attempted false in
  let completed = ref 0 in
  let first_vt = Engine.now engine in
  let last_vt = ref first_vt in
  let driver = make_driver ~traced ~store system in
  let spans = match driver with Traced tr -> Some tr.spans | Plain -> None in
  let round_left = ref 0 in
  let send c j =
    let corr = (c * per_client) + j in
    sent_vt.(corr) <- Engine.now engine;
    if spans <> None then sent_host.(corr) <- now_ns ();
    Netsim.send endpoints.(c) ~dst:app_addr
      (Kv_proto.encode_request { Kv_proto.corr; op = ops.(c).(j) })
  in
  let rec start_round r =
    if r < shape.rounds then begin
      round_left := mix.Gen.clients;
      Array.iteri (fun c _ -> send c (r * per_round)) endpoints
    end
  and round_done r =
    if r + 1 < shape.rounds then
      Store.compact store (fun res ->
          (match res with Ok () -> () | Error e -> Gate.fail gate ("compact: " ^ e));
          start_round (r + 1))
  in
  Array.iteri
    (fun c ep ->
      Netsim.set_receiver ep (fun ~src:_ frame ->
          match Kv_proto.decode_response frame with
          | Error e -> Gate.fail gate ("undecodable reply: " ^ e)
          | Ok { Kv_proto.corr; reply } ->
            if corr < 0 || corr >= attempted || corr / per_client <> c || answered.(corr)
            then Gate.fail gate (Printf.sprintf "stray reply corr=%d" corr)
            else begin
              let j = corr mod per_client in
              (match Gate.check_reply ops.(c).(j) reply with
              | Ok () -> ()
              | Error m -> Gate.fail gate m);
              answered.(corr) <- true;
              let now = Engine.now engine in
              lat.(corr) <- Int64.to_float (Int64.sub now sent_vt.(corr));
              incr completed;
              last_vt := now;
              (match spans with
              | Some sp ->
                Spans.op sp ~corr ~client:c ~host_begin:sent_host.(corr)
                  ~host_end:(now_ns ()) ~vt_begin:sent_vt.(corr) ~vt_end:now
              | None -> ());
              let r = j / per_round in
              if j + 1 < (r + 1) * per_round then send c (j + 1)
              else begin
                decr round_left;
                if !round_left = 0 then round_done r
              end
            end))
    endpoints;
  let counts0 = Layers.read_counts system in
  let before = mark_begin () in
  (match driver with Traced tr -> tr.last <- before.host | Plain -> ());
  start_round 0;
  settle driver engine;
  let after = mark_end () in
  let counts = Layers.diff_counts (Layers.read_counts system) counts0 in
  if !completed <> attempted then
    Gate.fail gate ~count:(attempted - !completed)
      (Printf.sprintf "%d of %d ops never answered" (attempted - !completed) attempted);
  let digest = Metrics.digest (Engine.metrics engine) in
  let checkpoint =
    if extras then Some (checkpoint_cost ~gate ~dir ~tag:"kv" [| engine |]) else None
  in
  finish_episode ~gate ~driver ~t0 ~setup_s ~before ~after ~counts ~first_vt
    ~last_vt:!last_vt ~attempted ~completed:!completed ~lat ~digest
    ~device_p99_ns:(Layers.device_request_p99_ns system)
    ~checkpoint

(* --- control-churn: alloc -> grant -> free on the system bus ---------------- *)

let churn_apps = 8
let churn_memctls = 2
let churn_bytes = 16384L
let churn_duration_ns = 40_000_000L

let churn_episode ~seed ~traced ~extras ~dir =
  let gate = Gate.create () in
  let apps = Gen.churn_apps ~apps:churn_apps ~seed in
  let spec =
    {
      System.default_spec with
      System.seed = Gen.spec_seed ~seed ~salt:0xc5;
      nic_count = churn_apps;
      memctl_count = churn_memctls;
    }
  in
  let (system, pasids), t0, setup_s =
    timed_setup (fun () ->
        let system = System.build ~spec () in
        (match System.boot system with
        | Ok () -> ()
        | Error e -> failwith ("churn boot: " ^ e));
        (system, Array.init churn_apps (fun _ -> System.fresh_pasid system)))
  in
  let engine = System.engine system in
  let mcs = Array.of_list (List.map Memctl.id (System.memctls system)) in
  let ssd = Smart_ssd.id (System.ssd system 0) in
  let used0 = Layers.used_pages system in
  let mapped0 = Layers.mapped_pages system in
  let stop = ref false in
  let attempted = ref 0 and completed = ref 0 in
  let lats = ref [] in
  let first_vt = Engine.now engine in
  let last_vt = ref first_vt in
  let driver = make_driver ~traced system in
  let spans = match driver with Traced tr -> Some tr.spans | Plain -> None in
  let start_app i =
    let dev = Smart_nic.device (System.nic system i) in
    let memctl = mcs.(i mod Array.length mcs) in
    let pasid = pasids.(i) in
    let va = apps.(i).Gen.va in
    let rec cycle () =
      if not !stop then begin
        let corr = !attempted in
        incr attempted;
        let vt0 = Engine.now engine in
        let h0 = if spans <> None then now_ns () else 0L in
        let finish ok =
          if not ok then Gate.fail gate (Printf.sprintf "app %d cycle %d failed" i corr);
          let now = Engine.now engine in
          incr completed;
          last_vt := now;
          lats := Int64.to_float (Int64.sub now vt0) :: !lats;
          (match spans with
          | Some sp ->
            Spans.op sp ~corr ~client:i ~host_begin:h0 ~host_end:(now_ns ()) ~vt_begin:vt0
              ~vt_end:now
          | None -> ());
          cycle ()
        in
        Device.alloc dev ~memctl ~pasid ~va ~bytes:churn_bytes ~perm:Types.perm_rw
          (function
          | Error _ -> finish false
          | Ok token ->
            Device.grant dev ~to_device:ssd ~pasid ~va ~bytes:churn_bytes
              ~perm:Types.perm_rw ~auth:token (fun granted ->
                Device.free dev ~memctl ~pasid ~va ~bytes:churn_bytes (fun freed ->
                    finish (Result.is_ok granted && Result.is_ok freed))))
      end
    in
    Engine.schedule engine ~delay:apps.(i).Gen.stagger_ns cycle
  in
  let counts0 = Layers.read_counts system in
  let before = mark_begin () in
  (match driver with Traced tr -> tr.last <- before.host | Plain -> ());
  for i = 0 to churn_apps - 1 do
    start_app i
  done;
  run_through driver engine (Int64.add first_vt churn_duration_ns);
  stop := true;
  settle driver engine;
  let after = mark_end () in
  let counts = Layers.diff_counts (Layers.read_counts system) counts0 in
  if !completed <> !attempted then
    Gate.fail gate ~count:(!attempted - !completed)
      (Printf.sprintf "%d cycles never finished" (!attempted - !completed));
  Gate.require gate
    (Layers.used_pages system = used0)
    (fun () -> Printf.sprintf "memctl used pages %d, was %d" (Layers.used_pages system) used0);
  Gate.require gate
    (Layers.mapped_pages system = mapped0)
    (fun () ->
      Printf.sprintf "IOMMU mapped pages %d, was %d" (Layers.mapped_pages system) mapped0);
  let digest = Metrics.digest (Engine.metrics engine) in
  let checkpoint =
    if extras then Some (checkpoint_cost ~gate ~dir ~tag:"churn" [| engine |]) else None
  in
  finish_episode ~gate ~driver ~t0 ~setup_s ~before ~after ~counts ~first_vt
    ~last_vt:!last_vt ~attempted:!attempted ~completed:!completed
    ~lat:(Array.of_list !lats) ~digest
    ~device_p99_ns:(Layers.device_request_p99_ns system)
    ~checkpoint

(* --- ring-resume: the T16 ring killed at a torn checkpoint and resumed -------- *)

(* The four shard machines, built exactly as the ring's own builder does
   (minus its fault plan, which only schedules events): the ring's set-up
   cost, timed on its own because [t16_soak] builds internally. *)
let ring_setup ~seed =
  for i = 0 to 3 do
    let spec =
      {
        System.default_spec with
        System.seed = Int64.add seed (Int64.of_int (1000 * i));
        shard = i;
        ssd_count = (if i = 0 then 2 else 1);
      }
    in
    match Scenario_kvs.run ~spec ~smoke_ops:0 () with
    | Error e -> failwith (Printf.sprintf "ring shard %d: %s" i e)
    | Ok _ -> ()
  done

let ring_kv_hist system =
  match
    Metrics.find (Engine.metrics (System.engine system)) ~actor:"experiment" ~name:"kv_t16"
  with
  | Some (Metrics.Histogram_v r) -> r
  | _ -> { Stats.n = 0; mean = 0.; p50 = 0.; p95 = 0.; p99 = 0.; max = 0. }

let ring_ops systems =
  Array.fold_left (fun a s -> a + (ring_kv_hist s).Stats.n) 0 systems

(* Per seed, computed once per process: what the uninterrupted ring ends
   with (the gate's reference), and the events, ops and virtual time of
   the ring stopped at boundary 2 — the state the resumed leg restores,
   whose work the resumed process does not re-execute. Only these figures
   are kept, not the machines. *)
type ring_reference = {
  digest : int64;
  full_events : int;
  elapsed : int64;
  prefix_events : int;
  prefix_ops : int;
  prefix_elapsed : int64;
}

let ring_reference ~seed =
  let full = Experiments.t16_soak ~seed () in
  let prefix = Experiments.t16_soak ~seed ~stop_after:2 () in
  {
    digest = full.Experiments.t16_digest;
    full_events = full.Experiments.t16_events;
    elapsed = full.Experiments.t16_elapsed;
    prefix_events = prefix.Experiments.t16_events;
    prefix_ops = ring_ops prefix.Experiments.t16_systems;
    prefix_elapsed = prefix.Experiments.t16_elapsed;
  }

let ring_episode ~reference ~seed ~traced:_ ~extras ~dir =
  let gate = Gate.create () in
  let seed64 = Int64.of_int seed in
  let path = Filename.concat dir "ring.snap" in
  let (), _, setup_s = timed_setup (fun () -> ring_setup ~seed:seed64) in
  Gc.compact ();
  let before = mark_begin () in
  let killed =
    Experiments.t16_soak ~seed:seed64 ~snapshot_path:path
      ~stop_after:Experiments.t16_kill_boundary ~torn_final:true ()
  in
  let resumed = Experiments.t16_soak ~seed:seed64 ~snapshot_path:path ~resume:true () in
  let after = mark_end () in
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ path; Snapshot.previous_generation path ];
  Gate.require gate
    (resumed.Experiments.t16_restored = Some Snapshot.Previous)
    (fun () -> "resume did not fall back to the previous generation");
  (match
     Gate.check_ring ~seed ~uninterrupted:reference.digest
       ~resumed:resumed.Experiments.t16_digest
   with
  | Ok () -> ()
  | Error m -> Gate.fail gate m);
  Gate.require gate
    (resumed.Experiments.t16_events = reference.full_events
    && resumed.Experiments.t16_elapsed = reference.elapsed)
    (fun () -> "resumed events or clock differ from the uninterrupted ring");
  let killed_ops = ring_ops killed.Experiments.t16_systems in
  let resumed_ops = ring_ops resumed.Experiments.t16_systems - reference.prefix_ops in
  let completed = killed_ops + resumed_ops in
  let events =
    killed.Experiments.t16_events + resumed.Experiments.t16_events - reference.prefix_events
  in
  (* Virtual time both legs simulated: the killed leg up to boundary 3,
     and the resumed leg from the restored boundary 2 to the end. *)
  let sim_ns =
    Int64.(
      add killed.Experiments.t16_elapsed
        (sub resumed.Experiments.t16_elapsed reference.prefix_elapsed))
  in
  let systems = Array.to_list resumed.Experiments.t16_systems in
  let counts = { (Layers.counts_of systems) with Layers.events } in
  (* Latency quantiles of the resumed ring's final machines: their
     histograms hold every op of the ring, restored or re-run. *)
  let hists = Array.map ring_kv_hist resumed.Experiments.t16_systems in
  let worst f = Array.fold_left (fun a r -> Float.max a (f r)) 0. hists in
  let checkpoint, lanes_ratio =
    if not extras then (None, None)
    else begin
      let engines = Array.map System.engine resumed.Experiments.t16_systems in
      let c = checkpoint_cost ~gate ~dir ~tag:"ring" engines in
      let time lanes =
        Gc.compact ();
        let t = now_ns () in
        ignore (Experiments.t16_soak ~lanes ~seed:seed64 ());
        secs t (now_ns ())
      in
      let one = time 1 in
      let two = time 2 in
      (Some c, Some (two /. one))
    end
  in
  {
    setup_s;
    measure_s = secs before.host after.host;
    attempted = completed;
    completed;
    sim_s = Int64.to_float sim_ns *. 1e-9;
    sim_p50_ns = worst (fun r -> r.Stats.p50);
    sim_p99_ns = worst (fun r -> r.Stats.p99);
    events;
    minor_words = after.minor -. before.minor;
    major_collections = after.major - before.major;
    digest = resumed.Experiments.t16_digest;
    counts;
    device_p99_ns =
      List.fold_left (fun a s -> Float.max a (Layers.device_request_p99_ns s)) 0. systems;
    checkpoint;
    lanes_ratio;
    tracer = None;
    gate;
  }

(* --- registry --------------------------------------------------------------- *)

let names = [ "kv-read"; "kv-write"; "control-churn"; "ring-resume" ]

(* How a workload's host time follows the CPU-bound calibration probe
   ({!Calib}): a run's slowdown is (probe time / reference) ** exponent.
   Fitted on the reference host, where the probe slowed 1.8-2.3x in slow
   phases: kv-read and control-churn (small in-cache objects) slowed
   about as much, kv-write and ring-resume (4 KiB payload blits, a 400 MB
   heap, checkpoint serialization) about as its square root. In fast
   phases the workloads' small drifts stay within a few percent either
   way. *)
let cpu_exponent = function
  | "kv-read" -> 1.0
  | "control-churn" -> 0.8
  | _ -> 0.5

(* [episode_fn name ~seed] does the per-process work once and returns the
   episode runner. [extras] also times a checkpoint save/restore of the
   final machine and, on the ring, the 2-lane vs 1-lane ring. *)
let episode_fn name ~seed =
  match name with
  | "kv-read" -> Some (kv_episode kv_read ~seed)
  | "kv-write" -> Some (kv_episode kv_write ~seed)
  | "control-churn" -> Some (churn_episode ~seed)
  | "ring-resume" ->
    let reference = ring_reference ~seed:(Int64.of_int seed) in
    Some (ring_episode ~reference ~seed)
  | _ -> None
