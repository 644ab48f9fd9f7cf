module Types = Lastcpu_proto.Types
module Message = Lastcpu_proto.Message
module Engine = Lastcpu_sim.Engine
module Costs = Lastcpu_sim.Costs
module Stats = Lastcpu_sim.Stats
module Metrics = Lastcpu_sim.Metrics
module Rng = Lastcpu_sim.Rng
module Sysbus = Lastcpu_bus.Sysbus
module Device = Lastcpu_device.Device
module Iommu = Lastcpu_iommu.Iommu
module Layout = Lastcpu_mem.Layout
module Fs = Lastcpu_fs.Fs
module Memctl = Lastcpu_devices.Memctl
module Smart_ssd = Lastcpu_devices.Smart_ssd
module Smart_nic = Lastcpu_devices.Smart_nic
module File_client = Lastcpu_devices.File_client
module Kv_app = Lastcpu_kv.Kv_app
module Kv_proto = Lastcpu_kv.Kv_proto
module Store = Lastcpu_kv.Store
module Kernel = Lastcpu_baseline.Kernel
module Central = Lastcpu_baseline.Central
module Faults = Lastcpu_sim.Faults
module Fuzz = Lastcpu_sim.Fuzz
module Codec = Lastcpu_proto.Codec
module Token = Lastcpu_proto.Token
module Dma = Lastcpu_virtio.Dma
module Sanitizer = Lastcpu_sim.Sanitizer
module Ownership = Lastcpu_sim.Ownership
module Temporal = Lastcpu_sim.Temporal
module Parallel = Lastcpu_sim.Parallel
module Shardlink = Lastcpu_bus.Shardlink
module Snapshot = Lastcpu_sim.Snapshot

type table = {
  id : string;
  title : string;
  claim : string;
  columns : string list;
  rows : string list list;
  notes : string list;
}

let print_table ppf t =
  let widths =
    List.mapi
      (fun i col ->
        List.fold_left
          (fun w row ->
            match List.nth_opt row i with
            | Some cell -> max w (String.length cell)
            | None -> w)
          (String.length col) t.rows)
      t.columns
  in
  let pad s w = s ^ String.make (max 0 (w - String.length s)) ' ' in
  let render_row cells =
    let padded = List.map2 (fun c w -> pad c w) cells widths in
    Format.fprintf ppf "  | %s |@." (String.concat " | " padded)
  in
  Format.fprintf ppf "@.%s — %s@." (String.uppercase_ascii t.id) t.title;
  Format.fprintf ppf "claim: %s@." t.claim;
  render_row t.columns;
  Format.fprintf ppf "  |%s|@."
    (String.concat "+" (List.map (fun w -> String.make (w + 2) '-') widths));
  List.iter render_row t.rows;
  List.iter (fun n -> Format.fprintf ppf "  note: %s@." n) t.notes

(* --- helpers ---------------------------------------------------------------- *)

let ns f = Printf.sprintf "%.0f" f
let ns64 v = Printf.sprintf "%Ld" v
let ratio a b = if a <= 0. then "-" else Printf.sprintf "%.1fx" (b /. a)

(* Run [f i k] for i in [0, n), sequentially (each step's continuation
   triggers the next); [k_done] runs after the last. *)
let sequentially n f k_done =
  let rec go i = if i = n then k_done () else f i (fun () -> go (i + 1)) in
  go 0

(* Completions per virtual second of [workers] closed loops over the next
   20 ms of virtual time. [worker w] sets up loop [w] and returns its op,
   which is re-sent as soon as the previous one completes. *)
let closed_loop_rate engine ~workers worker =
  let completed = ref 0 in
  let stop = ref false in
  for w = 0 to workers - 1 do
    let op = worker w in
    let rec loop () =
      if not !stop then
        op (fun () ->
            incr completed;
            loop ())
    in
    loop ()
  done;
  let t0 = Engine.now engine in
  Engine.run ~until:(Int64.add t0 20_000_000L) engine;
  stop := true;
  let elapsed = Int64.to_float (Int64.sub (Engine.now engine) t0) in
  float_of_int !completed /. (elapsed *. 1e-9)

(* Experiment tallies live in the engine's telemetry registry, under the
   "experiment" actor, alongside the subsystem counters they are compared
   against; [lat] is a {!Metrics.histogram} handle. *)
let measure engine lat op k =
  let t0 = Engine.now engine in
  op (fun () ->
      Metrics.observe lat (Int64.to_float (Int64.sub (Engine.now engine) t0));
      k ())

let experiment_hist engine name =
  Metrics.histogram (Engine.metrics engine) ~actor:"experiment" ~name

(* A built and booted system; a failed boot raises "<name>: <error>". *)
let booted ~name spec =
  let system = System.build ~spec () in
  (match System.boot system with
  | Ok () -> ()
  | Error e -> invalid_arg (name ^ ": " ^ e));
  system

(* The paper's KVS machine ({!Scenario_kvs}); a failed bring-up raises
   "<name>: <error>". *)
let kvs_machine ~name ?spec ?smoke_ops () =
  match Scenario_kvs.run ?spec ?smoke_ops () with
  | Ok outcome -> outcome
  | Error e -> invalid_arg (name ^ ": " ^ e)

(* --- F1: architecture -------------------------------------------------------- *)

let f1 () =
  let spec =
    {
      System.default_spec with
      with_auth = true;
      with_console = true;
      nic_count = 2;
      accel_count = 1;
    }
  in
  let system = booted ~name:"f1" spec in
  let lines = String.split_on_char '\n' (System.topology system) in
  {
    id = "f1";
    title = "Proposed architecture without a CPU (topology of a booted system)";
    claim = "all OS functionality lives in self-managing devices + the system bus";
    columns = [ "topology" ];
    rows = List.filter_map (fun l -> if l = "" then None else Some [ l ]) lines;
    notes = [];
  }

(* --- F2: KVS initialization sequence ----------------------------------------- *)

let f2 () =
  let spec = { System.default_spec with System.trace = true } in
  let outcome = kvs_machine ~name:"f2" ~spec () in
  let steps = Scenario_kvs.figure2_steps outcome in
  {
    id = "f2";
    title = "KV-store application initialization sequence (paper Figure 2)";
    claim = "the seven-step bring-up works with no CPU involved";
    columns = [ "step"; "virtual time (ns)"; "message"; "description" ];
    rows =
      List.map
        (fun (s : Scenario_kvs.step) ->
          [
            string_of_int s.Scenario_kvs.n;
            ns64 s.Scenario_kvs.at_ns;
            s.Scenario_kvs.kind;
            s.Scenario_kvs.description;
          ])
        steps;
    notes =
      [
        Printf.sprintf "%d/7 steps observed; KVS smoke operations passed"
          (List.length steps);
      ];
  }

(* --- T1: control-plane operation latency -------------------------------------- *)

let iters_t1 = 50

(* Run each (name, op) stage [iters_t1] times back to back, stages in list
   order, timing every op into the stage's histogram; [k_done] runs after
   the last stage. Returns the histograms by stage name. *)
let t1_stages engine stages k_done =
  let results = Hashtbl.create 8 in
  let timed =
    List.map
      (fun (name, op) ->
        let h = experiment_hist engine name in
        Hashtbl.replace results name h;
        (h, op))
      stages
  in
  let rec go = function
    | [] -> k_done ()
    | (h, op) :: rest ->
      sequentially iters_t1 (fun i k -> measure engine h (op i) k) (fun () ->
          go rest)
  in
  go timed;
  results

let t1_decentralized ?(seed = 42L) ?(tie = Engine.Fifo) ?(sanitize = false)
    ~enable_tokens () =
  let spec = { System.default_spec with enable_tokens; seed; tie; sanitize } in
  let system = booted ~name:"t1" spec in
  let engine = System.engine system in
  let dev = Smart_nic.device (System.nic system 0) in
  let mc = Memctl.id (System.memctl system) in
  let ssd_id = Smart_ssd.id (System.ssd system 0) in
  let pasid = System.fresh_pasid system in
  let service =
    match
      List.find_opt
        (fun (s : Message.service_desc) -> s.Message.kind = Types.File_service)
        (Sysbus.services_of (System.bus system) ssd_id)
    with
    | Some s -> s
    | None -> invalid_arg "t1: ssd has no file service"
  in
  let tokens = Array.make iters_t1 None in
  let va i = Int64.add 0x5000_0000L (Int64.of_int (i * 0x10000)) in
  let done_ = ref false in
  let results =
    t1_stages engine
      [
        ( "discover",
          fun _ k -> Device.discover dev ~kind:Types.File_service ~query:"" (fun _ -> k ()) );
        ( "open",
          fun _ k ->
            Device.open_service dev ~provider:ssd_id ~service ~pasid
              ~params:[ ("user", "bench") ] (fun _ -> k ()) );
        ( "alloc+map",
          fun i k ->
            Device.alloc dev ~memctl:mc ~pasid ~va:(va i) ~bytes:16384L
              ~perm:Types.perm_rw (fun res ->
                (match res with
                | Ok token -> tokens.(i) <- Some token
                | Error _ -> ());
                k ()) );
        ( "grant",
          fun i k ->
            match tokens.(i) with
            | None -> invalid_arg "t1: grant without a token (alloc failed)"
            | Some token ->
              Device.grant dev ~to_device:ssd_id ~pasid ~va:(va i) ~bytes:16384L
                ~perm:Types.perm_rw ~auth:token (fun _ -> k ()) );
        ( "free",
          fun i k ->
            Device.free dev ~memctl:mc ~pasid ~va:(va i) ~bytes:16384L (fun _ ->
                k ()) );
      ]
      (fun () -> done_ := true)
  in
  System.run_until_idle system;
  assert !done_;
  (system, results)

let t1_centralized () =
  let engine = Engine.create () in
  let central = Central.create engine () in
  (match Fs.create (Central.fs central) ~user:"root" "/target" with
  | Ok () -> ()
  | Error e -> invalid_arg (Fs.error_to_string e));
  let kern = Central.kernel central in
  let done_ = ref false in
  let results =
    t1_stages engine
      [
        ("discover", fun _ k -> Central.discover central ~query:"" k);
        ( "open",
          fun _ k -> Central.open_file central ~path:"/target" ~user:"bench" (fun _ -> k ()) );
        ("alloc+map", fun _ k -> Central.setup_shared central ~bytes:16384L k);
        ("grant", fun _ k -> Kernel.syscall kern ~name:"grant" k);
        ("free", fun _ k -> Central.teardown_shared central k);
      ]
      (fun () -> done_ := true)
  in
  Engine.run engine;
  assert !done_;
  results

let t1 ~enable_tokens () =
  let _, dec = t1_decentralized ~enable_tokens () in
  let cen = t1_centralized () in
  let ops = [ "discover"; "open"; "alloc+map"; "grant"; "free" ] in
  let rows =
    List.map
      (fun op ->
        let d = Stats.Summary.mean (Metrics.summary (Hashtbl.find dec op))
        and c = Stats.Summary.mean (Metrics.summary (Hashtbl.find cen op)) in
        [ op; ns d; ns c; ratio d c ])
      ops
  in
  {
    id = "t1";
    title =
      Printf.sprintf "control-plane operation latency (capability tokens %s)"
        (if enable_tokens then "on" else "off");
    claim =
      "control tasks boil down to simple operations handled without a CPU \
       (paper S1/S2)";
    columns = [ "operation"; "CPU-less (ns)"; "centralized (ns)"; "centralized/CPU-less" ];
    rows;
    notes =
      [
        Printf.sprintf "%d iterations per op; mean one-way completion latency"
          iters_t1;
        "centralized = syscall + kernel service on one CPU core (+ device IRQ \
         where applicable)";
      ];
  }

(* --- KVS workload machinery (used by T2 and T7) ------------------------------- *)

(* [clients] closed-loop {!Workload} clients, each on its own [submit ()]
   path, sending the next op as soon as the previous one is answered
   (after [think_ns]). [make_op c j] is client [c]'s [j]-th op; answered
   latencies go to the histogram [hist], which is returned; [on_done] runs
   once per client. *)
let kv_clients engine ~submit ~hist ~clients ~ops ?(think_ns = 0L) ~make_op
    ~on_done () =
  let lat = experiment_hist engine hist in
  for c = 0 to clients - 1 do
    let (_ : unit -> Workload.tally) =
      Workload.run engine ~submit:(submit ())
        ~arrival:(Workload.Closed { ops; think_ns })
        ~retry:Workload.No_retry ~make_op:(make_op c)
        ~on_settle:(fun _ -> function
          | Workload.Answered ns -> Metrics.observe lat (Int64.to_float ns)
          | Workload.Rejected | Workload.Gave_up -> ())
        ~on_done ()
    in
    ()
  done;
  lat

(* A fresh network client of the KVS hosted on the system's first NIC. *)
let nic_kv system () =
  Workload.netsim (System.net system)
    ~app_addr:(Smart_nic.endpoint_address (System.nic system 0))

(* Put [keys] values of [value_bytes] each, then [drain] the engine. *)
let preload_store store ~keys ~value_bytes ~drain =
  let value = String.make value_bytes 'v' in
  let loaded = ref false in
  sequentially keys
    (fun i k ->
      Store.put store ~key:(Printf.sprintf "key-%06d" i) ~value (fun _ -> k ()))
    (fun () -> loaded := true);
  drain ();
  assert !loaded

(* --- T2: performance isolation ------------------------------------------------ *)

let t2_ops = 300
let t2_keys = 128

(* The measured tenant, the same for both designs: one closed-loop client
   doing pure gets, which isolates coordination latency from NAND program
   time (it would otherwise dominate p99 identically in both designs).
   [stop] ends the noise once the client is done. *)
let t2_measure engine ~submit ~drain ~rng ~stop =
  let finished = ref false in
  let lat =
    kv_clients engine ~submit ~hist:"kv_get" ~clients:1 ~ops:t2_ops
      ~make_op:(fun _ _ ->
        Kv_proto.Get
          (Printf.sprintf "key-%06d" (Rng.zipf rng ~n:t2_keys ~theta:0.99)))
      ~on_done:(fun () ->
        finished := true;
        stop := true)
      ()
  in
  drain ();
  assert !finished;
  Metrics.report lat

(* Decentralized: measure KVS get/put latency with and without a
   control-plane-noisy neighbour (alloc/free closed loop on a second NIC). *)
let t2_decentralized ~noisy =
  let spec = { System.default_spec with nic_count = 2 } in
  let outcome = kvs_machine ~name:"t2" ~spec () in
  let system = outcome.Scenario_kvs.system in
  let app = outcome.Scenario_kvs.app in
  let engine = System.engine system in
  let rng = Engine.fork_rng engine in
  preload_store (Kv_app.store app) ~keys:t2_keys ~value_bytes:64
    ~drain:(fun () -> System.run_until_idle system);
  (* Noise: four closed alloc/free loops from nic1 (a control-plane-heavy
     tenant churning mappings as fast as the system lets it). *)
  let stop = ref false in
  if noisy then begin
    let noise_dev = Smart_nic.device (System.nic system 1) in
    let mc = Memctl.id (System.memctl system) in
    for j = 0 to 3 do
      let noise_pasid = System.fresh_pasid system in
      let va = Int64.add 0x7000_0000L (Int64.of_int (j * 0x100000)) in
      let rec noise_loop () =
        if not !stop then
          Device.alloc noise_dev ~memctl:mc ~pasid:noise_pasid ~va
            ~bytes:4096L ~perm:Types.perm_rw (fun _ ->
              Device.free noise_dev ~memctl:mc ~pasid:noise_pasid ~va
                ~bytes:4096L (fun _ -> noise_loop ()))
      in
      noise_loop ()
    done
  end;
  t2_measure engine ~submit:(nic_kv system)
    ~drain:(fun () -> System.run_until_idle system)
    ~rng ~stop

(* Centralized: same store logic; network ops and noise share the CPU. *)
let t2_centralized ~noisy =
  let engine = Engine.create () in
  let central = Central.create engine () in
  let rng = Engine.fork_rng engine in
  let store = Store.create (Central.store_backend central ~path:"/kv.log" ~user:"kvs") in
  preload_store store ~keys:t2_keys ~value_bytes:64 ~drain:(fun () ->
      Engine.run engine);
  let stop = ref false in
  if noisy then begin
    let kern = Central.kernel central in
    for _ = 1 to 4 do
      let rec noise_loop () =
        if not !stop then
          Kernel.syscall kern ~name:"mmap" (fun () ->
              Kernel.syscall kern ~name:"munmap" (fun () -> noise_loop ()))
      in
      noise_loop ()
    done
  end;
  t2_measure engine
    ~submit:(fun () -> Workload.central central store)
    ~drain:(fun () -> Engine.run engine)
    ~rng ~stop

let t2 () =
  let d_quiet = t2_decentralized ~noisy:false in
  let d_noisy = t2_decentralized ~noisy:true in
  let c_quiet = t2_centralized ~noisy:false in
  let c_noisy = t2_centralized ~noisy:true in
  let row design (quiet : Stats.latency_report) (noisy : Stats.latency_report) =
    [
      design;
      ns quiet.Stats.p50;
      ns quiet.Stats.p99;
      ns noisy.Stats.p50;
      ns noisy.Stats.p99;
      Printf.sprintf "%.2fx" (noisy.Stats.p99 /. quiet.Stats.p99);
    ]
  in
  {
    id = "t2";
    title = "performance isolation under a control-plane-noisy neighbour";
    claim = "decentralized control can improve performance isolation (paper S1)";
    columns =
      [
        "design";
        "quiet p50 (ns)";
        "quiet p99 (ns)";
        "noisy p50 (ns)";
        "noisy p99 (ns)";
        "p99 inflation";
      ];
    rows =
      [
        row "CPU-less" d_quiet d_noisy;
        row "centralized" c_quiet c_noisy;
      ];
    notes =
      [
        Printf.sprintf
          "%d KVS gets (zipf 0.99 over %d keys), closed loop; measured tenant \
           is read-only so coordination latency is visible"
          t2_ops t2_keys;
        "noise = closed-loop memory-mapping churn (alloc/free vs mmap/munmap)";
      ];
  }

(* --- T3: control-plane scalability --------------------------------------------- *)

let t3_decentralized ?(memctls = 1) ?(lanes = 1) ~apps () =
  let spec =
    {
      System.default_spec with
      nic_count = apps;
      memctl_count = memctls;
      bus_lanes = lanes;
    }
  in
  let system = booted ~name:"t3" spec in
  let mcs = Array.of_list (List.map Memctl.id (System.memctls system)) in
  closed_loop_rate (System.engine system) ~workers:apps (fun i ->
      let dev = Smart_nic.device (System.nic system i) in
      let mc = mcs.(i mod Array.length mcs) in
      let pasid = System.fresh_pasid system in
      let va = Int64.add 0x6000_0000L (Int64.of_int (i * 0x100000)) in
      fun k ->
        Device.alloc dev ~memctl:mc ~pasid ~va ~bytes:4096L ~perm:Types.perm_rw
          (fun _ -> Device.free dev ~memctl:mc ~pasid ~va ~bytes:4096L (fun _ -> k ())))

let t3_centralized ?(cores = 1) ~apps () =
  let engine = Engine.create () in
  let kern = Kernel.create engine ~cores () in
  closed_loop_rate engine ~workers:apps (fun _ k ->
      Kernel.syscall kern ~name:"mmap" (fun () ->
          Kernel.syscall kern ~name:"munmap" k))

let t3 () =
  let app_counts = [ 1; 2; 4; 8; 16; 32 ] in
  let rows =
    List.map
      (fun apps ->
        let d1 = t3_decentralized ~apps () in
        let d4 = t3_decentralized ~memctls:4 ~lanes:4 ~apps () in
        let c1 = t3_centralized ~apps () in
        let c4 = t3_centralized ~cores:4 ~apps () in
        [
          string_of_int apps;
          Printf.sprintf "%.0f" d1;
          Printf.sprintf "%.0f" d4;
          Printf.sprintf "%.0f" c1;
          Printf.sprintf "%.0f" c4;
          Printf.sprintf "%.1fx" (d4 /. c1);
        ])
      app_counts
  in
  {
    id = "t3";
    title = "control-plane scalability: map/unmap pairs per second vs apps";
    claim =
      "decentralized control is an important factor in building a scalable \
       system (paper S1)";
    columns =
      [
        "apps";
        "CPU-less 1 ctl/lane";
        "CPU-less 4 ctl/lane";
        "centralized 1 core";
        "centralized 4 cores";
        "4ctl / 1core";
      ];
    rows;
    notes =
      [
        "closed-loop map+unmap pairs/s; the CPU-less plateau is the shared \
         bus lane + memory controller, so a 4-lane control fabric with 4 \
         controllers raises it, as 4 cores raise the baseline's";
      ];
  }

(* --- T4: failure handling -------------------------------------------------------- *)

let t4_decentralized () =
  let outcome = kvs_machine ~name:"t4" () in
  let system = outcome.Scenario_kvs.system in
  let engine = System.engine system in
  let bus = System.bus system in
  let ssd = System.ssd system 0 in
  let nic_dev = Smart_nic.device (System.nic system 0) in
  (* Observe Device_failed at the NIC. *)
  let detected_at = ref None in
  Device.set_app_handler nic_dev (fun msg ->
      match msg.Message.payload with
      | Message.Device_failed _ when !detected_at = None ->
        detected_at := Some (Engine.now engine)
      | _ -> ());
  let routed () =
    Metrics.counter_read (Engine.metrics engine) ~actor:(Sysbus.actor bus)
      ~name:"routed"
  in
  let messages_before = routed () in
  let t_fail = Engine.now engine in
  Sysbus.fail_device bus (Smart_ssd.id ssd);
  System.run_until_idle system;
  let detection =
    match !detected_at with
    | Some t -> Int64.sub t t_fail
    | None -> -1L
  in
  (* Recovery: revive the device, re-announce, re-run the Figure-2
     sequence, recover the store from the surviving log. *)
  let t_revive = Engine.now engine in
  Sysbus.revive_device bus (Smart_ssd.id ssd);
  Device.reannounce (Smart_ssd.device ssd);
  let recovered = ref None in
  let pasid = System.fresh_pasid system in
  File_client.connect nic_dev
    ~memctl:(Memctl.id (System.memctl system))
    ~pasid ~shm_va:0x9000_0000L ~user:"kvs" ~path_hint:"/kv/data.log"
    (fun res ->
      match res with
      | Error e -> invalid_arg ("t4 reconnect: " ^ e)
      | Ok fc ->
        Lastcpu_kv.File_backend.create fc ~path:"/kv/data.log" (fun res ->
            match res with
            | Error e -> invalid_arg ("t4 backend: " ^ e)
            | Ok fb ->
              let store = Store.create (Lastcpu_kv.File_backend.backend fb) in
              Store.recover store (fun res ->
                  match res with
                  | Error e -> invalid_arg ("t4 recover: " ^ e)
                  | Ok n -> recovered := Some (n, Engine.now engine))));
  System.run_until_idle system;
  (match !recovered with
  | None -> invalid_arg "t4: recovery never completed"
  | Some (records, t_done) ->
    let messages_after = routed () in
    ( detection,
      Int64.sub t_done t_revive,
      records,
      messages_after - messages_before ))

let t4_centralized () =
  (* The kernel learns of the failure via an interrupt, resets the device
     (device-side reset latency), re-opens and re-reads the log via
     syscalls. Same storage implementation, so the same records surface. *)
  let engine = Engine.create () in
  let central = Central.create engine () in
  let store = Store.create (Central.store_backend central ~path:"/kv.log" ~user:"kvs") in
  let loaded = ref false in
  sequentially 3
    (fun i k ->
      Store.put store ~key:(Printf.sprintf "smoke-%d" (i + 1))
        ~value:"value" (fun _ -> k ()))
    (fun () -> loaded := true);
  Engine.run engine;
  assert !loaded;
  let kern = Central.kernel central in
  let t_fail = Engine.now engine in
  let detected = ref 0L in
  Kernel.interrupt kern ~name:"device-failed" (fun () ->
      detected := Int64.sub (Engine.now engine) t_fail);
  Engine.run engine;
  let t_revive = Engine.now engine in
  let finished = ref None in
  Kernel.syscall kern ~name:"reset-device" (fun () ->
      Central.open_file central ~path:"/kv.log" ~user:"kvs" (fun _ ->
          Store.recover store (fun res ->
              match res with
              | Error e -> invalid_arg ("t4 central: " ^ e)
              | Ok n -> finished := Some (n, Engine.now engine))));
  Engine.run engine;
  match !finished with
  | None -> invalid_arg "t4 central: never finished"
  | Some (records, t_done) ->
    (!detected, Int64.sub t_done t_revive, records, Kernel.syscalls kern)

let t4 () =
  let d_detect, d_recover, d_records, d_msgs = t4_decentralized () in
  let c_detect, c_recover, c_records, c_ops = t4_centralized () in
  {
    id = "t4";
    title = "storage-device failure: detection and recovery";
    claim = "the failure model is not worse than with a centralized CPU (paper S4)";
    columns =
      [ "design"; "detection (ns)"; "recovery (ns)"; "records recovered"; "control msgs/ops" ];
    rows =
      [
        [
          "CPU-less";
          ns64 d_detect;
          ns64 d_recover;
          string_of_int d_records;
          string_of_int d_msgs;
        ];
        [
          "centralized";
          ns64 c_detect;
          ns64 c_recover;
          string_of_int c_records;
          string_of_int c_ops;
        ];
      ];
    notes =
      [
        "CPU-less: bus broadcasts Device_failed; consumers re-run the Figure-2 \
         sequence against the revived device; the WAL survives on flash";
        "recovery includes re-discovery, re-open, re-map, queue re-attach and \
         full log replay";
      ];
  }

(* --- T5: address translation / TLB sweep ------------------------------------------ *)

let t5 () =
  let pages = 1024 in
  let accesses = 200_000 in
  let configs =
    [
      ("no TLB", None);
      ("16 sets x 2 ways (32)", Some (16, 2));
      ("64 sets x 4 ways (256)", Some (64, 4));
      ("256 sets x 8 ways (2048)", Some (256, 8));
    ]
  in
  let rows =
    List.map
      (fun (label, geometry) ->
        let iommu =
          match geometry with
          | None -> Iommu.create ~no_tlb:true ()
          | Some (sets, ways) -> Iommu.create ~tlb_sets:sets ~tlb_ways:ways ()
        in
        (* One mapped region of [pages] pages. *)
        for i = 0 to pages - 1 do
          let off = Int64.mul (Int64.of_int i) Layout.page_size in
          match
            Iommu.map iommu ~pasid:1 ~va:(Int64.add 0x1000_0000L off)
              ~pa:(Int64.add 0x8000_0000L off) ~bytes:Layout.page_size
              ~perm:Types.perm_rw
          with
          | Ok () -> ()
          | Error e -> invalid_arg ("t5: " ^ e)
        done;
        let rng = Rng.create ~seed:7L in
        for _ = 1 to accesses do
          let page = Rng.zipf rng ~n:pages ~theta:0.9 in
          let va =
            Int64.add 0x1000_0000L
              (Int64.mul (Int64.of_int page) Layout.page_size)
          in
          match Iommu.translate iommu ~pasid:1 ~va ~access:Iommu.Read with
          | Iommu.Ok_pa _ -> ()
          | Iommu.Fault _ -> invalid_arg "t5: unexpected fault"
        done;
        let hits = Iommu.tlb_hits iommu in
        let misses = Iommu.tlb_misses iommu in
        let walks = Iommu.walks iommu in
        let walk_levels = Iommu.walk_levels iommu in
        let total = float_of_int accesses in
        let hit_rate =
          if hits + misses = 0 then 0. else float_of_int hits /. total *. 100.
        in
        let avg_cost =
          (float_of_int (hits + misses) *. Int64.to_float Costs.tlb_hit_ns
          +. float_of_int walk_levels *. Int64.to_float Costs.iommu_walk_level_ns)
          /. total
        in
        [
          label;
          Printf.sprintf "%.1f%%" hit_rate;
          string_of_int walks;
          Printf.sprintf "%.1f" avg_cost;
        ])
      configs
  in
  {
    id = "t5";
    title = "IOMMU translation cost vs TLB geometry (zipf 0.9 over 1024 pages)";
    claim =
      "IOMMU-gated shared memory is viable as the cornerstone of data \
       isolation (paper S2.2)";
    columns = [ "TLB"; "hit rate"; "page-table walks"; "avg ns/access" ];
    rows;
    notes =
      [ Printf.sprintf "%d accesses; 4-level table walk = 4 x %Ldns" accesses
          Costs.iommu_walk_level_ns ];
  }

(* --- T6: virtqueue throughput ------------------------------------------------------ *)

let t6_one ~depth ~via_bus =
  let outcome = kvs_machine ~name:"t6" () in
  let system = outcome.Scenario_kvs.system in
  let engine = System.engine system in
  let nic_dev = Smart_nic.device (System.nic system 0) in
  let ssd_dev = Smart_ssd.device (System.ssd system 0) in
  if via_bus then begin
    Device.route_doorbells_via_bus nic_dev true;
    Device.route_doorbells_via_bus ssd_dev true
  end;
  let fc = Kv_app.client outcome.Scenario_kvs.app in
  (* Closed loop of [depth] concurrent small reads of the log file. *)
  closed_loop_rate engine ~workers:depth (fun _ k ->
      File_client.read fc "/kv/data.log" ~off:0 ~len:64 (fun _ -> k ()))

let t6 () =
  let depths = [ 1; 2; 4; 8; 16 ] in
  let rows =
    List.map
      (fun depth ->
        let direct = t6_one ~depth ~via_bus:false in
        let conflated = t6_one ~depth ~via_bus:true in
        [
          string_of_int depth;
          Printf.sprintf "%.0f" direct;
          Printf.sprintf "%.0f" conflated;
        ])
      depths
  in
  {
    id = "t6";
    title = "VIRTIO file-service throughput vs queue depth (64B reads)";
    claim =
      "VIRTIO queues in shared memory are consumable by modest hardware \
       (paper S2.1); control and data planes should stay separate (S2.3)";
    columns =
      [ "queue depth"; "ops/s (doorbell direct)"; "ops/s (doorbell via bus)" ];
    rows;
    notes =
      [
        "reads are cache-hits in device DRAM: the measured path is pure \
         queue + doorbell + device processing";
      ];
  }

(* --- T7: end-to-end KVS ------------------------------------------------------------- *)

let t7_keys = 256
let t7_ops = 400
let t7_clients = 4

let t7_mix_op rng mix_get_pct =
  let key = Printf.sprintf "key-%06d" (Rng.zipf rng ~n:t7_keys ~theta:0.99) in
  if Rng.int rng 100 < mix_get_pct then Kv_proto.Get key
  else Kv_proto.Put (key, String.make 100 'w')

(* The measured phase, the same for both designs: [t7_clients] closed-loop
   clients, each on its own [submit ()] path and its own seeded mix. *)
let t7_measure engine ~submit ~drain ~mix_get_pct =
  let finished = ref 0 in
  let t0 = Engine.now engine in
  let rngs =
    Array.init t7_clients (fun c -> Rng.create ~seed:(Int64.of_int (1001 + c)))
  in
  let lat =
    kv_clients engine ~submit ~hist:"kv_mixed" ~clients:t7_clients
      ~ops:(t7_ops / t7_clients)
      ~make_op:(fun c _ -> t7_mix_op rngs.(c) mix_get_pct)
      ~on_done:(fun () -> incr finished)
      ()
  in
  drain ();
  assert (!finished = t7_clients);
  let elapsed = Int64.to_float (Int64.sub (Engine.now engine) t0) in
  let throughput = float_of_int t7_ops /. (elapsed *. 1e-9) in
  (throughput, Metrics.report lat)

let t7_decentralized ~mix_get_pct =
  let outcome = kvs_machine ~name:"t7" () in
  let system = outcome.Scenario_kvs.system in
  let app = outcome.Scenario_kvs.app in
  preload_store (Kv_app.store app) ~keys:t7_keys ~value_bytes:100
    ~drain:(fun () -> System.run_until_idle system);
  t7_measure (System.engine system) ~submit:(nic_kv system)
    ~drain:(fun () -> System.run_until_idle system)
    ~mix_get_pct

let t7_centralized ~mix_get_pct =
  let engine = Engine.create () in
  let central = Central.create engine () in
  let store = Store.create (Central.store_backend central ~path:"/kv.log" ~user:"kvs") in
  preload_store store ~keys:t7_keys ~value_bytes:100 ~drain:(fun () ->
      Engine.run engine);
  t7_measure engine
    ~submit:(fun () -> Workload.central central store)
    ~drain:(fun () -> Engine.run engine)
    ~mix_get_pct

let t7 () =
  let mixes = [ ("YCSB-C (100% get)", 100); ("YCSB-B (95% get)", 95); ("YCSB-A (50% get)", 50) ] in
  let rows =
    List.concat_map
      (fun (label, pct) ->
        let d_tp, d_lat = t7_decentralized ~mix_get_pct:pct in
        let c_tp, c_lat = t7_centralized ~mix_get_pct:pct in
        [
          [
            label;
            "CPU-less";
            Printf.sprintf "%.0f" d_tp;
            ns d_lat.Stats.p50;
            ns d_lat.Stats.p99;
          ];
          [
            label;
            "centralized";
            Printf.sprintf "%.0f" c_tp;
            ns c_lat.Stats.p50;
            ns c_lat.Stats.p99;
          ];
        ])
      mixes
  in
  {
    id = "t7";
    title = "end-to-end KVS: remote clients, NIC-hosted store, SSD-backed log";
    claim = "an entire application runs with no CPU in the system (paper S3)";
    columns = [ "mix"; "design"; "ops/s"; "p50 (ns)"; "p99 (ns)" ];
    rows;
    notes =
      [
        Printf.sprintf "%d ops over %d closed-loop clients, zipf 0.99 over %d keys"
          t7_ops t7_clients t7_keys;
        "puts pay NAND program time in both designs (same FTL/FS); the \
         difference is coordination architecture";
      ];
  }

(* --- T8: fault containment ------------------------------------------------------------ *)

let t8 () =
  let outcome = kvs_machine ~name:"t8" () in
  let system = outcome.Scenario_kvs.system in
  let app = outcome.Scenario_kvs.app in
  let nic1_dev = Smart_nic.device (System.nic system 0) in
  (* Bystander ops before/after each injected fault must all succeed. *)
  let bystander_ok = ref 0 and bystander_fail = ref 0 in
  let bystander_op k =
    Kv_app.local_op app (Kv_proto.Put ("bystander", "alive")) (fun reply ->
        (match reply with
        | Kv_proto.Done -> incr bystander_ok
        | _ -> incr bystander_fail);
        k ())
  in
  (* One faulting access: its outcome and the faults the device counted. *)
  let probe access =
    let before = Device.fault_count nic1_dev in
    let outcome =
      match access () with
      | () -> "no fault (BUG)"
      | exception Dma.Dma_fault f ->
        Printf.sprintf "fault delivered to device (reason=%s)"
          (match f.Iommu.reason with
          | Iommu.Not_mapped -> "not-mapped"
          | Iommu.Protection -> "protection")
    in
    (outcome, Device.fault_count nic1_dev - before)
  in
  (* Scenario A: DMA read of an unmapped address on a victim PASID. *)
  let victim_pasid = System.fresh_pasid system in
  let scenario_a, faults_a =
    probe (fun () ->
        ignore (Dma.read_field64 (Device.dma nic1_dev ~pasid:victim_pasid) 0xDEAD_0000))
  in
  let done1 = ref false in
  bystander_op (fun () -> done1 := true);
  System.run_until_idle system;
  (* Scenario B: write through a read-only mapping. *)
  let ro_pasid = System.fresh_pasid system in
  let mc = Memctl.id (System.memctl system) in
  let alloc_done = ref false in
  Device.alloc nic1_dev ~memctl:mc ~pasid:ro_pasid ~va:0xA000_0000L
    ~bytes:4096L ~perm:Types.perm_r (fun res ->
      (match res with Ok _ -> () | Error e ->
        invalid_arg ("t8 alloc: " ^ Types.error_code_to_string e));
      alloc_done := true);
  System.run_until_idle system;
  assert !alloc_done;
  let scenario_b, faults_b =
    probe (fun () ->
        Dma.write_field (Device.dma nic1_dev ~pasid:ro_pasid) 0xA000_0000 1 1)
  in
  let done2 = ref false in
  bystander_op (fun () -> done2 := true);
  System.run_until_idle system;
  assert (!done1 && !done2);
  {
    id = "t8";
    title = "fault containment: IOMMU faults stay on the faulting device";
    claim =
      "each device handles its own faults; no external entity is involved \
       (paper S4 Error Handling)";
    columns = [ "scenario"; "outcome"; "faults delivered"; "bystander app" ];
    rows =
      [
        [
          "read of unmapped VA";
          scenario_a;
          string_of_int faults_a;
          Printf.sprintf "%d ok / %d failed" !bystander_ok !bystander_fail;
        ];
        [
          "write via read-only grant";
          scenario_b;
          string_of_int faults_b;
          Printf.sprintf "%d ok / %d failed" !bystander_ok !bystander_fail;
        ];
      ];
    notes =
      [ "bystander = the KVS application on its own PASID, same device" ];
  }

(* --- T9: boot / discovery scaling ------------------------------------------------------ *)

let t9 () =
  let boot_with ~ssds ~nics =
    let spec = { System.default_spec with ssd_count = ssds; nic_count = nics } in
    let system = booted ~name:"t9" spec in
    let boot_ns = Engine.now (System.engine system) in
    (* Then a discovery broadcast storm: every NIC discovers a file
       service simultaneously. *)
    let answered = ref 0 in
    let engine = System.engine system in
    let t0 = Engine.now engine in
    let last_answer = ref t0 in
    List.iter
      (fun nic ->
        Device.discover (Smart_nic.device nic) ~kind:Types.File_service
          ~query:"" (fun r ->
            if r <> None then begin
              incr answered;
              last_answer := Engine.now engine
            end))
      (System.nics system);
    System.run_until_idle system;
    let storm_ns = Int64.sub !last_answer t0 in
    let broadcasts =
      Metrics.counter_read (Engine.metrics engine)
        ~actor:(Sysbus.actor (System.bus system))
        ~name:"broadcasts"
    in
    (boot_ns, storm_ns, !answered, broadcasts)
  in
  let rows =
    List.map
      (fun n ->
        let boot_ns, storm_ns, answered, broadcasts = boot_with ~ssds:n ~nics:n in
        [
          string_of_int (2 * n);
          ns64 boot_ns;
          ns64 storm_ns;
          Printf.sprintf "%d/%d" answered n;
          string_of_int broadcasts;
        ])
      [ 1; 2; 4; 8; 16 ]
  in
  {
    id = "t9";
    title = "initialization scaling: boot + discovery storm vs device count";
    claim =
      "system initialization (self-test, announce, discover) needs no \
       central coordinator (paper S2.2 System Initialization)";
    columns =
      [
        "devices (ssd+nic)";
        "boot (ns)";
        "discovery storm (ns)";
        "answered";
        "broadcast deliveries";
      ];
    rows;
    notes =
      [
        "boot = virtual time until every device announced Device_alive";
        "storm = all NICs broadcast file-service discovery at once";
      ];
  }

(* --- T10: FTL characterization ---------------------------------------------------------- *)

let t10 () =
  let churn ~op_ratio =
    let nand =
      Lastcpu_flash.Nand.create
        ~geometry:{ Lastcpu_flash.Nand.blocks = 64; pages_per_block = 32; page_size = 512 }
        ()
    in
    let ftl = Lastcpu_flash.Ftl.create ~nand ~op_ratio () in
    let logical = Lastcpu_flash.Ftl.logical_pages ftl in
    let rng = Rng.create ~seed:11L in
    (* Hot/cold: 90% of writes hit 10% of the space. *)
    let hot = max 1 (logical / 10) in
    let writes = 20_000 in
    for i = 1 to writes do
      let lpn =
        if Rng.int rng 10 < 9 then Rng.int rng hot
        else hot + Rng.int rng (max 1 (logical - hot))
      in
      match Lastcpu_flash.Ftl.write ftl ~lpn (Printf.sprintf "w%d" i) with
      | Ok () -> ()
      | Error e -> invalid_arg ("t10: " ^ e)
    done;
    ( logical,
      Lastcpu_flash.Ftl.write_amplification ftl,
      Lastcpu_flash.Ftl.gc_runs ftl,
      Lastcpu_flash.Ftl.max_erase_skew ftl )
  in
  let rows =
    List.map
      (fun op_ratio ->
        let logical, wa, gc, skew = churn ~op_ratio in
        [
          Printf.sprintf "%.0f%%" (op_ratio *. 100.);
          string_of_int logical;
          Printf.sprintf "%.2f" wa;
          string_of_int gc;
          string_of_int skew;
        ])
      [ 0.07; 0.125; 0.25; 0.5 ]
  in
  {
    id = "t10";
    title = "smart-SSD FTL: write amplification vs over-provisioning";
    claim =
      "the SSD manages its own flash resources internally (paper S2.1 \
       self-managing devices)";
    columns =
      [ "over-provision"; "logical pages"; "write amp"; "GC runs"; "erase skew" ];
    rows;
    notes = [ "20k writes, 90/10 hot/cold skew, 64x32x512B geometry" ];
  }

(* --- T11: offload crossover -------------------------------------------------------------- *)

let t11 () =
  let spec = { System.default_spec with accel_count = 1 } in
  let system = booted ~name:"t11" spec in
  let engine = System.engine system in
  let dev = Smart_nic.device (System.nic system 0) in
  let mc = Memctl.id (System.memctl system) in
  let accel = Lastcpu_devices.Accel_dev.id (System.accel system 0) in
  let pasid = System.fresh_pasid system in
  let bytes = 1 lsl 20 in
  let va = 0x4000_0000L in
  let token = ref None in
  Device.alloc dev ~memctl:mc ~pasid ~va ~bytes:(Int64.of_int bytes)
    ~perm:Types.perm_rw (fun r -> token := Result.to_option r);
  System.run_until_idle system;
  let token = match !token with Some t -> t | None -> invalid_arg "t11: alloc" in
  let dma = Device.dma dev ~pasid in
  for i = 0 to (bytes / 4096) - 1 do
    Lastcpu_virtio.Dma.write_bytes dma
      (Int64.add va (Int64.of_int (i * 4096)))
      (String.make 4096 (Char.chr (32 + (i mod 64))))
  done;
  let granted = ref false in
  Device.grant dev ~to_device:accel ~pasid ~va ~bytes:(Int64.of_int bytes)
    ~perm:Types.perm_rw ~auth:token (fun r -> granted := Result.is_ok r);
  System.run_until_idle system;
  if not !granted then invalid_arg "t11: grant";
  let measure_one size =
    let job = Lastcpu_devices.Accel_proto.Checksum { va; len = size } in
    let t0 = Engine.now engine in
    let off_ns = ref 0L in
    Lastcpu_devices.Accel_dev.submit dev ~accel ~pasid job (fun _ ->
        off_ns := Int64.sub (Engine.now engine) t0);
    System.run_until_idle system;
    let t1 = Engine.now engine in
    let local_ns = ref 0L in
    Lastcpu_devices.Accel_dev.run_locally dev ~pasid job (fun _ ->
        local_ns := Int64.sub (Engine.now engine) t1);
    System.run_until_idle system;
    (!off_ns, !local_ns)
  in
  let rows =
    List.map
      (fun size ->
        let off, local = measure_one size in
        [
          string_of_int size;
          ns64 off;
          ns64 local;
          Printf.sprintf "%.2fx" (Int64.to_float local /. Int64.to_float off);
        ])
      [ 64; 256; 1024; 4096; 16384; 65536; 262144; 1048576 ]
  in
  {
    id = "t11";
    title = "offload crossover: accelerator vs on-device embedded core";
    claim =
      "application-specific hardware outperforms general cores once data is \
       large enough to amortize coordination (paper S1)";
    columns = [ "bytes"; "offload (ns)"; "local (ns)"; "offload speedup" ];
    rows;
    notes =
      [
        "offload = bus submission + accelerator streaming; local = the \
         device's embedded core";
        "crossover sits where submission overhead = per-byte advantage";
      ];
  }

(* --- T12: recovery economics ------------------------------------------------------------ *)

let t12 () =
  let measure ~puts =
    let outcome = kvs_machine ~name:"t12" ~smoke_ops:0 () in
    let system = outcome.Scenario_kvs.system in
    let engine = System.engine system in
    let app = outcome.Scenario_kvs.app in
    (* Churn a small live set so the log is mostly dead records. *)
    let live_keys = 32 in
    for i = 1 to puts do
      Store.put (Kv_app.store app)
        ~key:(Printf.sprintf "k%03d" (i mod live_keys))
        ~value:(String.make 64 'v') (fun _ -> ())
    done;
    System.run_until_idle system;
    let relaunch () =
      let t0 = Engine.now engine in
      let result = ref None in
      Kv_app.launch ~nic:(System.nic system 0)
        ~memctl:(Memctl.id (System.memctl system))
        ~pasid:(System.fresh_pasid system)
        ~shm_va:
          (Int64.add 0x9000_0000L
             (Int64.mul (Int64.of_int (System.fresh_pasid system)) 0x100_0000L))
        ~user:"kvs" ~log_path:"/kv/data.log" ~start_device:false ()
        (fun r -> result := Some (r, Engine.now engine));
      System.run_until_idle system;
      match !result with
      | Some (Ok app', t_done) ->
        (Kv_app.recovered_records app', Int64.sub t_done t0)
      | _ -> invalid_arg "t12: relaunch failed"
    in
    let records_before, recovery_before = relaunch () in
    let compacted = ref false in
    Store.compact (Kv_app.store app) (fun r -> compacted := Result.is_ok r);
    System.run_until_idle system;
    if not !compacted then invalid_arg "t12: compaction failed";
    let records_after, recovery_after = relaunch () in
    (records_before, recovery_before, records_after, recovery_after)
  in
  let rows =
    List.map
      (fun puts ->
        let rb, tb, ra, ta = measure ~puts in
        [
          string_of_int puts;
          string_of_int rb;
          ns64 tb;
          string_of_int ra;
          ns64 ta;
          Printf.sprintf "%.1fx" (Int64.to_float tb /. Int64.to_float ta);
        ])
      [ 100; 400; 1000 ]
  in
  {
    id = "t12";
    title = "recovery economics: WAL replay time, before and after compaction";
    claim =
      "applications recover themselves from device-resident logs (paper S3 \
       log file / S4 error handling); compaction bounds that cost";
    columns =
      [
        "puts (32 live keys)";
        "records replayed";
        "recovery (ns)";
        "records after compact";
        "recovery after (ns)";
        "speedup";
      ];
    rows;
    notes =
      [
        "recovery = full Figure-2 re-attach + WAL read + replay, via the \
         data plane; compaction uses the crash-safe sidecar + rename path";
      ];
  }

(* --- T13: chaos soak ----------------------------------------------------------------- *)

(* Both designs run the same seeded client workload under the same fault
   plan: message loss/duplication/delay/corruption on the bus, frame
   loss/reordering on the network, NAND read faults, and a scheduled
   crash→revive window on the storage device in the middle of the
   workload. The CPU-less design survives through device-level request
   retries plus the supervisor re-running the Figure-2 attach against an
   alternate provider; the centralized baseline survives through op-level
   retries once the kernel's reset-device pass brings storage back. *)

let t13_ops = 400
let t13_think_ns = 25_000L

(* Mid-workload: ~50 ms in, the provider disappears for 10 ms. *)
let t13_crash =
  { Faults.device = "ssd0"; at_ns = 50_000_000L; down_ns = 10_000_000L }

let t13_plan = { Faults.default_chaos with Faults.crashes = [ t13_crash ] }

let t13_make_op i =
  let key = Printf.sprintf "key-%04d" (i mod 64) in
  if i land 1 = 0 then Kv_proto.Put (key, Printf.sprintf "value-%06d" i)
  else Kv_proto.Get key

(* The failover KV machine of T13 and T17: provision /kv on ssd0 only,
   boot, launch the KVS on nic0 with a supervisor that re-attaches on a
   fresh pasid/mapping, then provision ssd1. With one willing provider at
   launch, discovery deterministically pins the app to ssd0, the device
   the experiment will crash; afterwards re-discovery finds ssd1 (the log
   itself is per-provider: failover restores availability, not the dead
   device's data). *)
let failover_kvs ~name spec =
  let system = System.build ~spec () in
  let provision ssd =
    match Fs.mkdir (Smart_ssd.fs ssd) ~user:"root" ~mode:0o777 "/kv" with
    | Ok () -> ()
    | Error e ->
      invalid_arg (Printf.sprintf "%s: mkdir /kv: %s" name (Fs.error_to_string e))
  in
  provision (System.ssd system 0);
  (match System.boot system with
  | Ok () -> ()
  | Error e -> invalid_arg (Printf.sprintf "%s: boot: %s" name e));
  let next_va = ref 0x4000_0000L in
  let fresh_attach () =
    let va = !next_va in
    next_va := Int64.add va 0x100_0000L;
    (System.fresh_pasid system, va)
  in
  let launched = ref None in
  let pasid, shm_va = fresh_attach () in
  Kv_app.launch
    ~nic:(System.nic system 0)
    ~memctl:(Memctl.id (System.memctl system))
    ~pasid ~shm_va ~user:"kvs" ~log_path:"/kv/data.log" ~req_timeout:300_000L
    ~req_retries:6 ~supervisor:fresh_attach ()
    (fun r -> launched := Some r);
  System.run_until_idle system;
  match !launched with
  | None -> invalid_arg (name ^ ": launch did not complete")
  | Some (Error e) -> invalid_arg (Printf.sprintf "%s: launch: %s" name e)
  | Some (Ok app) ->
    provision (System.ssd system 1);
    (system, app)

(* Returns the soaked system plus ((client tally, converged), device
   retries, failovers, crashes injected). *)
let t13_decentralized ?(tie = Engine.Fifo) ?(sanitize = false) ~seed () =
  let spec =
    {
      System.default_spec with
      System.seed;
      ssd_count = 2;
      fault_plan = t13_plan;
      tie;
      sanitize;
    }
  in
  let system, app = failover_kvs ~name:"t13" spec in
  let engine = System.engine system in
  (* Each op is retransmitted (same correlation id: the KVS ops are
     idempotent) on an escalating timer until a non-[Failed] reply arrives
     or the attempts run out. *)
  let converged = ref false in
  let tally =
    Workload.run engine ~submit:(nic_kv system ())
      ~arrival:(Workload.Closed { ops = t13_ops; think_ns = t13_think_ns })
      ~retry:(Workload.Doubling { timeout_ns = 2_000_000L; retries = 10 })
      ~make_op:t13_make_op
      ~on_done:(fun () -> converged := true)
      ()
  in
  (* Control-plane churn alongside the data plane: a second tenant doing
     open-loop alloc/free pairs through the NIC. Its request/response
     round trips ride the faulty bus, exercising the device framework's
     retry/backoff (2% message loss ⇒ a handful of retries). *)
  let nic_dev = Smart_nic.device (System.nic system 0) in
  let mc = Memctl.id (System.memctl system) in
  let churn_pasid = System.fresh_pasid system in
  let rec churn i =
    if i < 200 then begin
      let va = Int64.add 0x8000_0000L (Int64.of_int (i * 4096)) in
      Device.alloc nic_dev ~memctl:mc ~pasid:churn_pasid ~va ~bytes:4096L
        ~perm:Types.perm_rw ~timeout:300_000L ~retries:6 (fun _ ->
          Device.free nic_dev ~memctl:mc ~pasid:churn_pasid ~va ~bytes:4096L
            (fun _ -> ()));
      Engine.schedule engine ~delay:500_000L (fun () -> churn (i + 1))
    end
  in
  churn 0;
  System.run_until_idle system;
  ( system,
    (tally (), !converged),
    Device.request_retries nic_dev,
    Kv_app.failovers app,
    Metrics.counter_read (Engine.metrics engine) ~actor:"faults"
      ~name:"crashes_injected" )

let t13_centralized ~seed () =
  let engine = Engine.create ~seed ~fault_plan:t13_plan () in
  let central = Central.create engine () in
  let store =
    Store.create ~metrics:(Engine.metrics engine) ~actor:"kv"
      (Central.store_backend central ~path:"/kv.log" ~user:"kvs")
  in
  (* Hand-rolled rather than a {!Workload} client: it retries after a
     failed reply with backoff, not on a timeout, and thinks after the
     last op too, which a closed-loop client does not. *)
  let attempted = ref 0 and succeeded = ref 0 and resends = ref 0 in
  let converged = ref false in
  let run_op i k =
    let rec attempt tries_left backoff =
      let ok = ref false in
      Central.kv_network_op central
        (fun tx ->
          match t13_make_op i with
          | Kv_proto.Put (key, value) ->
            Store.put store ~key ~value (fun r ->
                ok := r = Ok ();
                tx ())
          | _ ->
            (* Gets serve from the in-memory table on the CPU; no storage
               dependency, same as the CPU-less design's memtable path. *)
            Store.get store
              (Printf.sprintf "key-%04d" (i mod 64))
              (fun _ ->
                ok := true;
                tx ()))
        (fun () ->
          if !ok then begin
            incr succeeded;
            k ()
          end
          else if tries_left > 0 then begin
            incr resends;
            Engine.schedule engine ~delay:backoff (fun () ->
                attempt (tries_left - 1) (Int64.mul backoff 2L))
          end
          else k ())
    in
    attempt 10 150_000L
  in
  sequentially t13_ops
    (fun i k ->
      incr attempted;
      run_op i (fun () -> Engine.schedule engine ~delay:t13_think_ns k))
    (fun () -> converged := true);
  Engine.run engine;
  ( engine,
    ( {
        Workload.sent = !attempted;
        answered = !succeeded;
        resends = !resends;
      },
      !converged ),
    Metrics.counter_read (Engine.metrics engine) ~actor:"faults"
      ~name:"crashes_injected" )

let t13 () =
  let seed = 42L in
  let system, (d_stats, d_converged), d_retries, d_failovers, d_crashes =
    t13_decentralized ~seed ()
  in
  let d_elapsed = Engine.now (System.engine system) in
  let c_engine, (c_stats, c_converged), c_crashes = t13_centralized ~seed () in
  let c_elapsed = Engine.now c_engine in
  let pct s =
    Printf.sprintf "%.1f%%"
      (100. *. float_of_int s.Workload.answered
      /. float_of_int (max 1 s.Workload.sent))
  in
  let yesno b = if b then "yes" else "no" in
  {
    id = "t13";
    title = "chaos soak: seeded faults, retries and provider failover";
    claim =
      "under message loss/corruption, NAND faults and a storage-device crash, \
       the CPU-less design restores service by re-running discovery (§2.2) — \
       no CPU supervises recovery";
    columns =
      [
        "design"; "ops"; "completed"; "success"; "client resends";
        "device retries"; "failovers"; "crashes"; "elapsed (ns)"; "converged";
      ];
    rows =
      [
        [
          "CPU-less";
          string_of_int d_stats.Workload.sent;
          string_of_int d_stats.answered;
          pct d_stats;
          string_of_int d_stats.resends;
          string_of_int d_retries;
          string_of_int d_failovers;
          string_of_int d_crashes;
          ns64 d_elapsed;
          yesno d_converged;
        ];
        [
          "centralized";
          string_of_int c_stats.Workload.sent;
          string_of_int c_stats.answered;
          pct c_stats;
          string_of_int c_stats.resends;
          "-";
          "-";
          string_of_int c_crashes;
          ns64 c_elapsed;
          yesno c_converged;
        ];
      ];
    notes =
      [
        Printf.sprintf
          "fault plan: %.1f%% msg loss, %.1f%% dup, %.1f%% corrupt, %.1f%% \
           frame loss, NAND faults, ssd0 crash at %Ldns for %Ldns"
          (100. *. t13_plan.Faults.msg_loss)
          (100. *. t13_plan.Faults.msg_dup)
          (100. *. t13_plan.Faults.msg_corrupt)
          (100. *. t13_plan.Faults.frame_loss)
          t13_crash.Faults.at_ns t13_crash.Faults.down_ns;
        "CPU-less recovery: Device_failed broadcast → abort in-flight → \
         re-discover → attach to the surviving SSD (fresh pasid/mapping) → \
         recover the store → drain parked ops";
        "centralized recovery: submit syscalls fail while the device is \
         down; clients retry with backoff until the kernel's reset-device \
         pass completes";
        "same seed ⇒ byte-identical fault sequence and telemetry snapshot \
         (CI diffs two runs)";
      ];
  }

(* --- T14: overload, backpressure and metastability ---------------------------- *)

(* Open-loop load in three phases: a warm-up below capacity, a pulse far
   past it, then a return to the warm rate. The probe is the recovery
   phase: an unguarded system keeps serving the pulse's backlog (inflated
   further by client retransmits — the retry storm), so post-pulse goodput
   stays collapsed; a guarded system sheds the pulse at the door and the
   recovery phase returns to baseline goodput. *)

let t14_warm_ops = 40
let t14_warm_gap_ns = 1_000_000L
let t14_pulse_ops = 2000
let t14_pulse_gap_ns = 5_000L
let t14_recover_ops = 40
let t14_recover_gap_ns = 1_000_000L
let t14_slo_ns = 10_000_000L (* an answer slower than this is not goodput *)
let t14_client_timeout_ns = 4_000_000L
let t14_client_retries = 4
let t14_total = t14_warm_ops + t14_pulse_ops + t14_recover_ops

type t14_phase = T14_warm | T14_pulse | T14_recover

(* (phase, send offset) for every op; both designs replay this schedule.
   Arrivals carry a little seeded jitter (strictly below the phase gap, so
   phases keep their shape): the workload is open-loop but not metronomic,
   and the seed visibly feeds the run — the CI determinism job checks both
   that equal seeds agree byte-for-byte and that different seeds do not. *)
let t14_jitter_ns = 2_000

let t14_schedule ~rng () =
  let warm_end = Int64.mul (Int64.of_int t14_warm_ops) t14_warm_gap_ns in
  let pulse_end =
    Int64.add warm_end (Int64.mul (Int64.of_int t14_pulse_ops) t14_pulse_gap_ns)
  in
  Array.init t14_total (fun i ->
      let jitter = Int64.of_int (Rng.int rng t14_jitter_ns) in
      if i < t14_warm_ops then
        (T14_warm, Int64.add (Int64.mul (Int64.of_int i) t14_warm_gap_ns) jitter)
      else if i < t14_warm_ops + t14_pulse_ops then
        let j = i - t14_warm_ops in
        ( T14_pulse,
          Int64.add warm_end
            (Int64.add (Int64.mul (Int64.of_int j) t14_pulse_gap_ns) jitter) )
      else
        let j = i - t14_warm_ops - t14_pulse_ops in
        ( T14_recover,
          Int64.add pulse_end
            (Int64.add (Int64.mul (Int64.of_int j) t14_recover_gap_ns) jitter) ))

type t14_stats = {
  t14_ops : (t14_phase * Workload.outcome option) list;
      (** per op: its phase and how it settled ([None]: never did) *)
  t14_resends : int;
}

(* All Puts: they bottleneck on the WAL's flash programs, so sustained
   over-rate arrivals queue instead of completing. Gets would serve from
   the memtable and hide the overload. *)
let t14_make_op i =
  Kv_proto.Put (Printf.sprintf "k%04d" (i mod 128), Printf.sprintf "v%06d" i)

let t14_phase_cells stats phase =
  List.fold_left
    (fun (n, good, shed) (p, outcome) ->
      if p <> phase then (n, good, shed)
      else
        match outcome with
        | Some (Workload.Answered ns) when ns <= t14_slo_ns -> (n + 1, good + 1, shed)
        | Some Workload.Rejected -> (n + 1, good, shed + 1)
        | _ -> (n + 1, good, shed))
    (0, 0, 0) stats.t14_ops

let t14_goodput_pct stats phase =
  let n, good, _ = t14_phase_cells stats phase in
  Printf.sprintf "%.0f%%" (100. *. float_of_int good /. float_of_int (max 1 n))

(* The client: the schedule's open-loop arrivals, naive fixed-interval
   retransmit on silence (same corr — the server executes duplicates, which
   is exactly the amplification the guards exist to cap), and a
   backpressure-honoring stop on a busy rejection. Returns a reader of the
   run's stats. *)
let t14_client engine ~submit ~start_ns schedule =
  let outcomes = Array.make t14_total None in
  let tally =
    Workload.run engine ~submit
      ~arrival:
        (Workload.Open
           { start_ns; offsets = Array.to_list (Array.map snd schedule) })
      ~retry:
        (Workload.Fixed
           { interval_ns = t14_client_timeout_ns; retries = t14_client_retries })
      ~make_op:t14_make_op
      ~on_settle:(fun i o -> outcomes.(i) <- Some o)
      ()
  in
  fun () ->
    {
      t14_ops =
        Array.to_list (Array.mapi (fun i (phase, _) -> (phase, outcomes.(i))) schedule);
      t14_resends = (tally ()).Workload.resends;
    }

let t14_decentralized ?(tie = Engine.Fifo) ?(sanitize = false) ~seed ~guards ()
    =
  let spec =
    {
      System.default_spec with
      System.seed;
      bus_lane_capacity = (if guards then Some 64 else None);
      device_queue_capacity = (if guards then Some 64 else None);
      tie;
      sanitize;
    }
  in
  let system = System.build ~spec () in
  (match Fs.mkdir (Smart_ssd.fs (System.ssd system 0)) ~user:"root" ~mode:0o777 "/kv" with
  | Ok () -> ()
  | Error e -> invalid_arg ("t14: mkdir /kv: " ^ Fs.error_to_string e));
  (match System.boot system with
  | Ok () -> ()
  | Error e -> invalid_arg ("t14: boot: " ^ e));
  let engine = System.engine system in
  let launched = ref None in
  Kv_app.launch
    ~nic:(System.nic system 0)
    ~memctl:(Memctl.id (System.memctl system))
    ~pasid:(System.fresh_pasid system) ~shm_va:0x4000_0000L ~user:"kvs"
    ~log_path:"/kv/data.log" ()
    (fun r -> launched := Some r);
  System.run_until_idle system;
  match !launched with
  | None -> invalid_arg "t14: launch did not complete"
  | Some (Error e) -> invalid_arg ("t14: launch: " ^ e)
  | Some (Ok app) ->
    let nic_dev = Smart_nic.device (System.nic system 0) in
    if guards then begin
      Kv_app.set_overload_policy app ~max_pending:4;
      Device.enable_circuit_breaker nic_dev ~threshold:3
        ~cooldown_ns:2_000_000L
    end;
    let stats =
      t14_client engine ~submit:(nic_kv system ()) ~start_ns:(Engine.now engine)
        (t14_schedule ~rng:(Engine.fork_rng engine) ())
    in
    (* Control-plane tenant alongside the data-plane flood: open-loop
       alloc requests through the NIC device; with guards on they carry a
       deadline so any hop can shed them once they are useless. Their
       success rate shows whether the control plane stays live. *)
    let mc = Memctl.id (System.memctl system) in
    let churn_pasid = System.fresh_pasid system in
    let churn_ok = ref 0 in
    let churn_n = 100 in
    for i = 0 to churn_n - 1 do
      Engine.schedule engine
        ~delay:(Int64.mul (Int64.of_int i) 200_000L)
        (fun () ->
          let deadline_ns =
            if guards then Some (Int64.add (Engine.now engine) 1_000_000L)
            else None
          in
          let va = Int64.add 0x8000_0000L (Int64.of_int (i * 4096)) in
          Device.request nic_dev ?deadline_ns ~timeout:500_000L ~retries:2
            ~dst:(Types.Device mc)
            (Message.Alloc_request
               { pasid = churn_pasid; va; bytes = 4096L; perm = Types.perm_rw })
            (function
              | Message.Alloc_response { ok = true; _ } -> incr churn_ok
              | _ -> ()))
    done;
    System.run_until_idle system;
    (system, app, stats (), !churn_ok, churn_n)

let t14_centralized ~seed ~guards () =
  let engine = Engine.create ~seed () in
  let central =
    Central.create engine
      ?run_queue_capacity:(if guards then Some 16 else None)
      ()
  in
  let store =
    Store.create ~metrics:(Engine.metrics engine) ~actor:"kv"
      (Central.store_backend central ~path:"/kv.log" ~user:"kvs")
  in
  (* A refused frame comes back as a busy reply: the client stops
     resending, as a backpressure-honoring NIC client would. *)
  let stats =
    t14_client engine ~submit:(Workload.central central store) ~start_ns:0L
      (t14_schedule ~rng:(Engine.fork_rng engine) ())
  in
  Engine.run engine;
  (engine, central, stats ())

let t14 () =
  let seed = 42L in
  let d_off_sys, d_off_app, d_off, d_off_churn, churn_n =
    t14_decentralized ~seed ~guards:false ()
  in
  let d_on_sys, d_on_app, d_on, d_on_churn, _ =
    t14_decentralized ~seed ~guards:true ()
  in
  let on_bus = System.bus d_on_sys in
  let on_nic = Smart_nic.device (System.nic d_on_sys 0) in
  let c_off_eng, _, c_off = t14_centralized ~seed ~guards:false () in
  let c_on_eng, c_on_central, c_on = t14_centralized ~seed ~guards:true () in
  let row design guard_label stats elapsed =
    let _, _, pulse_shed = t14_phase_cells stats T14_pulse in
    [
      design;
      guard_label;
      t14_goodput_pct stats T14_warm;
      t14_goodput_pct stats T14_pulse;
      string_of_int pulse_shed;
      t14_goodput_pct stats T14_recover;
      string_of_int stats.t14_resends;
      ns64 elapsed;
    ]
  in
  {
    id = "t14";
    title = "overload: bounded queues, backpressure and metastability";
    claim =
      "past saturation, an unguarded system goes metastable — the pulse's \
       backlog plus client retransmits keep post-pulse goodput collapsed — \
       while admission control, E_busy backpressure and retry guards shed \
       the pulse and return goodput to baseline";
    columns =
      [
        "design"; "guards"; "warm goodput"; "pulse goodput"; "pulse shed";
        "recover goodput"; "client resends"; "elapsed (ns)";
      ];
    rows =
      [
        row "CPU-less" "off" d_off (Engine.now (System.engine d_off_sys));
        row "CPU-less" "on" d_on (Engine.now (System.engine d_on_sys));
        row "centralized" "off" c_off (Engine.now c_off_eng);
        row "centralized" "on" c_on (Engine.now c_on_eng);
      ];
    notes =
      [
        Printf.sprintf
          "load: %d warm ops @%Ldns, %d pulse ops @%Ldns, %d recovery ops \
           @%Ldns; SLO %Ldns; client timeout %Ldns x%d naive retransmits"
          t14_warm_ops t14_warm_gap_ns t14_pulse_ops t14_pulse_gap_ns
          t14_recover_ops t14_recover_gap_ns t14_slo_ns t14_client_timeout_ns
          t14_client_retries;
        Printf.sprintf
          "CPU-less guards: bus lanes+device queues capped at 64, KV \
           admission max_pending=4, per-peer circuit breaker (3 failures, \
           2ms cooldown), deadline-carrying control ops";
        Printf.sprintf
          "CPU-less guard counters (on): kv shed=%d, bus rejected=%d, bus \
           expired=%d, nic queue rejected=%d, breaker opens=%d fast-fails=%d \
           (off run: kv shed=%d, bus rejected=%d)"
          (Kv_app.ops_shed d_on_app)
          (Sysbus.messages_rejected on_bus)
          (Sysbus.messages_expired on_bus)
          (Device.queue_rejections on_nic)
          (Device.breaker_opens on_nic)
          (Device.breaker_fast_fails on_nic)
          (Kv_app.ops_shed d_off_app)
          (Sysbus.messages_rejected (System.bus d_off_sys));
        Printf.sprintf
          "control plane under data-plane flood: %d/%d allocs ok (guards \
           off), %d/%d (guards on)"
          d_off_churn churn_n d_on_churn churn_n;
        Printf.sprintf
          "centralized guards: run queues capped at 16, RX refused \
           EAGAIN-style when full (kernel eagains on: %d)"
          (Kernel.eagains (Central.kernel c_on_central));
      ];
  }

(* --- T15: temporal decoupling ------------------------------------------------ *)

(* Four device clusters (shards), each a full System on its own engine,
   coupled by ring links: shard i's NIC churns allocations against shard
   (i+1)'s memory controller across the quantum boundary while a local KVS
   closed loop keeps every shard's data plane busy. The cluster count is
   FIXED; [shards] below selects only how many execution lanes (Domains)
   the windows run on — which is exactly what makes digest equality across
   lane counts a meaningful statement. *)

let ring_shards = 4
let ring_lookahead_ns = 50_000L

type ring = {
  systems : System.t array;
  engines : Engine.t array;
  temporal : Temporal.t;
  remote_mc : int array;
      (** [remote_mc.(i)]: the proxy id shard [i] addresses to reach shard
          [i+1]'s memory controller *)
}

(* The ring of T15 and T16. Bring-up is sequential and per-shard
   self-contained: each cluster boots and launches its KVS before any
   coupling exists, so the setup schedule is trivially lane-independent.
   [customize i spec] adjusts shard [i]'s spec. Ring links: shard i's NIC
   <-> shard (i+1)'s memory controller. *)
let build_ring ~name ~seed ~tie ~sanitize ?quantum
    ?(customize = fun _ spec -> spec) () =
  let systems =
    Array.init ring_shards (fun i ->
        let spec =
          {
            System.default_spec with
            System.seed = Int64.add seed (Int64.of_int (1000 * i));
            shard = i;
            tie;
            sanitize;
          }
        in
        (kvs_machine
           ~name:(Printf.sprintf "%s: shard %d" name i)
           ~spec:(customize i spec) ~smoke_ops:0 ())
          .Scenario_kvs.system)
  in
  let engines = Array.map System.engine systems in
  let temporal = Temporal.create ?quantum ~lookahead:ring_lookahead_ns engines in
  let links = Shardlink.create temporal (Array.map System.bus systems) in
  let remote_mc =
    Array.init ring_shards (fun i ->
        let next = (i + 1) mod ring_shards in
        let nic_dev = Smart_nic.device (System.nic systems.(i) 0) in
        let proxy_on_i, _ =
          Shardlink.link links
            ~a:(i, Device.id nic_dev)
            ~b:(next, Memctl.id (System.memctl systems.(next)))
        in
        proxy_on_i)
  in
  { systems; engines; temporal; remote_mc }

(* Shard [i]'s load. Local data plane: [clients] closed-loop KVS clients
   (5 us think time) into histogram [hist]. Cross-shard control plane:
   [allocs] alloc/free pairs, one every [gap_ns], from the shard's NIC
   against the next shard's memory controller, at [va_base] upwards.
   Every churn request and response crosses the quantum boundary;
   timeouts cover the 2x-lookahead round trip with room for queueing. *)
let ring_load ring i ~hist ~clients ~ops ~make_op ~on_done ~va_base ~allocs
    ~gap_ns =
  let system = ring.systems.(i) in
  let (_ : Metrics.histogram) =
    kv_clients ring.engines.(i) ~submit:(nic_kv system) ~hist ~clients ~ops
      ~think_ns:5_000L ~make_op ~on_done ()
  in
  let nic_dev = Smart_nic.device (System.nic system 0) in
  let pasid = System.fresh_pasid system in
  let proxy = ring.remote_mc.(i) in
  let rec churn j =
    if j < allocs then begin
      let va = Int64.add va_base (Int64.of_int (j * 4096)) in
      Device.alloc nic_dev ~memctl:proxy ~pasid ~va ~bytes:4096L
        ~perm:Types.perm_rw ~timeout:800_000L ~retries:4 (fun _ ->
          Device.free nic_dev ~memctl:proxy ~pasid ~va ~bytes:4096L
            (fun _ -> ()));
      Engine.schedule ring.engines.(i) ~delay:gap_ns (fun () -> churn (j + 1))
    end
  in
  churn 0

(* (digest, events, elapsed): per-shard metrics digests combined in shard
   order from [salt], events executed summed over shards, and the max
   shard virtual clock. *)
let ring_fold ring ~salt =
  ( Array.fold_left
      (fun acc e -> Sanitizer.combine acc (Metrics.digest (Engine.metrics e)))
      salt ring.engines,
    Array.fold_left (fun a e -> a + Engine.events_executed e) 0 ring.engines,
    Array.fold_left (fun a e -> max a (Engine.now e)) 0L ring.engines )

let t15_kv_clients = 3
let t15_kv_ops = 400
let t15_remote_allocs = 120
let t15_remote_gap_ns = 400_000L

type t15_result = {
  t15_events : int;  (** events executed, summed over shards *)
  t15_elapsed : int64;  (** max shard virtual clock at drain *)
  t15_digest : int64;  (** per-shard metrics digests, combined in shard order *)
  t15_boundary : int;  (** cross-shard messages delivered at quantum edges *)
  t15_windows : int;  (** rendezvous windows executed *)
  t15_systems : System.t array;
}

let t15_soak ?(shards = 1) ?(quantum = ring_lookahead_ns) ?(tie = Engine.Fifo)
    ?(sanitize = false) ~seed () =
  if shards < 1 then invalid_arg "t15: shards must be >= 1";
  let ring = build_ring ~name:"t15" ~seed ~tie ~sanitize ~quantum () in
  let kv_done = Array.make ring_shards 0 in
  for i = 0 to ring_shards - 1 do
    ring_load ring i ~hist:"kv_shard" ~clients:t15_kv_clients ~ops:t15_kv_ops
      ~make_op:(fun c j ->
        let key = Printf.sprintf "key-%04d" ((j + (c * 7)) mod 64) in
        if j mod 3 = 0 then Kv_proto.Put (key, Printf.sprintf "v-%d-%d" c j)
        else Kv_proto.Get key)
      ~on_done:(fun () -> kv_done.(i) <- kv_done.(i) + 1)
      ~va_base:0x9000_0000L ~allocs:t15_remote_allocs ~gap_ns:t15_remote_gap_ns
  done;
  let pool = Parallel.Pool.create ~lanes:shards in
  Fun.protect
    ~finally:(fun () -> Parallel.Pool.shutdown pool)
    (fun () -> Temporal.run ~pool ring.temporal);
  Array.iteri
    (fun i n ->
      if n <> t15_kv_clients then
        invalid_arg
          (Printf.sprintf "t15: shard %d: %d/%d kv clients converged" i n
             t15_kv_clients))
    kv_done;
  let digest, events, elapsed = ring_fold ring ~salt:0x743135L (* "t15" *) in
  {
    t15_events = events;
    t15_elapsed = elapsed;
    t15_digest = digest;
    t15_boundary = Temporal.boundary_events ring.temporal;
    t15_windows = Temporal.windows_run ring.temporal;
    t15_systems = ring.systems;
  }

let t15 ~shards () =
  let quantum = ring_lookahead_ns and seed = 42L in
  let r = t15_soak ~shards ~quantum ~seed () in
  (* Deliberately lane-count-free output: CI diffs the rendered table
     between --shards 1 and --shards 4 runs, so every cell must be a pure
     function of (seed, quantum). *)
  {
    id = "t15";
    title = "temporal decoupling: quantum-synchronized shards in one run";
    claim =
      "a run partitioned into device-cluster shards with per-shard clocks \
       and boundary-event exchange at quantum edges is observably \
       deterministic: the digest is independent of how many domains \
       execute the shards";
    columns =
      [ "clusters"; "events"; "elapsed (ns)"; "boundary msgs"; "windows"; "digest" ];
    rows =
      [
        [
          string_of_int ring_shards;
          string_of_int r.t15_events;
          ns64 r.t15_elapsed;
          string_of_int r.t15_boundary;
          string_of_int r.t15_windows;
          Printf.sprintf "0x%016Lx" r.t15_digest;
        ];
      ];
    notes =
      [
        Printf.sprintf
          "quantum=%Ldns lookahead=%Ldns; ring of %d clusters, %d kv \
           clients x %d ops + %d cross-shard alloc/free pairs per shard"
          quantum ring_lookahead_ns ring_shards t15_kv_clients t15_kv_ops
          t15_remote_allocs;
      ];
  }

(* --- T16: crash-survivable simulation (kill-resume soak) --------------------- *)

(* The t15 ring again — four full Systems coupled at quantum edges — but
   run as a sequence of SEGMENTS with a whole-machine checkpoint written
   at every segment boundary (a quiescent point: every shard drained to
   static-only, aligned at a quantum edge). The soak can then be killed
   after any boundary and resumed in a fresh process: the resumed run
   rebuilds the identical topology, overlays the snapshot, and finishes
   the remaining segments. The claim is bit-identical observability —
   final metrics digest, event counts and virtual clocks equal between
   the uninterrupted run and the killed-and-resumed run, including when
   the kill lands mid-checkpoint and leaves a torn primary on disk. *)

let t16_segments = 5
let t16_kv_clients = 2
let t16_kv_ops = 80
let t16_remote_allocs = 40
let t16_remote_gap_ns = 300_000L
let t16_pings = 12
let t16_ping_gap_ns = 150_000L

(* Shard 0 carries a second SSD — deliberately NOT the KVS provider (the
   scenario provisions /kv on ssd0 only, pinning discovery there) — that
   crashes just after bring-up quiesces (~2.3 ms) and stays down long
   enough for the window to straddle two segment boundaries (~54 ms per
   segment): checkpoints are taken with the device dead and its
   statically scheduled revive still pending, and the resume must carry
   both the NIC's tripped circuit breaker and the remainder of the crash
   window across the restore. The ping bursts of segments 1 and 2 land
   inside the window and bounce off the dead device, tripping the
   breaker in both the original and the resumed process. *)
let t16_crash =
  { Faults.device = "ssd1"; at_ns = 5_000_000L; down_ns = 135_000_000L }

type t16_result = {
  t16_digest : int64;  (** per-shard metrics digests, combined in shard order *)
  t16_events : int;  (** events executed, summed over shards *)
  t16_elapsed : int64;  (** max shard virtual clock at drain *)
  t16_segments_run : int;  (** segments executed by THIS process *)
  t16_restored : Snapshot.generation option;
      (** [Some g] when this run resumed from a snapshot; [g] says whether
          the primary file or the previous-generation fallback restored *)
  t16_systems : System.t array;
}

let t16_soak ?(lanes = 1) ?(tie = Engine.Fifo) ?(sanitize = false)
    ?snapshot_path ?resume ?stop_after ?torn_final ~seed () =
  if lanes < 1 then invalid_arg "t16: lanes must be >= 1";
  (* Deterministic rebuild: this block is the "identical builder" the
     snapshot contract requires — a resumed process runs exactly it, then
     overlays the saved state. *)
  let ring =
    build_ring ~name:"t16" ~seed ~tie ~sanitize
      ~customize:(fun i spec ->
        if i = 0 then
          {
            spec with
            System.ssd_count = 2;
            fault_plan = { Faults.zero with Faults.crashes = [ t16_crash ] };
          }
        else spec)
      ()
  in
  (* Breaker on the shard that pings the crashing SSD: its Open /
     Half_open phase at each boundary is exactly the device-state-machine
     payload the checkpoint must carry. *)
  Device.enable_circuit_breaker
    (Smart_nic.device (System.nic ring.systems.(0) 0))
    ~threshold:3 ~cooldown_ns:1_000_000L;
  let seg_done = Array.make ring_shards 0 in
  let install seg =
    Array.fill seg_done 0 ring_shards 0;
    for i = 0 to ring_shards - 1 do
      ring_load ring i ~hist:"kv_t16" ~clients:t16_kv_clients ~ops:t16_kv_ops
        ~make_op:(fun c j ->
          let key = Printf.sprintf "key-%d-%03d" seg ((j + (c * 13)) mod 48) in
          if (j + seg) mod 3 = 0 then
            Kv_proto.Put (key, Printf.sprintf "v-%d-%d-%d" seg c j)
          else Kv_proto.Get key)
        ~on_done:(fun () -> seg_done.(i) <- seg_done.(i) + 1)
        ~va_base:
          (Int64.add 0xA000_0000L (Int64.of_int (seg * t16_remote_allocs * 4096)))
        ~allocs:t16_remote_allocs ~gap_ns:t16_remote_gap_ns;
      if i = 0 then begin
        (* Pings against the crash-windowed SSD: image loads, which a live
           SSD answers with "load-ok". While it is down they time out and
           trip the NIC's per-peer breaker. *)
        let system = ring.systems.(0) in
        let nic_dev = Smart_nic.device (System.nic system 0) in
        let target_ssd = Smart_ssd.id (System.ssd system 1) in
        let rec ping j =
          if j < t16_pings then
            Device.request nic_dev ~timeout:200_000L ~retries:1
              ~dst:(Types.Device target_ssd)
              (Message.Load_image
                 { image = Printf.sprintf "probe-%d-%02d" seg j; bytes = 512L })
              (fun _ ->
                Engine.schedule ring.engines.(0) ~delay:t16_ping_gap_ns
                  (fun () -> ping (j + 1)))
        in
        ping 0
      end
    done
  in
  let check seg =
    Array.iteri
      (fun i n ->
        if n <> t16_kv_clients then
          invalid_arg
            (Printf.sprintf
               "t16: shard %d segment %d: %d/%d kv clients converged" i seg n
               t16_kv_clients))
      seg_done
  in
  let leg =
    Soak.run ~name:"t16" ~seed ~lanes ~segments:t16_segments ?snapshot_path
      ?resume ?stop_after ?torn_final ~install ~check
      (Checkpoint.Sharded ring.temporal)
  in
  let digest, events, elapsed = ring_fold ring ~salt:0x743136L (* "t16" *) in
  {
    t16_digest = digest;
    t16_events = events;
    t16_elapsed = elapsed;
    t16_segments_run = leg.Soak.segments_run;
    t16_restored = leg.Soak.restored;
    t16_systems = ring.systems;
  }

let t16_kill_boundary = 3

let t16 ~lanes () =
  let seed = 42L in
  (* Kill leg: checkpoint every boundary, die "mid-checkpoint" at boundary
     3 — the file written there is torn, exactly the on-disk state of a
     process killed between write and rename. Resume leg: fresh topology;
     the torn primary must be rejected and the previous generation
     (boundary 2) restored, re-running one segment deterministically
     before the remaining two. *)
  let full, killed, resumed =
    Soak.kill_resume ~name:"t16" ~kill_boundary:t16_kill_boundary
      (t16_soak ~lanes ~seed ~tie:Engine.Fifo ~sanitize:false)
  in
  let identical =
    resumed.t16_digest = full.t16_digest
    && resumed.t16_events = full.t16_events
    && resumed.t16_elapsed = full.t16_elapsed
  in
  let run_row name (r : t16_result) =
    [
      name;
      string_of_int r.t16_segments_run;
      string_of_int r.t16_events;
      ns64 r.t16_elapsed;
      Printf.sprintf "0x%016Lx" r.t16_digest;
    ]
  in
  (* Lane-count-free output: CI diffs the rendered table between
     --shards 1 and --shards 4 runs of the whole kill/resume cycle. *)
  {
    id = "t16";
    title = "crash-survivable simulation: kill-resume soak over snapshots";
    claim =
      "a run checkpointed at quiescent segment boundaries can be killed — \
       even mid-checkpoint, leaving a torn file — and resumed from disk \
       into a freshly rebuilt topology with bit-identical observable state";
    columns = [ "run"; "segments"; "events"; "elapsed (ns)"; "digest" ];
    rows =
      [
        run_row "uninterrupted" full;
        [
          Soak.killed_label t16_kill_boundary;
          string_of_int killed.t16_segments_run;
          "-";
          "-";
          "-";
        ];
        run_row (Soak.resumed_label resumed.t16_restored) resumed;
        Soak.verdict_row ~columns:5 ~identical resumed.t16_restored;
      ];
    notes =
      [
        Printf.sprintf
          "%d segments, checkpoint per boundary; ring of %d clusters, %d kv \
           clients x %d ops + %d cross-shard alloc/free pairs per shard per \
           segment; ssd1 crash window [%Ldns, %Ldns] spans two checkpoints"
          t16_segments ring_shards t16_kv_clients t16_kv_ops t16_remote_allocs
          t16_crash.Faults.at_ns
          (Int64.add t16_crash.Faults.at_ns t16_crash.Faults.down_ns);
        "torn primary at the kill boundary forces restore from the previous \
         generation: one segment is re-run deterministically";
      ];
  }

(* --- T17: rogue-device containment soak --------------------------------------- *)

(* One smart NIC turns hostile mid-run: it replays privileged directives,
   forges token MACs, overreaches its DMA grant, and pushes malformed and
   spoofed frames through the raw ingress. The bus's misbehavior scoring
   quarantines it and the revocation cascade tears down every capability
   it held; the KV app survives a provider crash through the PR-2 failover
   path; a revived device cannot resurrect on a bare heartbeat; parole
   re-admission goes through the reset line, after which the rogue's
   pre-revocation token dies on the epoch check. The whole soak is
   deterministic and — like T16 — survives a kill–resume from a
   quiescent-boundary checkpoint with a bit-identical digest. *)

let t17_segments = 6
let t17_kv_clients = 2
let t17_kv_ops = 60
let t17_think_ns = 5_000L
let t17_rogue_va = 0x6000_0000L
let t17_rogue_bytes = 8192L

(* Checkpoints stop after this boundary: segment 2 crashes the KV provider
   and [Kv_app.save_state] deliberately refuses to checkpoint a failed-over
   app. The kill lands exactly at the last checkpointable boundary, torn,
   so the resume must fall back one generation and re-run the entire rogue
   barrage deterministically. *)
let t17_kill_boundary = 2

type t17_result = {
  t17_digest : int64;
  t17_events : int;
  t17_elapsed : int64;
  t17_segments_run : int;
  t17_restored : Snapshot.generation option;
  t17_quarantines : int;
  t17_revocations : int;
  t17_stale : int;  (** pre-revocation tokens NACKed on the epoch check *)
  t17_fenced : int;  (** frames dropped at the quarantine fence *)
  t17_malformed : int;
  t17_failovers : int;
  t17_rogue_trust : string;
  t17_system : System.t;
}

let t17_soak ?snapshot_path ?resume ?stop_after ?torn_final ~seed () =
  (* Deterministic rebuild (the snapshot contract's "identical builder"):
     topology, KV launch and the rogue's one legitimate allocation —
     including the capability token it will later replay — are all
     pre-checkpoint state, recomputed identically by a resuming process.
     As in T13, discovery pins the app to ssd0, the device segment 2 will
     crash. *)
  let spec =
    {
      System.default_spec with
      System.seed;
      nic_count = 2;
      ssd_count = 2;
      quarantine = true;
    }
  in
  let system, app = failover_kvs ~name:"t17" spec in
  let engine = System.engine system in
  let bus = System.bus system in
  let mc = System.memctl system in
  let ssd0_id = Smart_ssd.id (System.ssd system 0) in
  let ssd1_id = Smart_ssd.id (System.ssd system 1) in
  let ssd0_services = Sysbus.services_of bus ssd0_id in
  let victim_id = Device.id (Smart_nic.device (System.nic system 0)) in
  (* The rogue: the second NIC. Before turning hostile it behaves — one
     legitimate allocation whose token (and mapping) it will later abuse. *)
  let rogue = Smart_nic.device (System.nic system 1) in
  let rogue_id = Device.id rogue in
  let rogue_pasid = System.fresh_pasid system in
  let rogue_token = ref None in
  Device.alloc rogue ~memctl:(Memctl.id mc) ~pasid:rogue_pasid
    ~va:t17_rogue_va ~bytes:t17_rogue_bytes ~perm:Types.perm_rw (fun r ->
      match r with Ok tok -> rogue_token := Some tok | Error _ -> ());
  System.run_until_idle system;
  let rogue_token =
    match !rogue_token with
    | Some tok -> tok
    | None -> invalid_arg "t17: rogue bring-up allocation failed"
  in
  let rogue_pa =
    match
      Iommu.probe (Sysbus.iommu_of bus rogue_id) ~pasid:rogue_pasid
        ~va:t17_rogue_va
    with
    | Some pa -> pa
    | None -> invalid_arg "t17: rogue region not mapped"
  in
  let rogue_dma = Device.dma rogue ~pasid:rogue_pasid in
  (* Rogue egress: raw CRC-framed bytes on the bus, the same ingress a
     physically compromised endpoint would use. *)
  let raw msg = Sysbus.send_raw bus ~src:rogue_id (Codec.encode_framed msg) in
  let rogue_msg ?(dst = Types.Bus) ~corr payload =
    Message.make ~src:rogue_id ~dst ~corr payload
  in
  let replay_directive ~corr =
    rogue_msg ~corr
      (Message.Map_directive
         {
           device = rogue_id;
           pasid = rogue_pasid;
           va = t17_rogue_va;
           pa = rogue_pa;
           bytes = t17_rogue_bytes;
           perm = Types.perm_rw;
           auth = rogue_token;
         })
  in
  let seg_done = ref 0 in
  let install_kv seg =
    seg_done := 0;
    let (_ : Metrics.histogram) =
      kv_clients engine ~submit:(nic_kv system) ~hist:"kv_t17"
        ~clients:t17_kv_clients ~ops:t17_kv_ops ~think_ns:t17_think_ns
        ~make_op:(fun c j ->
          let key = Printf.sprintf "key-%d-%03d" seg ((j + (c * 17)) mod 40) in
          if (j + seg) mod 3 = 0 then
            Kv_proto.Put (key, Printf.sprintf "v-%d-%d-%d" seg c j)
          else Kv_proto.Get key)
        ~on_done:(fun () -> incr seg_done)
        ()
    in
    ()
  in
  let at delay f = Engine.schedule engine ~delay f in
  let require cond what = if not cond then invalid_arg ("t17: " ^ what) in
  let install_segment seg =
    install_kv seg;
    match seg with
    | 1 ->
      (* The barrage. Each escalation exercises a distinct scoring channel:
         a malformed frame (+2), a DMA fault (+2, Suspect at 4), a forged
         MAC (+3), a ten-shot same-corr burst of privileged grants (two
         past the allowance of eight, +1 each, scored before the handler
         even looks at the token), and finally a spoofed source (+4) that
         crosses the quarantine threshold of 10 — revoking every
         capability the rogue holds. Traffic after that dies at the
         fence. *)
      let fz = Fuzz.create ~seed:(Int64.logxor seed 0x1717L) in
      at 10_000L (fun () ->
          (* A forged failure broadcast: decodes fine, scores nothing, and
             must not perturb the bus's own liveness table. *)
          raw
            (rogue_msg ~dst:Types.Broadcast ~corr:9000
               (Message.Device_failed { device = ssd1_id })));
      at 15_000L (fun () ->
          (* Undecodable bytes at the raw ingress: malformed, counted and
             scored per device. *)
          Sysbus.send_raw bus ~src:rogue_id "\xde\xad\xbe\xef");
      at 20_000L (fun () ->
          match
            Dma.read_bytes rogue_dma (Int64.add t17_rogue_va 0x10000L) 8
          with
          | _ -> require false "rogue DMA overreach was not faulted"
          | exception Dma.Dma_fault _ -> ());
      at 30_000L (fun () ->
          (* Forged MAC: flipping any covered bit must fail verification. *)
          raw
            (rogue_msg ~corr:9001
               (Message.Map_directive
                  {
                    device = rogue_id;
                    pasid = rogue_pasid;
                    va = t17_rogue_va;
                    pa = rogue_pa;
                    bytes = t17_rogue_bytes;
                    perm = Types.perm_rw;
                    auth =
                      {
                        rogue_token with
                        Token.mac = Int64.lognot rogue_token.Token.mac;
                      };
                  })));
      at 40_000L (fun () ->
          (* Replay storm: one corr id, ten privileged repeats. The token
             is the rogue's own (subject-wielded, in range), so only the
             replay channel scores — the allowance forgives eight. *)
          for _k = 0 to 9 do
            raw
              (rogue_msg ~corr:9002
                 (Message.Grant_request
                    {
                      to_device = rogue_id;
                      pasid = rogue_pasid;
                      va = t17_rogue_va;
                      bytes = t17_rogue_bytes;
                      perm = Types.perm_rw;
                      auth = rogue_token;
                    }))
          done);
      at 50_000L (fun () ->
          (* Spoof: a frame claiming the victim NIC's source on the rogue's
             physical lane. +4 crosses the threshold: quarantine. *)
          raw
            (Message.make ~src:victim_id ~dst:Types.Bus ~corr:9003
               Message.Heartbeat));
      at 60_000L (fun () ->
          (* Everything below arrives at a quarantined slot: fenced. *)
          Sysbus.send_raw bus ~src:rogue_id "\x00";
          raw (replay_directive ~corr:9004));
      at 70_000L (fun () ->
          for _k = 0 to 3 do
            Sysbus.send_raw bus ~src:rogue_id
              (Fuzz.mutate_bytes fz
                 (Codec.encode_framed (rogue_msg ~corr:9005 Message.Heartbeat)))
          done)
    | 2 ->
      (* Provider crash: the app's PR-2 failover path re-discovers ssd1. *)
      Sysbus.fail_device bus ssd0_id
    | 3 ->
      (* Reconnect ssd0 and show no silent resurrection: a bare heartbeat
         from the revived-but-dead device must not restore liveness; only
         the explicit re-announce handshake does. *)
      Sysbus.revive_device bus ssd0_id;
      at 10_000L (fun () ->
          Sysbus.send bus
            (Message.make ~src:ssd0_id ~dst:Types.Bus ~corr:0 Message.Heartbeat));
      at 30_000L (fun () ->
          require
            (not (Sysbus.is_live bus ssd0_id))
            "bare heartbeat resurrected ssd0");
      at 40_000L (fun () ->
          Sysbus.send bus
            (Message.make ~src:ssd0_id ~dst:Types.Bus ~corr:0
               (Message.Device_alive { services = ssd0_services })))
    | 4 ->
      (* Parole: reset line, re-announce, then the rogue replays its
         pre-revocation token — stale under the bumped epoch, NACKed. *)
      Sysbus.release_quarantine bus rogue_id;
      at 20_000L (fun () ->
          require (Sysbus.is_live bus rogue_id)
            "rogue did not re-announce after the reset line";
          raw (replay_directive ~corr:9101);
          raw (replay_directive ~corr:9102))
    | _ -> ()
  in
  let check seg =
    require
      (!seg_done = t17_kv_clients)
      (Printf.sprintf "segment %d: %d/%d kv clients converged" seg !seg_done
         t17_kv_clients);
    match seg with
    | 1 ->
      require
        (Sysbus.trust_of bus rogue_id = Sysbus.Quarantined)
        "barrage did not quarantine the rogue";
      require (Sysbus.revocations bus >= 1) "quarantine did not revoke";
      require
        (Memctl.allocations_of mc ~pasid:rogue_pasid = [])
        "revocation cascade left the rogue's allocation";
      require
        (Iommu.pasids (Sysbus.iommu_of bus rogue_id) = [])
        "revocation left mappings in the rogue's iommu"
    | 2 ->
      require
        (Kv_app.failovers app = 1)
        "kv app did not fail over to the alternate provider"
    | 3 -> require (Sysbus.is_live bus ssd0_id) "ssd0 re-announce not honored"
    | 4 ->
      require (Sysbus.stale_tokens bus >= 2)
        "pre-revocation token replays were not counted stale";
      require
        (Sysbus.trust_of bus rogue_id = Sysbus.Suspect)
        "paroled rogue should be suspect, not quarantined or trusted"
    | _ -> ()
  in
  let leg =
    Soak.run ~name:"t17" ~seed ~segments:t17_segments
      ~last_checkpoint:t17_kill_boundary ?snapshot_path ?resume ?stop_after
      ?torn_final ~install:install_segment ~check (Checkpoint.Single engine)
  in
  {
    t17_digest =
      Sanitizer.combine 0x743137L (* "t17" *)
        (Metrics.digest (Engine.metrics engine));
    t17_events = Engine.events_executed engine;
    t17_elapsed = Engine.now engine;
    t17_segments_run = leg.Soak.segments_run;
    t17_restored = leg.Soak.restored;
    t17_quarantines = Sysbus.quarantines bus;
    t17_revocations = Sysbus.revocations bus;
    t17_stale = Sysbus.stale_tokens bus;
    t17_fenced = Sysbus.messages_fenced bus;
    t17_malformed = Sysbus.malformed_total bus;
    t17_failovers = Kv_app.failovers app;
    t17_rogue_trust = Sysbus.trust_to_string (Sysbus.trust_of bus rogue_id);
    t17_system = system;
  }

let t17 () =
  let seed = 42L in
  (* Kill leg: die mid-checkpoint at the last checkpointable boundary — the
     barrage segment's own boundary — leaving a torn primary. Resume leg:
     torn primary rejected, previous generation restored; the entire
     barrage re-runs deterministically. *)
  let full, killed, resumed =
    Soak.kill_resume ~name:"t17" ~kill_boundary:t17_kill_boundary
      (t17_soak ~seed)
  in
  let identical =
    resumed.t17_digest = full.t17_digest
    && resumed.t17_events = full.t17_events
    && resumed.t17_elapsed = full.t17_elapsed
  in
  let run_row name (r : t17_result) final =
    [
      name;
      string_of_int r.t17_segments_run;
      string_of_int r.t17_quarantines;
      string_of_int r.t17_stale;
      string_of_int r.t17_failovers;
      r.t17_rogue_trust;
      (if final then Printf.sprintf "0x%016Lx" r.t17_digest else "-");
    ]
  in
  {
    id = "t17";
    title = "rogue-device containment: quarantine, revocation, failover";
    claim =
      "a device that turns hostile mid-run is quarantined by misbehavior \
       scoring, its capabilities revoked by one epoch bump, and the \
       workload it served fails over and recovers — deterministically, \
       surviving a torn-checkpoint kill-resume bit-identically";
    columns =
      [ "run"; "segments"; "quarantines"; "stale"; "failovers"; "rogue trust";
        "digest" ];
    rows =
      [
        run_row "uninterrupted" full true;
        run_row (Soak.killed_label t17_kill_boundary) killed false;
        run_row (Soak.resumed_label resumed.t17_restored) resumed true;
        Soak.verdict_row ~columns:7 ~identical resumed.t17_restored;
      ];
    notes =
      [
        Printf.sprintf
          "%d segments, %d kv clients x %d ops each; barrage evidence: dma \
           fault + forged mac + corr replay storm + spoofed source (weights \
           %d/%d/%d/%d, threshold %d); %d frames fenced, %d malformed \
           rejected"
          t17_segments t17_kv_clients t17_kv_ops
          Sysbus.dma_fault_weight Sysbus.bad_token_weight Sysbus.replay_weight
          Sysbus.spoof_weight Sysbus.quarantine_score
          full.t17_fenced full.t17_malformed;
        "re-admission is reset-line -> re-announce only: a bare heartbeat \
         from the revived provider is ignored, and the paroled rogue's \
         pre-revocation token is NACKed stale";
        "single-engine soak: --shards cannot perturb it, and the kill-resume \
         legs above are the determinism evidence";
      ];
  }

type sanitize_report = {
  san_exp : string;
  san_perturbation : string;  (** ["lifo"] or ["salted"] *)
  san_multi_event_ticks : int;  (** journalled ticks in the reference run *)
  san_divergence : Sanitizer.divergence option;  (** [None] = no race found *)
}

(* The digest-pinned single-engine soaks: the CPU-less arms whose metrics
   digests and sanitizer journals the determinism goldens pin, and whose
   telemetry the chaos/overload CLI commands dump. *)
let pinned_soaks =
  [
    ( "t1",
      fun ~seed ~tie ~sanitize ->
        fst (t1_decentralized ~seed ~tie ~sanitize ~enable_tokens:true ()) );
    ( "t13",
      fun ~seed ~tie ~sanitize ->
        let system, _, _, _, _ = t13_decentralized ~tie ~sanitize ~seed () in
        system );
    ( "t14",
      fun ~seed ~tie ~sanitize ->
        let system, _, _, _, _ =
          t14_decentralized ~tie ~sanitize ~seed ~guards:true ()
        in
        system );
  ]

let soaked_system ?(tie = Engine.Fifo) ?(sanitize = false) ~exp ~seed () =
  match List.assoc_opt exp pinned_soaks with
  | Some run -> run ~seed ~tie ~sanitize
  | None -> invalid_arg ("sanitize: unknown experiment " ^ exp)

(* Multi-shard t15: per-shard journals concatenated in shard order — a
   deterministic flattening, so journal equality still means "same
   observable schedule everywhere". *)
let t15_journal (r : t15_result) =
  List.concat_map
    (fun system -> Engine.sanitizer_journal (System.engine system))
    (Array.to_list r.t15_systems)

let sanitize_journal ~exp ~seed ~tie =
  if exp = "t15" then t15_journal (t15_soak ~tie ~sanitize:true ~seed ())
  else
    Engine.sanitizer_journal
      (System.engine (soaked_system ~tie ~sanitize:true ~exp ~seed ()))

let sanitize_experiments = List.map fst pinned_soaks @ [ "t15" ]

let metrics_digest ~exp ~seed =
  if exp = "t15" then (t15_soak ~seed ()).t15_digest
  else
    Metrics.digest (Engine.metrics (System.engine (soaked_system ~exp ~seed ())))

let sanitize ?(seed = 42L) ~exp () =
  let perturbations =
    [
      ("lifo", Engine.Lifo);
      ("salted", Engine.Salted (Int64.logxor seed 0x5a17edL));
    ]
  in
  if exp = "t15" then begin
    (* Diffing the FIFO journal against a perturbed-tie journal assumes the
       set of multi-event ticks is perturbation-stable. t15 runs two
       independent paced streams per shard (closed-loop KVS clients and the
       cross-shard alloc churn), so some collisions are coincidences of
       unrelated streams: the few service-times of drift a perturbed tie
       legitimately introduces dissolves those collisions, misaligning the
       sampled trajectories without any ordering race (the salted run's
       hash sequence stays a subsequence of the reference's). The t15
       contracts that are strict and stable are checked instead: the final
       digest must be tie-invariant, and under each perturbed tie the full
       per-shard journal must be bit-identical whether one or four domains
       execute the shards — the temporal layer's boundary merge must not
       leak lane scheduling even through a perturbed heap. *)
    let run ~tie ~shards =
      (* These runs double as the ownership sanitizer's soak (the dynamic
         half of the D007 audit): every guarded cell touched during a
         window is checked against the touching lane's shard context, so
         a cross-shard access would abort the sanitize pass right here. *)
      Ownership.enable ();
      Fun.protect ~finally:Ownership.disable @@ fun () ->
      let r = t15_soak ~shards ~tie ~sanitize:true ~seed () in
      (r.t15_digest, t15_journal r)
    in
    let ref_digest, _ = run ~tie:Engine.Fifo ~shards:1 in
    List.map
      (fun (name, tie) ->
        let d1, j1 = run ~tie ~shards:1 in
        let d4, j4 = run ~tie ~shards:4 in
        let divergence =
          match Sanitizer.compare_journals ~reference:j1 ~perturbed:j4 with
          | Some d -> Some d
          | None ->
            if d1 <> ref_digest || d4 <> ref_digest then
              (* Journals agree across lanes but the end state depends on
                 the tie-break: surface it as a divergence past the end of
                 the journal rather than silently passing. *)
              Some
                {
                  Sanitizer.index = List.length j1;
                  reference = None;
                  perturbed = None;
                }
            else None
        in
        {
          san_exp = exp;
          san_perturbation = name;
          san_multi_event_ticks = List.length j1;
          san_divergence = divergence;
        })
      perturbations
  end
  else
    let reference = sanitize_journal ~exp ~seed ~tie:Engine.Fifo in
    List.map
      (fun (name, tie) ->
        let perturbed = sanitize_journal ~exp ~seed ~tie in
        {
          san_exp = exp;
          san_perturbation = name;
          san_multi_event_ticks = List.length reference;
          san_divergence = Sanitizer.compare_journals ~reference ~perturbed;
        })
      perturbations

(* --- registry ------------------------------------------------------------------------- *)

let registry ~shards =
  [
    ("f1", f1);
    ("f2", f2);
    ("t1", fun () -> t1 ~enable_tokens:true ());
    ("t1-notokens", fun () -> t1 ~enable_tokens:false ());
    ("t2", t2);
    ("t3", t3);
    ("t4", t4);
    ("t5", t5);
    ("t6", t6);
    ("t7", t7);
    ("t8", t8);
    ("t9", t9);
    ("t10", t10);
    ("t11", t11);
    ("t12", t12);
    ("t13", t13);
    ("t14", t14);
    ("t15", fun () -> t15 ~shards ());
    ("t16", fun () -> t16 ~lanes:shards ());
    ("t17", t17);
  ]

let ids = List.map fst (registry ~shards:1)
let by_id ?(shards = 1) id = List.assoc_opt id (registry ~shards)
