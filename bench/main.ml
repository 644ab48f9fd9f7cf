(* Benchmark harness.

   Usage:
     dune exec bench/main.exe             # every figure and table + micro suite
     dune exec bench/main.exe f2 t3       # selected experiments
     dune exec bench/main.exe micro       # bechamel micro-benchmarks
     dune exec bench/main.exe all micro   # both
     dune exec bench/main.exe metrics     # telemetry JSON snapshot of a KVS run
     dune exec bench/main.exe core        # engine macro-bench -> BENCH_core.json
     dune exec bench/main.exe all -j 4    # experiment tables across 4 domains

   Each experiment regenerates one figure/table of EXPERIMENTS.md; the
   micro suite has one bechamel Test.make per table, covering that table's
   core primitive; the core suite is the perf-regression baseline for the
   engine hot path (schedule->pop throughput, allocation per event, bus
   routing with tracing on vs off, end-to-end T1 events/sec), written to
   BENCH_core.json for CI to archive. *)

module Experiments = Lastcpu_core.Experiments
module Parallel = Lastcpu_sim.Parallel

(* --- micro-benchmarks (bechamel) ------------------------------------------- *)

module Micro = struct
  open Bechamel
  open Toolkit

  module Types = Lastcpu_proto.Types
  module Message = Lastcpu_proto.Message
  module Codec = Lastcpu_proto.Codec
  module Token = Lastcpu_proto.Token
  module Engine = Lastcpu_sim.Engine
  module Sysbus = Lastcpu_bus.Sysbus
  module Iommu = Lastcpu_iommu.Iommu
  module Pagetable = Lastcpu_iommu.Pagetable
  module Buddy = Lastcpu_mem.Buddy
  module Physmem = Lastcpu_mem.Physmem
  module Vq = Lastcpu_virtio.Virtqueue
  module Dma = Lastcpu_virtio.Dma
  module Store = Lastcpu_kv.Store
  module Wal = Lastcpu_kv.Wal

  let key = 0xFEEDL

  let sample_token =
    Token.mint ~key ~issuer:1 ~subject:2 ~pasid:3 ~resource:"dram"
      ~base:0x1000L ~length:65536L ~perm:Types.perm_rw ~nonce:9L ()

  let sample_msg =
    Message.make ~src:1 ~dst:Lastcpu_proto.Types.Bus ~corr:42
      (Message.Map_directive
         {
           device = 2;
           pasid = 3;
           va = 0x4000_0000L;
           pa = 0x1000_0000L;
           bytes = 65536L;
           perm = Types.perm_rw;
           auth = sample_token;
         })

  (* t1 primitive: one control message encoded + decoded (the bus's
     protocol work). *)
  let bench_codec =
    Test.make ~name:"t1.codec-roundtrip"
      (Staged.stage (fun () -> ignore (Codec.decode (Codec.encode sample_msg))))

  (* t1 primitive: capability verification on the bus. *)
  let bench_token =
    Test.make ~name:"t1.token-verify"
      (Staged.stage (fun () -> ignore (Token.verify ~key sample_token)))

  (* t2/t7 primitive: a KVS get against the in-memory index. *)
  let bench_store_get =
    let store = Store.create (Store.memory_backend ()) in
    Store.put store ~key:"bench" ~value:"value" (fun _ -> ());
    Test.make ~name:"t2.store-get"
      (Staged.stage (fun () -> Store.get store "bench" (fun _ -> ())))

  (* t3 primitive: one message through the bus (hop + station + hop). *)
  let bench_bus_route =
    let engine = Engine.create () in
    let bus = Sysbus.create engine in
    let iommu = Iommu.create () in
    let a = Sysbus.attach bus ~name:"a" ~iommu ~handler:(fun _ -> ()) in
    let b = Sysbus.attach bus ~name:"b" ~iommu ~handler:(fun _ -> ()) in
    Sysbus.send bus
      (Message.make ~src:a ~dst:Types.Bus ~corr:0 (Message.Device_alive { services = [] }));
    Sysbus.send bus
      (Message.make ~src:b ~dst:Types.Bus ~corr:0 (Message.Device_alive { services = [] }));
    Engine.run engine;
    Test.make ~name:"t3.bus-route"
      (Staged.stage (fun () ->
           Sysbus.send bus
             (Message.make ~src:a ~dst:(Types.Device b) ~corr:0 Message.Heartbeat);
           Engine.run engine))

  (* t4 primitive: WAL record encode (the recovery unit of work). *)
  let bench_wal =
    Test.make ~name:"t4.wal-encode"
      (Staged.stage (fun () ->
           ignore (Wal.encode (Wal.Put { key = "key-000042"; value = "value" }))))

  (* t5 primitives: translation with a hot TLB, and a full table walk. *)
  let bench_tlb_hit =
    let iommu = Iommu.create () in
    (match
       Iommu.map iommu ~pasid:1 ~va:0x4000_0000L ~pa:0x1000L ~bytes:4096L
         ~perm:Types.perm_rw
     with
    | Ok () -> ()
    | Error e -> failwith e);
    ignore (Iommu.translate iommu ~pasid:1 ~va:0x4000_0000L ~access:Iommu.Read);
    Test.make ~name:"t5.translate-tlb-hit"
      (Staged.stage (fun () ->
           ignore (Iommu.translate iommu ~pasid:1 ~va:0x4000_0000L ~access:Iommu.Read)))

  let bench_walk =
    let pt = Pagetable.create () in
    (match Pagetable.map pt ~va:0x4000_0000L ~pa:0x1000L ~perm:Types.perm_rw with
    | Ok () -> ()
    | Error e -> failwith e);
    Test.make ~name:"t5.pagetable-walk"
      (Staged.stage (fun () ->
           ignore (Pagetable.walk pt ~va:0x4000_0000L ~access:Types.perm_r)))

  (* t6 primitive: a full virtqueue cycle (add/pop/push/poll). *)
  let bench_vq =
    let mem = Physmem.create () in
    let iommu = Iommu.create () in
    (match
       Iommu.map iommu ~pasid:1 ~va:0x1_0000L ~pa:0x10_0000L
         ~bytes:(Int64.mul 16L 4096L) ~perm:Types.perm_rw
     with
    | Ok () -> ()
    | Error e -> failwith e);
    let dma = Dma.create ~iommu ~pasid:1 ~mem in
    let driver = Vq.Driver.create ~dma ~base:0x1_0000L ~size:8 in
    let device = Vq.Device.create ~dma ~base:0x1_0000L ~size:8 in
    let buf = { Vq.va = 0x1_8000L; len = 64; writable = false } in
    Test.make ~name:"t6.virtqueue-cycle"
      (Staged.stage (fun () ->
           match Vq.Driver.add driver [ buf ] with
           | Error e -> failwith e
           | Ok _ -> (
             match Vq.Device.pop device with
             | None -> failwith "empty"
             | Some { Vq.Device.head; _ } ->
               Vq.Device.push_used device ~head ~written:0;
               ignore (Vq.Driver.poll_used driver))))

  (* t8 primitive: fault delivery path. *)
  let bench_fault =
    let iommu = Iommu.create () in
    Iommu.attach_fault_handler iommu (fun _ -> ());
    Test.make ~name:"t8.fault-delivery"
      (Staged.stage (fun () ->
           ignore (Iommu.translate iommu ~pasid:9 ~va:0xDEAD_0000L ~access:Iommu.Read)))

  (* t13 primitive: CRC-framed codec roundtrip (the corruption-detection
     tax every fault-checked delivery pays). *)
  let bench_framed =
    Test.make ~name:"t13.framed-roundtrip"
      (Staged.stage (fun () ->
           ignore (Codec.decode_framed (Codec.encode_framed sample_msg))))

  (* tooling: lastcpu-lint scan of one representative source file (the
     per-file cost that bounds `dune build @lint` wall time). *)
  let bench_lint =
    let config =
      Lint_core.parse_rules
        "D001 scope=lib\nD002 scope=lib\nD003 scope=lib\nD004 scope=lib\n\
         D005 scope=lib"
    in
    let source =
      String.concat "\n"
        (List.init 40 (fun i ->
             Printf.sprintf
               "let f%d tbl = Hashtbl.replace tbl %d (List.map succ [%d])" i i i))
    in
    Test.make ~name:"lint.scan-file"
      (Staged.stage (fun () ->
           ignore (Lint_core.scan_string config ~path:"lib/bench.ml" source)))

  (* substrate: buddy allocator cycle. *)
  let bench_buddy =
    let b = Buddy.create ~base:0L ~pages:4096 in
    Test.make ~name:"mem.buddy-alloc-free"
      (Staged.stage (fun () ->
           match Buddy.alloc b ~pages:4 with
           | Some addr -> Buddy.free b ~addr ~pages:4
           | None -> failwith "exhausted"))

  let tests =
    Test.make_grouped ~name:"lastcpu"
      [
        bench_codec;
        bench_token;
        bench_store_get;
        bench_bus_route;
        bench_wal;
        bench_tlb_hit;
        bench_walk;
        bench_vq;
        bench_fault;
        bench_framed;
        bench_lint;
        bench_buddy;
      ]

  let run () =
    let cfg =
      Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
    in
    let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
    let ols =
      Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
    in
    let results = Analyze.all ols Instance.monotonic_clock raw in
    let rows = ref [] in
    Hashtbl.iter
      (fun name ols_result ->
        let est =
          match Analyze.OLS.estimates ols_result with
          | Some (e :: _) -> Printf.sprintf "%.1f" e
          | Some [] | None -> "-"
        in
        let r2 =
          match Analyze.OLS.r_square ols_result with
          | Some r -> Printf.sprintf "%.4f" r
          | None -> "-"
        in
        rows := (name, est, r2) :: !rows)
      results;
    print_newline ();
    print_endline "MICRO — bechamel micro-benchmarks (real ns/op on this host)";
    Printf.printf "  %-28s %14s %10s\n" "benchmark" "ns/op" "r^2";
    List.iter
      (fun (name, est, r2) -> Printf.printf "  %-28s %14s %10s\n" name est r2)
      (List.sort compare !rows)
end

(* --- core macro-benchmarks ------------------------------------------------------ *)

(* The perf-regression baseline for the simulation hot path. Unlike the
   bechamel micro suite (ns/op of leaf primitives), these measure the
   engine loop itself: how fast events move schedule->pop->run, how many
   minor words each event costs, and what tracing adds back. Results go
   to stdout and BENCH_core.json. *)
module Core_bench = struct
  module Types = Lastcpu_proto.Types
  module Message = Lastcpu_proto.Message
  module Codec = Lastcpu_proto.Codec
  module Token = Lastcpu_proto.Token
  module Engine = Lastcpu_sim.Engine
  module Sysbus = Lastcpu_bus.Sysbus
  module Iommu = Lastcpu_iommu.Iommu
  module System = Lastcpu_core.System

  (* Containment micro-costs pinned in the core baseline: capability
     verification (every privileged bus message pays it, and the epoch
     check rides the same MAC) and rejection of a malformed frame (the
     hardened decode path the protocol fuzzer hammers — it must be cheap
     enough that a rogue device cannot turn garbage frames into a
     CPU-side amplification attack on the bus). *)
  let token_verify_ns () =
    let key = 0xFEEDL in
    let token =
      Token.mint ~key ~issuer:1 ~subject:2 ~pasid:3 ~resource:"dram"
        ~base:0x1000L ~length:65536L ~perm:Types.perm_rw ~nonce:9L ()
    in
    let iters = 2_000_000 in
    let t0 = Sys.time () in
    for _ = 1 to iters do
      ignore (Token.verify ~key token)
    done;
    Float.max (Sys.time () -. t0) 1e-9 /. float_of_int iters *. 1e9

  let decode_malformed_ns () =
    let good =
      Codec.encode_framed
        (Message.make ~src:1 ~dst:Types.Bus ~corr:7 Message.Heartbeat)
    in
    let hostile =
      [|
        "\xde\xad\xbe\xef";
        String.sub good 0 (String.length good - 3);
        String.map (fun c -> Char.chr (Char.code c lxor 0x41)) good;
      |]
    in
    let iters = 1_000_000 in
    let t0 = Sys.time () in
    for i = 1 to iters do
      match Codec.decode_framed_result hostile.(i mod 3) with
      | Error _ -> ()
      | Ok _ -> failwith "malformed frame decoded"
    done;
    Float.max (Sys.time () -. t0) 1e-9 /. float_of_int iters *. 1e9

  (* Raw schedule->pop throughput: a fixed-width wave of self-rescheduling
     events drains through the engine with trace and sanitize off. The
     ping closure is allocated once, so minor words/event is the cost of
     the queue machinery alone. *)
  let engine_hot_loop ~events =
    let engine = Engine.create ~trace_capacity:0 ~queue_hint:64 () in
    let remaining = ref events in
    let rec ping () =
      if !remaining > 0 then begin
        decr remaining;
        Engine.schedule engine ~delay:1L ping
      end
    in
    for _ = 1 to 8 do
      Engine.schedule engine ~delay:1L ping
    done;
    let w0 = Gc.minor_words () in
    let t0 = Sys.time () in
    Engine.run engine;
    let dt = Float.max (Sys.time () -. t0) 1e-9 in
    let dw = Gc.minor_words () -. w0 in
    let n = Engine.events_executed engine in
    (float_of_int n /. dt, dw /. float_of_int n)

  (* One message through the bus (hop + station + hop), tracing on vs off.
     With trace and sanitize off the routing path formats no frame
     descriptions and appends no trace events, so the words/msg gap
     between the two rows is the formatting the lazy-label refactor
     removed from the hot path. *)
  let bus_route ~trace ~msgs =
    let engine =
      if trace then Engine.create ~queue_hint:16 ()
      else Engine.create ~trace_capacity:0 ~queue_hint:16 ()
    in
    let bus = Sysbus.create engine in
    let iommu = Iommu.create () in
    let a = Sysbus.attach bus ~name:"a" ~iommu ~handler:(fun _ -> ()) in
    let b = Sysbus.attach bus ~name:"b" ~iommu ~handler:(fun _ -> ()) in
    Sysbus.send bus
      (Message.make ~src:a ~dst:Types.Bus ~corr:0
         (Message.Device_alive { services = [] }));
    Sysbus.send bus
      (Message.make ~src:b ~dst:Types.Bus ~corr:0
         (Message.Device_alive { services = [] }));
    Engine.run engine;
    let w0 = Gc.minor_words () in
    let t0 = Sys.time () in
    for _ = 1 to msgs do
      Sysbus.send bus
        (Message.make ~src:a ~dst:(Types.Device b) ~corr:0 Message.Heartbeat);
      Engine.run engine
    done;
    let dt = Float.max (Sys.time () -. t0) 1e-9 in
    let dw = Gc.minor_words () -. w0 in
    (dw /. float_of_int msgs, dt /. float_of_int msgs *. 1e9)

  (* End-to-end: one full T1 run (boot, workload, both designs), reported
     as simulated events per second of harness CPU time. *)
  let t1_end_to_end () =
    let t0 = Sys.time () in
    let system = Experiments.soaked_system ~exp:"t1" ~seed:42L () in
    let dt = Float.max (Sys.time () -. t0) 1e-9 in
    let n = Engine.events_executed (System.engine system) in
    (n, float_of_int n /. dt)

  (* Checkpoint/restore round-trip over the booted KVS machine: how long a
     quiescent whole-machine snapshot takes to collect + atomically write,
     and how long the overlay onto a freshly rebuilt topology takes to
     apply (rebuild excluded — the restore path is the new code, the
     rebuild is the ordinary deterministic bring-up). Restore correctness
     is asserted, not assumed: a digest mismatch fails the bench. *)
  let snapshot_roundtrip () =
    let module Scenario = Lastcpu_core.Scenario_kvs in
    let module Checkpoint = Lastcpu_core.Checkpoint in
    let module Metrics = Lastcpu_sim.Metrics in
    let module Kv_app = Lastcpu_kv.Kv_app in
    let module Kv_proto = Lastcpu_kv.Kv_proto in
    let build () =
      match Scenario.run ~smoke_ops:0 () with
      | Error e -> failwith ("snapshot bench: scenario failed: " ^ e)
      | Ok outcome -> outcome
    in
    let outcome = build () in
    let system = outcome.Scenario.system in
    for i = 1 to 50 do
      Kv_app.local_op outcome.Scenario.app
        (Kv_proto.Put (Printf.sprintf "snap-%03d" i, Printf.sprintf "v-%d" i))
        (fun _ -> ())
    done;
    System.run_until_quiescent system;
    let digest = Metrics.digest (Engine.metrics (System.engine system)) in
    let path = Filename.temp_file "lastcpu-bench" ".snap" in
    let tag = "bench-snapshot" in
    let saves = 20 in
    let t0 = Sys.time () in
    for _ = 1 to saves do
      Checkpoint.save ~path ~tag (Checkpoint.Single (System.engine system))
    done;
    let save_us = Float.max (Sys.time () -. t0) 1e-9
                  /. float_of_int saves *. 1e6 in
    let bytes =
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      close_in ic;
      n
    in
    let restores = 5 in
    let elapsed = ref 0. in
    for _ = 1 to restores do
      let fresh = (build ()).Scenario.system in
      let t0 = Sys.time () in
      (match
         Checkpoint.restore ~path ~tag (Checkpoint.Single (System.engine fresh))
       with
      | Ok _ -> ()
      | Error e -> failwith ("snapshot bench: restore failed: " ^ e));
      elapsed := !elapsed +. (Sys.time () -. t0);
      let got = Metrics.digest (Engine.metrics (System.engine fresh)) in
      if got <> digest then begin
        Printf.eprintf
          "FATAL: snapshot restore digest 0x%016Lx <> saved 0x%016Lx — the \
           checkpoint round-trip is lossy\n"
          got digest;
        exit 1
      end
    done;
    let restore_us = Float.max !elapsed 1e-9 /. float_of_int restores *. 1e6 in
    Sys.remove path;
    (try Sys.remove (path ^ ".1") with Sys_error _ -> ());
    (save_us, restore_us, bytes)

  (* Temporal decoupling: the T15 four-cluster soak with its shard windows
     executed on [shards] lanes (Domains). Only the coupled phase is timed
     (t15_run_seconds) — per-cluster bring-up is sequential in every
     configuration. The digest is the determinism contract: it must be
     bit-identical whatever the lane count, and a mismatch fails the bench
     outright. The speedup row is a plain measurement: lanes can only pay
     off with cores to run on, so on a single-core host expect <= 1x (the
     rendezvous overhead), and on an n-core host up to ~min(n, 4)x. *)
  let t15_end_to_end ~shards =
    let r = Experiments.t15_soak ~shards ~clock:Sys.time ~seed:42L () in
    let dt = Float.max r.Experiments.t15_run_seconds 1e-9 in
    ( r.Experiments.t15_events,
      float_of_int r.Experiments.t15_events /. dt,
      r.Experiments.t15_digest )

  (* Data plane: raw DRAM byte throughput. Every payload byte a device
     moves (virtqueue descriptors, NAND pages, net frames) crosses
     Physmem, so this row bounds everything below it. *)
  let physmem_read_mb_s () =
    let module Physmem = Lastcpu_mem.Physmem in
    let mem = Physmem.create () in
    let chunk = 65536 in
    Physmem.write_bytes mem 0x10_0000L (String.make chunk 'x');
    let iters = 4_000 in
    let t0 = Sys.time () in
    for _ = 1 to iters do
      ignore (Physmem.read_bytes mem 0x10_0000L chunk)
    done;
    let dt = Float.max (Sys.time () -. t0) 1e-9 in
    float_of_int iters *. float_of_int chunk /. dt /. 1e6

  (* Zero-copy codec: encode a representative control message straight
     into a Physmem view ([encode_into]) vs through the heap Writer
     ([encode]). The delta is the string round-trip the Emit functor
     removed from the data plane. *)
  let codec_encode_into_ns () =
    let module Physmem = Lastcpu_mem.Physmem in
    let module Token = Lastcpu_proto.Token in
    let mem = Physmem.create () in
    let token =
      Token.mint ~key:0xFEEDL ~issuer:1 ~subject:2 ~pasid:3 ~resource:"dram"
        ~base:0x1000L ~length:65536L ~perm:Types.perm_rw ~nonce:9L ()
    in
    let msg =
      Message.make ~src:1 ~dst:Types.Bus ~corr:42
        (Message.Map_directive
           {
             device = 2;
             pasid = 3;
             va = 0x4000_0000L;
             pa = 0x1000_0000L;
             bytes = 65536L;
             perm = Types.perm_rw;
             auth = token;
           })
    in
    let size = Codec.encoded_size msg in
    let v = Physmem.view mem 0x20_0000L size in
    let iters = 1_000_000 in
    let t0 = Sys.time () in
    for _ = 1 to iters do
      ignore (Codec.encode_into msg v ~pos:0)
    done;
    Float.max (Sys.time () -. t0) 1e-9 /. float_of_int iters *. 1e9

  (* Batched virtqueue service: a driver posts [batch] two-segment chains,
     the device drains them in one event. Chains per host-second over the
     full ring protocol (descriptor walk, per-entry used publication). *)
  let vq_drain_chains_s () =
    let module Physmem = Lastcpu_mem.Physmem in
    let module Vq = Lastcpu_virtio.Virtqueue in
    let module Dma = Lastcpu_virtio.Dma in
    let mem = Physmem.create () in
    let iommu = Iommu.create () in
    (match
       Iommu.map iommu ~pasid:1 ~va:0x4000_0000L ~pa:0x10_0000L
         ~bytes:(Int64.of_int (256 * 4096))
         ~perm:Types.perm_rw
     with
    | Ok () -> ()
    | Error e -> failwith ("vq bench: map failed: " ^ e));
    let dma = Dma.create ~iommu ~pasid:1 ~mem in
    let base = 0x4000_0000L in
    let size = 256 in
    let driver = Vq.Driver.create ~dma ~base ~size in
    let device = Vq.Device.create ~dma ~base ~size in
    (* Buffer slots live past the rings, inside the same mapping. *)
    let slots_base = Int64.add base (Int64.of_int 0x8_0000) in
    let batch = 64 in
    let rounds = 2_000 in
    let t0 = Sys.time () in
    for _ = 1 to rounds do
      for i = 0 to batch - 1 do
        let va = Int64.add slots_base (Int64.of_int (i * 4096)) in
        match
          Vq.Driver.add driver
            [
              { Vq.va; len = 512; writable = false };
              { Vq.va = Int64.add va 2048L; len = 512; writable = true };
            ]
        with
        | Ok _ -> ()
        | Error e -> failwith ("vq bench: add failed: " ^ e)
      done;
      let drained = Vq.Device.drain device ~f:(fun _ -> 512) in
      if drained <> batch then failwith "vq bench: drain count mismatch";
      let rec recycle () =
        match Vq.Driver.poll_used driver with
        | Some _ -> recycle ()
        | None -> ()
      in
      recycle ()
    done;
    let dt = Float.max (Sys.time () -. t0) 1e-9 in
    float_of_int (batch * rounds) /. dt

  (* Data plane, end to end: a closed-loop remote client pushes Put/Get
     pairs through the NIC fast path into the SSD-backed store (WAL
     append -> virtqueue -> NAND) and reads them back. Reported as value
     payload bytes per host-second. The workload is run twice on fresh
     systems and the metrics digests must match — the zero-copy fast
     path is only allowed to change host time, never modeled behaviour. *)
  let kv_value_bytes = 4096
  let kv_pairs = 150

  let kv_put_get_once () =
    let module Scenario = Lastcpu_core.Scenario_kvs in
    let module Workload = Lastcpu_core.Workload in
    let module Kv_proto = Lastcpu_kv.Kv_proto in
    let module Smart_nic = Lastcpu_devices.Smart_nic in
    let module Metrics = Lastcpu_sim.Metrics in
    match Scenario.run ~smoke_ops:0 () with
    | Error e -> failwith ("kv bench: scenario failed: " ^ e)
    | Ok outcome ->
      let system = outcome.Scenario.system in
      let value = String.make kv_value_bytes 'z' in
      let ops = kv_pairs * 2 in
      let t0 = Sys.time () in
      let tally =
        Workload.run (System.engine system)
          ~submit:
            (Workload.netsim (System.net system)
               ~app_addr:(Smart_nic.endpoint_address (System.nic system 0)))
          ~arrival:(Workload.Closed { ops; think_ns = 0L })
          ~retry:Workload.No_retry
          ~make_op:(fun corr ->
            let key = Printf.sprintf "bench-%04d" (corr / 2) in
            if corr land 1 = 0 then Kv_proto.Put (key, value)
            else Kv_proto.Get key)
          ()
      in
      System.run_until_quiescent system;
      let dt = Float.max (Sys.time () -. t0) 1e-9 in
      let completed = (tally ()).Workload.answered in
      if completed <> ops then
        failwith (Printf.sprintf "kv bench: %d/%d ops completed" completed ops);
      let digest =
        Metrics.digest (Lastcpu_sim.Engine.metrics (System.engine system))
      in
      (float_of_int (ops * kv_value_bytes) /. dt, digest)

  let kv_put_get () =
    let rate1, digest1 = kv_put_get_once () in
    let rate2, digest2 = kv_put_get_once () in
    if digest1 <> digest2 then begin
      Printf.eprintf
        "FATAL: kv.put-get digest diverged across identical runs: \
         0x%016Lx vs 0x%016Lx — the KV data plane is nondeterministic\n"
        digest1 digest2;
      exit 1
    end;
    (Float.max rate1 rate2, digest1)

  let json_path = "BENCH_core.json"

  (* tooling: one full lastcpu-audit pass over every lib/ .cmt — the wall
     time `dune build @audit` adds on top of @check itself. Reported as
     (-1, 0) when no prior build left .cmt files to read (the row is then
     absent from the printed table but still present in the JSON, so the
     schema never shifts). *)
  let audit_scan_lib () =
    let dir = Filename.concat (Filename.concat "_build" "default") "lib" in
    let cmts = Audit_core.cmt_files_under dir in
    if cmts = [] then (-1.0, 0)
    else begin
      let config = Lint_core.parse_rules "D007,D008 scope=lib\n" in
      let t0 = Sys.time () in
      let inventories = List.filter_map Audit_core.inventory_of_cmt cmts in
      let findings = Audit_core.findings ~config inventories in
      ignore (List.length findings);
      ((Sys.time () -. t0) *. 1e3, List.length inventories)
    end

  let run () =
    let events = 2_000_000 and msgs = 100_000 in
    let sched_rate, sched_words = engine_hot_loop ~events in
    let off_words, off_ns = bus_route ~trace:false ~msgs in
    let on_words, on_ns = bus_route ~trace:true ~msgs in
    let t1_events, t1_rate = t1_end_to_end () in
    let verify_ns = token_verify_ns () in
    let malformed_ns = decode_malformed_ns () in
    let snap_save_us, snap_restore_us, snap_bytes = snapshot_roundtrip () in
    let t15_events, t15_rate1, t15_digest1 = t15_end_to_end ~shards:1 in
    let t15_events4, t15_rate4, t15_digest4 = t15_end_to_end ~shards:4 in
    if t15_digest1 <> t15_digest4 || t15_events <> t15_events4 then begin
      Printf.eprintf
        "FATAL: t15 digest diverged across lane counts: shards=1 \
         0x%016Lx/%d events, shards=4 0x%016Lx/%d events — the temporal \
         decoupling determinism contract is broken\n"
        t15_digest1 t15_events t15_digest4 t15_events4;
      exit 1
    end;
    let t15_speedup = t15_rate4 /. t15_rate1 in
    let physmem_mb_s = physmem_read_mb_s () in
    let encode_into_ns = codec_encode_into_ns () in
    let vq_chains_s = vq_drain_chains_s () in
    let kv_rate, kv_digest = kv_put_get () in
    let audit_ms, audit_units = audit_scan_lib () in
    let host_cores = Domain.recommended_domain_count () in
    print_newline ();
    print_endline "CORE — engine macro-benchmarks (real time on this host)";
    Printf.printf "  %-28s %12.2e events/s  %6.1f minor words/event\n"
      "schedule->pop drain" sched_rate sched_words;
    Printf.printf "  %-28s %12.1f ns/msg    %6.1f minor words/msg\n"
      "bus route (trace off)" off_ns off_words;
    Printf.printf "  %-28s %12.1f ns/msg    %6.1f minor words/msg\n"
      "bus route (trace on)" on_ns on_words;
    Printf.printf "  %-28s %12.2e events/s  (%d events)\n" "t1 end-to-end"
      t1_rate t1_events;
    Printf.printf "  %-28s %12.1f ns/op\n" "token.verify" verify_ns;
    Printf.printf "  %-28s %12.1f ns/op\n" "codec.decode-malformed"
      malformed_ns;
    Printf.printf "  %-28s %12.1f us/op     (%d snapshot bytes)\n"
      "snapshot.save" snap_save_us snap_bytes;
    Printf.printf "  %-28s %12.1f us/op     (overlay only)\n"
      "snapshot.restore" snap_restore_us;
    Printf.printf "  %-28s %12.2e events/s  (digest 0x%016Lx)\n"
      "t15 soak (--shards 1)" t15_rate1 t15_digest1;
    Printf.printf "  %-28s %12.2e events/s  (digest 0x%016Lx)\n"
      "t15 soak (--shards 4)" t15_rate4 t15_digest4;
    Printf.printf "  %-28s %12.2fx          (%d host cores)\n"
      "t15 lane speedup 4 vs 1" t15_speedup host_cores;
    Printf.printf "  %-28s %12.1f MB/s\n" "physmem.read-bytes" physmem_mb_s;
    Printf.printf "  %-28s %12.1f ns/op\n" "codec.encode-into" encode_into_ns;
    Printf.printf "  %-28s %12.2e chains/s\n" "vq.drain" vq_chains_s;
    Printf.printf "  %-28s %12.2e bytes/s   (digest 0x%016Lx)\n" "kv.put-get"
      kv_rate kv_digest;
    if audit_units > 0 then
      Printf.printf "  %-28s %12.1f ms/scan   (%d units)\n" "audit.scan-lib"
        audit_ms audit_units;
    if host_cores < 2 then
      print_endline
        "  note: single-core host — lanes cannot run concurrently, so the \
         speedup row\n\
        \  measures rendezvous overhead only; digests above still prove \
         lane invariance";
    let json =
      Printf.sprintf
        "{\"schedule_pop_events_per_sec\": %.0f, \
         \"schedule_pop_minor_words_per_event\": %.2f, \
         \"bus_route_trace_off_ns_per_msg\": %.1f, \
         \"bus_route_trace_off_minor_words_per_msg\": %.2f, \
         \"bus_route_trace_on_ns_per_msg\": %.1f, \
         \"bus_route_trace_on_minor_words_per_msg\": %.2f, \
         \"t1_events_executed\": %d, \"t1_events_per_sec\": %.0f, \
         \"token.verify_ns_per_op\": %.1f, \
         \"codec.decode-malformed_ns_per_op\": %.1f, \
         \"snapshot.save_us_per_op\": %.1f, \
         \"snapshot.restore_us_per_op\": %.1f, \
         \"snapshot.bytes\": %d, \
         \"t15_events_executed\": %d, \
         \"t15_shards1_events_per_sec\": %.0f, \
         \"t15_shards4_events_per_sec\": %.0f, \
         \"t15_speedup\": %.2f, \"t15_digest\": \"0x%016Lx\", \
         \"t15_host_cores\": %d, \
         \"physmem.read-bytes_mb_per_sec\": %.1f, \
         \"codec.encode-into_ns_per_op\": %.1f, \
         \"vq.drain_chains_per_sec\": %.0f, \
         \"kv.put-get_bytes_per_sec\": %.0f, \
         \"kv.put-get_digest\": \"0x%016Lx\", \
         \"audit.scan-lib_ms\": %.1f, \"audit.units\": %d}"
        sched_rate sched_words off_ns off_words on_ns on_words t1_events
        t1_rate verify_ns malformed_ns snap_save_us snap_restore_us snap_bytes
        t15_events t15_rate1
        t15_rate4 t15_speedup t15_digest1 host_cores physmem_mb_s
        encode_into_ns vq_chains_s kv_rate kv_digest audit_ms audit_units
    in
    let oc = open_out json_path in
    output_string oc json;
    output_char oc '\n';
    close_out oc;
    Printf.printf "  (written to %s)\n%!" json_path
end

(* --- metrics snapshot ---------------------------------------------------------- *)

(* One machine-readable telemetry dump: boot the KVS scenario, run a short
   workload, and print the engine registry as JSON (one line, parseable). *)
let metrics_snapshot () =
  let module System = Lastcpu_core.System in
  let module Scenario = Lastcpu_core.Scenario_kvs in
  let module Engine = Lastcpu_sim.Engine in
  let module Metrics = Lastcpu_sim.Metrics in
  let module Kv_app = Lastcpu_kv.Kv_app in
  let module Kv_proto = Lastcpu_kv.Kv_proto in
  match Scenario.run () with
  | Error e -> Printf.eprintf "metrics: scenario failed: %s\n" e
  | Ok outcome ->
    let system = outcome.Scenario.system in
    let app = outcome.Scenario.app in
    for i = 1 to 25 do
      let key = Printf.sprintf "bench-%04d" i in
      Kv_app.local_op app (Kv_proto.Put (key, "value-" ^ key)) (fun _ -> ());
      Kv_app.local_op app (Kv_proto.Get key) (fun _ -> ())
    done;
    System.run_until_idle system;
    print_endline (Metrics.to_json (Engine.metrics (System.engine system)))

(* --- driver ------------------------------------------------------------------- *)

(* A typo'd id must fail the invocation (CI smoke steps pass ids by hand;
   a misspelling silently running zero experiments would look green). *)
let failures = ref 0

(* Rendered off the main domain when --jobs > 1: each experiment owns its
   engine, so tables are independent tasks. Rendering to a string in the
   worker and printing in submission order keeps the output layout
   identical to a sequential run. *)
let render_experiment id () =
  match Experiments.by_id id with
  | None -> Error id
  | Some f ->
    let t0 = Sys.time () in
    let table = Format.asprintf "%a" Experiments.print_table (f ()) in
    Ok (table, Sys.time () -. t0)

let print_experiment = function
  | Error id ->
    Printf.eprintf "unknown experiment %S\n" id;
    incr failures
  | Ok (table, dt) ->
    print_string table;
    Printf.printf "  (harness cpu time: %.1fs)\n%!" dt

let () =
  let rec split_jobs jobs acc = function
    | [] -> (jobs, List.rev acc)
    | ("--jobs" | "-j") :: n :: rest -> (
      match int_of_string_opt n with
      | Some j when j >= 1 -> split_jobs j acc rest
      | Some _ | None ->
        Printf.eprintf "bad --jobs value %S\n" n;
        exit 2)
    | [ ("--jobs" | "-j") ] ->
      prerr_endline "--jobs needs a value";
      exit 2
    | a :: rest -> split_jobs jobs (a :: acc) rest
  in
  let raw =
    match Array.to_list Sys.argv with [] | [ _ ] -> [] | _ :: rest -> rest
  in
  let jobs, args = split_jobs 1 [] raw in
  let args = if args = [] && raw = [] then Experiments.ids @ [ "micro" ] else args in
  let args =
    List.concat_map (fun a -> if a = "all" then Experiments.ids else [ a ]) args
  in
  let special = [ "micro"; "metrics"; "core" ] in
  let exp_ids = List.filter (fun a -> not (List.mem a special)) args in
  let tables =
    ref (Parallel.run_jobs ~jobs (List.map render_experiment exp_ids))
  in
  let next_table () =
    match !tables with
    | [] -> assert false
    | t :: rest ->
      tables := rest;
      t
  in
  print_endline "lastcpu experiment harness — see EXPERIMENTS.md for the index";
  List.iter
    (fun id ->
      if id = "micro" then Micro.run ()
      else if id = "metrics" then metrics_snapshot ()
      else if id = "core" then Core_bench.run ()
      else print_experiment (next_table ()))
    args;
  if !failures > 0 then exit 1
