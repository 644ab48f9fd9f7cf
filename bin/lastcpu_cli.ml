(* Command-line interface for the lastcpu emulator.

   Subcommands:
     lastcpu topology             print the booted system (Figure 1)
     lastcpu figure2 [--trace]    run the KVS bring-up and show the sequence
     lastcpu experiment [<id>..]  run experiment tables (every one without ids)
     lastcpu kv <n>               run n KV smoke operations end to end
     lastcpu metrics [--json]     run a booted KVS workload, dump telemetry
     lastcpu chaos [--json]       run the T13 fault soak, dump telemetry
     lastcpu overload [--json]    run the guarded T14 overload soak, dump telemetry *)

open Cmdliner

module System = Lastcpu_core.System
module Scenario = Lastcpu_core.Scenario_kvs
module Experiments = Lastcpu_core.Experiments
module Protofuzz = Lastcpu_core.Protofuzz
module Engine = Lastcpu_sim.Engine
module Metrics = Lastcpu_sim.Metrics
module Trace = Lastcpu_sim.Trace
module Parallel = Lastcpu_sim.Parallel
module Kv_app = Lastcpu_kv.Kv_app
module Kv_proto = Lastcpu_kv.Kv_proto
module Snapshot = Lastcpu_sim.Snapshot

let seed_arg =
  let doc = "Deterministic seed for the virtual machine room." in
  Arg.(value & opt int64 42L & info [ "seed" ] ~docv:"SEED" ~doc)

let spec_of_seed seed = { System.default_spec with System.seed }

(* --- topology ------------------------------------------------------------- *)

let topology seed =
  let spec =
    { (spec_of_seed seed) with System.with_auth = true; with_console = true }
  in
  let system = System.build ~spec () in
  match System.boot system with
  | Error e ->
    Printf.eprintf "boot failed: %s\n" e;
    1
  | Ok () ->
    print_string (System.topology system);
    0

let topology_cmd =
  let doc = "Boot a CPU-less system and print its topology (paper Figure 1)." in
  Cmd.v (Cmd.info "topology" ~doc) Term.(const topology $ seed_arg)

(* --- figure2 --------------------------------------------------------------- *)

let figure2 seed show_trace json_path =
  let spec = { (spec_of_seed seed) with System.trace = true } in
  match Scenario.run ~spec () with
  | Error e ->
    Printf.eprintf "scenario failed: %s\n" e;
    1
  | Ok outcome ->
    print_endline "KV-store initialization sequence (paper Figure 2):";
    Format.printf "%a" Scenario.pp_steps (Scenario.figure2_steps outcome);
    let trace = Engine.trace (System.engine outcome.Scenario.system) in
    if show_trace then begin
      print_endline "\nfull bus trace:";
      Format.printf "%a" Trace.pp trace
    end;
    (match json_path with
    | None -> ()
    | Some path ->
      let oc = open_out path in
      output_string oc (Trace.to_json_lines trace);
      close_out oc;
      Printf.printf "trace written to %s (%d events, jsonl)\n" path
        (Trace.length trace));
    0

let figure2_cmd =
  let doc = "Run the paper's §3 KVS bring-up and print the Figure-2 steps." in
  let trace_arg =
    Arg.(value & flag & info [ "trace" ] ~doc:"Also dump the full bus trace.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Write the full trace as JSON lines.")
  in
  Cmd.v (Cmd.info "figure2" ~doc)
    Term.(const figure2 $ seed_arg $ trace_arg $ json_arg)

(* --- experiment ------------------------------------------------------------- *)

(* One leg of the t16 or t17 soak ([None] for any other id): the segments
   it ran, the generation it resumed from, and its final line. The final
   line is what the resume-smoke CI job diffs between an uninterrupted
   checkpointed run and a killed-then-resumed one: everything observable,
   nothing about provenance (which leg ran how many segments goes to
   stderr). *)
let soak_leg ~exp ~shards ~seed ~path ?stop_after ?resume () =
  let torn_final = stop_after <> None in
  match exp with
  | "t16" ->
    let r =
      Experiments.t16_soak ~lanes:shards ~seed ~snapshot_path:path ?stop_after
        ~torn_final ?resume ()
    in
    Some
      ( r.Experiments.t16_segments_run,
        r.Experiments.t16_restored,
        Printf.sprintf "t16 final: digest=0x%016Lx events=%d elapsed_ns=%Ld"
          r.Experiments.t16_digest r.Experiments.t16_events
          r.Experiments.t16_elapsed )
  | "t17" ->
    let r =
      Experiments.t17_soak ~seed ~snapshot_path:path ?stop_after ~torn_final
        ?resume ()
    in
    Some
      ( r.Experiments.t17_segments_run,
        r.Experiments.t17_restored,
        Printf.sprintf
          "t17 final: digest=0x%016Lx events=%d elapsed_ns=%Ld quarantines=%d \
           stale=%d failovers=%d trust=%s"
          r.Experiments.t17_digest r.Experiments.t17_events
          r.Experiments.t17_elapsed r.Experiments.t17_quarantines
          r.Experiments.t17_stale r.Experiments.t17_failovers
          r.Experiments.t17_rogue_trust )
  | _ -> None

(* Each experiment owns its engine, so distinct ids are independent tasks:
   render every table to a string (in the worker domain), then print the
   strings in submission order. A parallel run's bytes are identical to a
   sequential run's. No ids means every id, in registry order. *)
let experiment list jobs shards seed snapshot_path kill_at ids =
  if list then begin
    List.iter print_endline Experiments.ids;
    0
  end
  else
    match snapshot_path with
    | Some path -> (
      (* Checkpointed soak mode: run the single t16 (default) or t17 leg
         this process is asked for, writing whole-machine snapshots at
         segment boundaries. [--chaos-kill-at B] emulates a kill
         mid-checkpoint: the boundary-B snapshot is written deliberately
         torn and the process dies with the canonical SIGKILL exit
         status. *)
      let exp = match ids with [] -> "t16" | [ id ] -> id | _ -> "" in
      match soak_leg ~exp ~shards ~seed ~path ?stop_after:kill_at () with
      | None ->
        Printf.eprintf
          "--snapshot-path drives the t16 and t17 soaks only (got: %s)\n"
          (String.concat " " ids);
        1
      | Some (segments, _, final) -> (
        match kill_at with
        | Some _ ->
          Printf.eprintf
            "killed mid-checkpoint after %d segment(s); torn snapshot at %s\n"
            segments path;
          exit 137
        | None ->
          print_endline final;
          0))
    | None ->
      let render id () =
        match Experiments.by_id ~shards id with
        | None -> Error id
        | Some f -> Ok (Format.asprintf "%a" Experiments.print_table (f ()))
      in
      let ids = if ids = [] then Experiments.ids else ids in
      let rc = ref 0 in
      List.iter
        (function
          | Ok table -> print_string table
          | Error id ->
            Printf.eprintf "unknown experiment %S (see 'experiment --list')\n"
              id;
            rc := 1)
        (Parallel.run_jobs ~jobs (List.map render ids));
      !rc

let jobs_arg =
  let doc =
    "Run experiments on $(docv) domains in parallel. Each run is an \
     independent deterministic simulation; output order and bytes match a \
     sequential run."
  in
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let shards_arg =
  let doc =
    "Execute t15's shard windows on $(docv) domains (execution lanes). The \
     cluster topology is fixed, so output bytes are identical for any \
     value — that invariance is the temporal-decoupling determinism \
     contract CI checks. Other experiments ignore this."
  in
  Arg.(value & opt int 1 & info [ "shards" ] ~docv:"N" ~doc)

let snapshot_path_arg =
  let doc =
    "Run the t16 (or t17) soak in checkpointed mode, writing a whole-machine \
     snapshot to $(docv) at every checkpointable segment boundary (the displaced \
     previous file is kept as a fallback generation)."
  in
  Arg.(
    value & opt (some string) None & info [ "snapshot-path" ] ~docv:"FILE" ~doc)

let chaos_kill_arg =
  let doc =
    "Chaos hook: die 'mid-checkpoint' at segment boundary $(docv) — the \
     snapshot written there is deliberately torn (truncated, as if the \
     process was killed between write and rename) and the process exits \
     with status 137. Resume with 'lastcpu resume'."
  in
  Arg.(value & opt (some int) None & info [ "chaos-kill-at" ] ~docv:"B" ~doc)

let experiment_cmd =
  let doc = "Run experiment tables (see EXPERIMENTS.md for the index)." in
  let ids =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"ID" ~doc:"Experiment ids (default: every experiment).")
  in
  let list_arg =
    Arg.(value & flag & info [ "list" ] ~doc:"List known experiment ids.")
  in
  Cmd.v (Cmd.info "experiment" ~doc)
    Term.(
      const experiment $ list_arg $ jobs_arg $ shards_arg $ seed_arg
      $ snapshot_path_arg $ chaos_kill_arg $ ids)

(* --- resume ------------------------------------------------------------------------ *)

let generation_name = function
  | Snapshot.Primary -> "primary"
  | Snapshot.Previous -> "previous"

let resume seed shards exp path =
  match soak_leg ~exp ~shards ~seed ~path ~resume:true () with
  | None ->
    Printf.eprintf "resume drives the t16 and t17 soaks only (got: %s)\n" exp;
    1
  | Some (segments, restored, final) ->
    Option.iter
      (fun g ->
        Printf.eprintf "resumed from %s generation; ran %d remaining segment(s)\n"
          (generation_name g) segments)
      restored;
    print_endline final;
    0

let resume_cmd =
  let doc =
    "Resume a killed t16 soak from its snapshot file: rebuild the \
     identical topology (same seed), overlay the on-disk state — falling \
     back to the previous generation when the primary is torn or corrupt \
     — and run the remaining segments. The final line printed is \
     byte-identical to an uninterrupted run's."
  in
  let path =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Snapshot file written by the killed run.")
  in
  let exp =
    Arg.(
      value
      & opt string "t16"
      & info [ "exp" ] ~docv:"ID" ~doc:"Soak to resume: t16 or t17.")
  in
  Cmd.v (Cmd.info "resume" ~doc)
    Term.(const resume $ seed_arg $ shards_arg $ exp $ path)

(* --- kv ----------------------------------------------------------------------- *)

let kv seed n =
  match Scenario.run ~spec:(spec_of_seed seed) ~smoke_ops:0 () with
  | Error e ->
    Printf.eprintf "scenario failed: %s\n" e;
    1
  | Ok outcome ->
    let system = outcome.Scenario.system in
    let app = outcome.Scenario.app in
    let failures = ref 0 in
    for i = 1 to n do
      let key = Printf.sprintf "cli-%04d" i in
      Kv_app.local_op app (Kv_proto.Put (key, "value-" ^ key)) (fun r ->
          if r <> Kv_proto.Done then incr failures);
      System.run_until_quiescent system;
      Kv_app.local_op app (Kv_proto.Get key) (fun r ->
          match r with
          | Kv_proto.Value (Some _) -> ()
          | _ -> incr failures);
      System.run_until_quiescent system
    done;
    Printf.printf "%d put+get pairs, %d failures, %Ld virtual ns\n" n !failures
      (Engine.now (System.engine system));
    if !failures = 0 then 0 else 1

let kv_cmd =
  let doc = "Run N put+get pairs through the full CPU-less stack." in
  let n = Arg.(value & pos 0 int 10 & info [] ~docv:"N" ~doc:"Operation pairs.") in
  Cmd.v (Cmd.info "kv" ~doc) Term.(const kv $ seed_arg $ n)

(* --- metrics, chaos, overload: telemetry dumps -------------------------------- *)

let print_metrics system json =
  let m = Engine.metrics (System.engine system) in
  print_string (if json then Metrics.to_json m else Metrics.to_prometheus m);
  0

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit a JSON snapshot instead.")

let metrics seed n json =
  match Scenario.run ~spec:(spec_of_seed seed) ~smoke_ops:0 () with
  | Error e ->
    Printf.eprintf "scenario failed: %s\n" e;
    1
  | Ok outcome ->
    let system = outcome.Scenario.system in
    let app = outcome.Scenario.app in
    (* Drive some traffic so the registry has something to show. *)
    for i = 1 to n do
      let key = Printf.sprintf "metrics-%04d" i in
      Kv_app.local_op app (Kv_proto.Put (key, "value-" ^ key)) (fun _ -> ());
      System.run_until_quiescent system;
      Kv_app.local_op app (Kv_proto.Get key) (fun _ -> ());
      System.run_until_quiescent system
    done;
    print_metrics system json

let metrics_cmd =
  let doc =
    "Boot the KVS scenario, run a small workload and print the telemetry \
     registry (Prometheus text exposition by default)."
  in
  let n =
    Arg.(value & opt int 25 & info [ "ops" ] ~docv:"N" ~doc:"KV put+get pairs to drive.")
  in
  Cmd.v (Cmd.info "metrics" ~doc) Term.(const metrics $ seed_arg $ n $ json_arg)

(* The CPU-less arm of a digest-pinned soak, then its telemetry registry. *)
let soak_cmd name ~exp ~doc =
  let run seed json =
    print_metrics (Experiments.soaked_system ~exp ~seed ()) json
  in
  Cmd.v (Cmd.info name ~doc) Term.(const run $ seed_arg $ json_arg)

let chaos_cmd =
  soak_cmd "chaos" ~exp:"t13"
    ~doc:
      "Run the T13 chaos soak (seeded fault injection: message loss, \
       corruption, NAND faults, a storage-device crash) on the CPU-less \
       design and print the telemetry registry. Identical seeds produce \
       byte-identical output; CI diffs two runs."

let overload_cmd =
  soak_cmd "overload" ~exp:"t14"
    ~doc:
      "Run the T14 overload probe (open-loop warm\xe2\x86\x92pulse\xe2\x86\x92recover \
       load with the overload guards armed: bounded queues, KV admission \
       control, circuit breaker, deadline-carrying control ops) on the \
       CPU-less design and print the telemetry registry. Identical seeds \
       produce byte-identical output; CI diffs two runs."

(* --- fuzz ------------------------------------------------------------------------- *)

let fuzz seed iters =
  let r = Protofuzz.run ~seed ~iters () in
  print_endline (Protofuzz.summary r);
  List.iter
    (fun d -> Printf.eprintf "violation: %s\n" d)
    r.Protofuzz.violation_details;
  if r.Protofuzz.engine_crashes = 0 && r.Protofuzz.containment_violations = 0
  then 0
  else 1

let fuzz_cmd =
  let doc =
    "Run the deterministic structure-aware protocol fuzzer: a rogue smart \
     NIC injects seed-salted mutants of real control-plane frames as raw \
     bytes on the bus while the campaign asserts the containment \
     invariants — no engine crash, no path from the rogue's IOMMU into \
     another tenant's frames, victim memory intact. Prints one summary \
     line (byte-identical for equal seeds; CI diffs it against a \
     committed golden) and exits non-zero on any crash or containment \
     violation."
  in
  let iters_arg =
    Arg.(
      value & opt int 400
      & info [ "iters" ] ~docv:"N" ~doc:"Mutant frames to inject.")
  in
  Cmd.v (Cmd.info "fuzz" ~doc) Term.(const fuzz $ seed_arg $ iters_arg)

(* --- sanitize --------------------------------------------------------------------- *)

let sanitize seed exps =
  let exps =
    match exps with [] -> Experiments.sanitize_experiments | l -> l
  in
  let races = ref 0 in
  List.iter
    (fun exp ->
      let reports = Experiments.sanitize ~seed ~exp () in
      List.iter
        (fun (r : Experiments.sanitize_report) ->
          match r.Experiments.san_divergence with
          | None ->
            Printf.printf
              "%-4s vs %-6s : OK (%d multi-event ticks, no ordering race)\n"
              r.Experiments.san_exp r.Experiments.san_perturbation
              r.Experiments.san_multi_event_ticks
          | Some d ->
            incr races;
            Printf.printf "%-4s vs %-6s : RACE\n%s\n" r.Experiments.san_exp
              r.Experiments.san_perturbation
              (Format.asprintf "%a" Lastcpu_sim.Sanitizer.pp_divergence d))
        reports)
    exps;
  if !races = 0 then 0 else 1

let sanitize_cmd =
  let doc =
    "Same-tick ordering sanitizer: run an experiment under the contractual \
     FIFO same-tick event order and under perturbed tie-breaks (LIFO and \
     seed-salted), comparing observable-state digests after every \
     multi-event tick. A divergence means some event pair's same-timestamp \
     order leaks into observable state — an ordering race the determinism \
     contract forbids. For t15 (multi-shard, where tie-break drift \
     legitimately dissolves coincidental collisions of independent \
     streams) the check is instead that the final digest is tie-invariant \
     and that each perturbed tie's journal is bit-identical between 1 and \
     4 execution lanes. Exits non-zero if any race is found."
  in
  let exps_arg =
    Arg.(
      value
      & opt_all string []
      & info [ "exp" ] ~docv:"ID"
          ~doc:
            "Experiment to sanitize (t1, t13, t14 or t15); repeatable. \
             Default: all four.")
  in
  Cmd.v (Cmd.info "sanitize" ~doc) Term.(const sanitize $ seed_arg $ exps_arg)

let () =
  let doc = "emulator of the CPU-less system from 'The Last CPU' (HotOS '21)" in
  let info = Cmd.info "lastcpu" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ topology_cmd; figure2_cmd; experiment_cmd; resume_cmd; kv_cmd;
            metrics_cmd; chaos_cmd; overload_cmd; fuzz_cmd; sanitize_cmd ]))
