(* Benchmark driver.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Repeats episodes of the workload (fresh machine, set-up, measured
   phase, correctness gate) until S seconds have passed, at least
   [min_episodes] times; prints every metric with its unit and the seed,
   and as its last line one JSON object. With --trace 1 it alternates
   untraced and traced episodes, prints the per-layer metrics and writes
   the first traced episode's spans to .perfbench-out/spans-NAME.jsonl
   (scratch snapshots go there too). Exits 1 when any check fails. *)

open Perfbench

let min_episodes = 3

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " Workloads.names);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measure for this long");
      ("--trace", Arg.Set_int trace, "0|1 traced run (per-layer metrics)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let traced = !trace = 1 in
  let episode =
    match Workloads.episode_fn !workload ~seed:!seed with
    | Some f -> f
    | None ->
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
  in
  let out = ".perfbench-out" in
  if not (Sys.file_exists out) then Sys.mkdir out 0o755;
  let start = Spans.now_ns () in
  let elapsed () = Workloads.secs start (Spans.now_ns ()) in
  let untraced = ref [] and traced_eps = ref [] and peak_heap = ref 0. in
  (* The calibration probe is sampled after each untraced episode (not
     before the first, so that its allocations stay out of the recorded
     peak heap); the run's median sample rescales its host figures. *)
  let probes = ref [] in
  let run_one ~traced =
    let e = episode ~traced ~extras:(traced && !traced_eps = []) ~dir:out in
    if !peak_heap = 0. then
      peak_heap :=
        float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8));
    if traced then traced_eps := e :: !traced_eps
    else begin
      untraced := e :: !untraced;
      probes := List.init Calib.samples_per_episode (fun _ -> Calib.sample ()) @ !probes
    end
  in
  let enough () =
    elapsed () >= !seconds
    && List.length !untraced >= (if traced then 1 else min_episodes)
    && ((not traced) || !traced_eps <> [])
  in
  while not (enough ()) do
    run_one ~traced:false;
    if traced then run_one ~traced:true
  done;
  let untraced = List.rev !untraced and traced_eps = List.rev !traced_eps in
  let all = untraced @ traced_eps in
  let first = List.hd untraced in
  let gates_ok = List.for_all (fun (e : Workloads.episode) -> Gate.ok e.gate) all in
  let digests_ok =
    List.for_all (fun (e : Workloads.episode) -> e.digest = first.digest) all
  in
  let attempted = List.fold_left (fun a (e : Workloads.episode) -> a + e.attempted) 0 all in
  let failed = List.fold_left (fun a (e : Workloads.episode) -> a + e.gate.failed) 0 all in
  let failed = if digests_ok then failed else failed + 1 in
  let correct = gates_ok && digests_ok in
  List.iter
    (fun (e : Workloads.episode) ->
      match e.gate.first with Some msg -> Printf.printf "FAILED: %s\n" msg | None -> ())
    all;
  if not digests_ok then print_endline "FAILED: metrics digest differs between episodes";
  Printf.printf "workload %s  seed %d  episodes %d untraced + %d traced  digest 0x%016Lx\n"
    !workload !seed (List.length untraced) (List.length traced_eps) first.digest;
  let metrics =
    if traced then begin
      let t = List.hd traced_eps in
      (match t.tracer with
      | Some tr ->
        let path =
          Filename.concat out (Printf.sprintf "spans-%s.jsonl" !workload)
        in
        Spans.write tr.spans ~path ~workload:!workload ~seed:!seed;
        Printf.printf "spans: %d steps, %d ops -> %s\n" (Spans.step_count tr.spans)
          (Spans.op_count tr.spans) path
      | None -> ());
      Array.iter
        (fun l ->
          Printf.printf "  %-28s %18.6f s\n"
            (Layers.name l ^ ".self_s")
            (Report.self_seconds t l))
        Layers.layers;
      Report.per_layer ~untraced ~traced:traced_eps
    end
    else begin
      let probe = Workloads.median !probes /. Calib.reference_s in
      let slowdown = probe ** Workloads.cpu_exponent !workload in
      let ops, events, setup = Report.host_figures untraced in
      Printf.printf
        "  unscaled wall clock: host_ops_per_s %.1f  host_events_per_s %.1f  setup_s %.6f  \
         (probes took %.3fx their reference time; slowdown %.3f)\n"
        ops events setup probe slowdown;
      Report.end_to_end ~peak_heap_bytes:!peak_heap ~slowdown untraced
    end
  in
  List.iter
    (fun (x : Report.metric) -> Printf.printf "  %-28s %18.6f %s\n" x.name x.value x.unit_)
    metrics;
  Printf.printf "  %-28s %18.6f %s\n" "ops_failed_frac"
    (Report.ratio (float_of_int failed) (float_of_int attempted))
    "ratio";
  print_endline (Report.json ~correct ~attempted ~failed metrics);
  if not correct then exit 1
