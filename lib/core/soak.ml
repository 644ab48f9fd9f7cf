module Engine = Lastcpu_sim.Engine
module Temporal = Lastcpu_sim.Temporal
module Parallel = Lastcpu_sim.Parallel
module Snapshot = Lastcpu_sim.Snapshot

type leg = { segments_run : int; restored : Snapshot.generation option }

let run ~name ~seed ?(lanes = 1) ~segments ?(last_checkpoint = segments)
    ?snapshot_path ?(resume = false) ?stop_after ?(torn_final = false) ~install
    ~check target =
  let first_engine =
    match target with
    | Checkpoint.Single e -> e
    | Checkpoint.Sharded tp -> Temporal.engine tp 0
  in
  let progress = ref 0 in
  Engine.register_snapshot first_engine ~name:(name ^ "-progress")
    ~save:(fun () ->
      let w = Snapshot.W.create () in
      Snapshot.W.varint w !progress;
      Snapshot.W.contents w)
    ~restore:(fun data ->
      progress := Snapshot.R.varint (Snapshot.R.of_string data));
  let tag = Printf.sprintf "%s:%Ld" name seed in
  let restored =
    if not resume then None
    else
      match snapshot_path with
      | None -> invalid_arg (name ^ ": resume requires a snapshot path")
      | Some path -> (
        match Checkpoint.restore ~path ~tag target with
        | Ok gen -> Some gen
        | Error e -> invalid_arg (name ^ ": resume: " ^ e))
  in
  let segments_run = ref 0 in
  let loop drain =
    let stopping = ref false in
    while !progress < segments && not !stopping do
      let seg = !progress in
      install seg;
      drain ();
      check seg;
      progress := seg + 1;
      incr segments_run;
      let boundary = seg + 1 in
      (match snapshot_path with
      | Some path when boundary <= last_checkpoint ->
        let torn_keep_bytes =
          if torn_final && stop_after = Some boundary then Some 96 else None
        in
        Checkpoint.save ?torn_keep_bytes ~path ~tag target
      | _ -> ());
      if stop_after = Some boundary then stopping := true
    done
  in
  (match target with
  | Checkpoint.Single e -> loop (fun () -> Engine.run ~max_events:10_000_000 e)
  | Checkpoint.Sharded tp ->
    let pool = Parallel.Pool.create ~lanes in
    Fun.protect
      ~finally:(fun () -> Parallel.Pool.shutdown pool)
      (fun () -> loop (fun () -> Temporal.run_until_quiescent ~pool tp)));
  { segments_run = !segments_run; restored }

let kill_resume ~name ~kill_boundary
    (soak :
      ?snapshot_path:string ->
      ?resume:bool ->
      ?stop_after:int ->
      ?torn_final:bool ->
      unit ->
      'r) =
  let path = Filename.temp_file ("lastcpu-" ^ name) ".snap" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; Snapshot.previous_generation path ])
    (fun () ->
      let full = soak () in
      let killed =
        soak ~snapshot_path:path ~stop_after:kill_boundary ~torn_final:true ()
      in
      let resumed = soak ~snapshot_path:path ~resume:true () in
      (full, killed, resumed))

let killed_label boundary =
  Printf.sprintf "killed at boundary %d (torn)" boundary

let resumed_label = function
  | Some Snapshot.Previous -> "resumed (previous generation)"
  | Some Snapshot.Primary -> "resumed (primary)"
  | None -> "resumed (no snapshot!)"

let verdict_row ~columns ~identical restored =
  ("verdict" :: List.init (columns - 2) (fun _ -> ""))
  @ [
      (if identical && restored = Some Snapshot.Previous then "bit-identical"
       else "DIVERGED");
    ]
