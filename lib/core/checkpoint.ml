module Engine = Lastcpu_sim.Engine
module Temporal = Lastcpu_sim.Temporal
module Snapshot = Lastcpu_sim.Snapshot

type target =
  | Single of Engine.t
  | Sharded of Temporal.t

let engines = function
  | Single e -> [| e |]
  | Sharded tp -> Array.init (Temporal.shard_count tp) (Temporal.engine tp)

let engine_section i = Printf.sprintf "%d/engine" i
let hook_section i name = Printf.sprintf "%d/hook/%s" i name

(* Every section after [meta] in file order, with its saver and restorer:
   [temporal] (multi-shard only), then per shard the engine before its
   hooks, so a hook re-arms a static (e.g. the bus liveness sweep) only
   after the engine has reconciled the rebuilt ones. *)
let parts target =
  let coordinator =
    match target with
    | Single _ -> []
    | Sharded tp ->
      [ ("temporal", Temporal.save_state tp, Temporal.restore_state tp) ]
  in
  let shard i e =
    (engine_section i, Engine.save_state e, Engine.restore_state e)
    :: List.map
         (fun (name, save, restore) -> (hook_section i name, save, restore))
         (Engine.snapshot_hooks e)
  in
  coordinator @ List.concat (Array.to_list (Array.mapi shard (engines target)))

(* Savers run while the temp file is open: check before opening it. *)
let save ?torn_keep_bytes ~path ~tag target =
  (match target with
  | Single e when Engine.quiescent e -> ()
  | Sharded tp when Temporal.quiescent tp -> ()
  | _ -> invalid_arg "Checkpoint.save: target is not quiescent");
  let meta w =
    Snapshot.W.string w tag;
    Snapshot.W.varint w (Array.length (engines target))
  in
  let sections =
    ("meta", meta)
    :: List.map (fun (name, save, _restore) -> (name, save)) (parts target)
  in
  match torn_keep_bytes with
  | None -> Snapshot.write ~path sections
  | Some keep_bytes -> Snapshot.write_torn ~path ~keep_bytes sections

exception Mismatch of string

let restore ~path ~tag target =
  match Snapshot.load ~path with
  | Error e -> Error e
  | Ok (generation, sections) -> (
    let find name =
      match Snapshot.find sections name with
      | Some body -> body
      | None ->
        raise
          (Mismatch
             (Printf.sprintf
                "snapshot has no %S section (topology/checkpoint mismatch)"
                name))
    in
    try
      let meta = find "meta" in
      let saved_tag = Snapshot.R.string meta in
      if not (String.equal saved_tag tag) then
        raise
          (Mismatch
             (Printf.sprintf "snapshot is of %S, this run is %S" saved_tag tag));
      let es = engines target in
      let saved_shards = Snapshot.R.varint meta in
      if saved_shards <> Array.length es then
        raise
          (Mismatch
             (Printf.sprintf "snapshot has %d shard(s), topology has %d"
                saved_shards (Array.length es)));
      (* Look every section up before the first restorer runs, so a
         missing one fails the restore with nothing mutated. *)
      parts target
      |> List.map (fun (name, _save, restore) -> (find name, restore))
      |> List.iter (fun (window, restore) -> restore window);
      Ok generation
    with
    | Mismatch m -> Error m
    | Snapshot.R.Corrupt m -> Error ("corrupt snapshot section: " ^ m)
    | Invalid_argument m -> Error ("snapshot does not fit this topology: " ^ m))
