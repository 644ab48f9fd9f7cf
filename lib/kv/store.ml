type backend = {
  append : string -> ((unit, string) result -> unit) -> unit;
  read_log : ((string, string) result -> unit) -> unit;
  reset_log : ((unit, string) result -> unit) -> unit;
  replace_log : string -> ((unit, string) result -> unit) -> unit;
}

let memory_backend () =
  let log = Buffer.create 1024 in
  {
    append =
      (fun data k ->
        Buffer.add_string log data;
        k (Ok ()));
    read_log = (fun k -> k (Ok (Buffer.contents log)));
    reset_log =
      (fun k ->
        Buffer.clear log;
        k (Ok ()));
    replace_log =
      (fun data k ->
        Buffer.clear log;
        Buffer.add_string log data;
        k (Ok ()));
  }

module Metrics = Lastcpu_sim.Metrics
module Detmap = Lastcpu_sim.Detmap
module Snapshot = Lastcpu_sim.Snapshot

type t = {
  backend : backend;
  index : (string, string) Hashtbl.t;
  (* Snapshot watermark: how many decodable log records the index already
     reflects. Zero for a fresh store (recovery replays everything); a
     checkpoint restore sets it, so a later [recover] — say, after the
     provider device revives — skips the prefix that produced the restored
     index instead of double-applying it. *)
  mutable applied : int;
  m_puts : Metrics.counter;
  m_gets : Metrics.counter;
  m_dels : Metrics.counter;
}

let create ?metrics ?(actor = "kv") backend =
  let m = match metrics with Some m -> m | None -> Metrics.create () in
  {
    backend;
    index = Hashtbl.create 256;
    applied = 0;
    m_puts = Metrics.counter m ~actor ~name:"puts";
    m_gets = Metrics.counter m ~actor ~name:"gets";
    m_dels = Metrics.counter m ~actor ~name:"deletes";
  }

let apply_record t = function
  | Wal.Put { key; value } -> Hashtbl.replace t.index key value
  | Wal.Del { key } -> Hashtbl.remove t.index key

let rec drop n l = if n <= 0 then l else match l with [] -> [] | _ :: r -> drop (n - 1) r

let recover t k =
  t.backend.read_log (fun res ->
      match res with
      | Error e -> k (Error e)
      | Ok data ->
        let records, _valid = Wal.decode_all data in
        let total = List.length records in
        (* Records at or below the watermark are already in the index (it
           came from a snapshot of this store); replaying them would
           double-apply. Only the suffix is news. A watermark past the end
           of the log clamps harmlessly: the log is authoritative. *)
        let skip = min t.applied total in
        if skip = 0 then Hashtbl.reset t.index;
        let fresh = drop skip records in
        List.iter (apply_record t) fresh;
        t.applied <- total;
        k (Ok (List.length fresh)))

let get t key k =
  Metrics.incr t.m_gets;
  k (Hashtbl.find_opt t.index key)

let put t ~key ~value k =
  Metrics.incr t.m_puts;
  (* Log first, apply on durability (write-ahead). *)
  t.backend.append (Wal.encode (Wal.Put { key; value })) (fun res ->
      match res with
      | Error _ as e -> k e
      | Ok () ->
        Hashtbl.replace t.index key value;
        t.applied <- t.applied + 1;
        k (Ok ()))

let delete t key k =
  Metrics.incr t.m_dels;
  if not (Hashtbl.mem t.index key) then k (Ok false)
  else
    t.backend.append (Wal.encode (Wal.Del { key })) (fun res ->
        match res with
        | Error e -> k (Error e)
        | Ok () ->
          Hashtbl.remove t.index key;
          t.applied <- t.applied + 1;
          k (Ok true))

let scan_prefix t ~prefix k =
  let matches key =
    String.length key >= String.length prefix
    && String.equal (String.sub key 0 (String.length prefix)) prefix
  in
  k (List.filter (fun (key, _) -> matches key) (Detmap.bindings t.index))

let size t = Hashtbl.length t.index

let compact t k =
  (* Key order, so the compacted log bytes are a function of store contents
     alone (two same-seed runs must write identical logs). *)
  let snapshot =
    List.map
      (fun (key, value) -> Wal.encode (Wal.Put { key; value }))
      (Detmap.bindings t.index)
  in
  let n = List.length snapshot in
  t.backend.replace_log (String.concat "" snapshot) (fun res ->
      (* The compacted log is one Put per live key, all of which the index
         already holds — the watermark is exactly its record count. *)
      (match res with Ok () -> t.applied <- n | Error _ -> ());
      k res)

let puts t = Metrics.counter_value t.m_puts
let gets t = Metrics.counter_value t.m_gets

let applied_watermark t = t.applied
let set_applied_watermark t n =
  if n < 0 then invalid_arg "set_applied_watermark: negative";
  t.applied <- n

(* Checkpointing: the index (key order, for byte-stable snapshots) and the
   replay watermark. Op counters live in the shared Metrics registry and
   are restored with it. *)
let save w t =
  Snapshot.W.varint w t.applied;
  Snapshot.W.list w
    (fun w (key, value) ->
      Snapshot.W.string w key;
      Snapshot.W.string w value)
    (Detmap.bindings t.index)

let restore r t =
  t.applied <- Snapshot.R.varint r;
  Hashtbl.reset t.index;
  List.iter
    (fun (key, value) -> Hashtbl.replace t.index key value)
    (Snapshot.R.list r (fun r ->
         let key = Snapshot.R.string r in
         let value = Snapshot.R.string r in
         (key, value)))
