(* Engine-carried telemetry registry.

   Every subsystem registers named instruments — counters, gauges,
   log-bucketed histograms — under an [actor/instrument] key. The registry
   lives on [Engine.t], so one simulation run has exactly one telemetry
   context and snapshots are deterministic for a given seed: iteration
   order is defined (sorted by actor, then instrument), never hash order.

   Instruments are handles: subsystems resolve them once at creation time
   and bump them on the hot path without a hash lookup. *)

type counter = { mutable count : int }
type gauge = { mutable level : float }
type histogram = { hist : Stats.Histogram.t; summ : Stats.Summary.t }

type instrument =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

type value =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of Stats.latency_report

type t = {
  table : (string * string, instrument) Hashtbl.t; (* (actor, instrument) *)
  claimed : (string, int) Hashtbl.t; (* actor base name -> times claimed *)
}

let create () = { table = Hashtbl.create 64; claimed = Hashtbl.create 16 }

(* Actor names must be unique or two subsystems would silently share
   instruments (e.g. two devices created with the same [~name]). Claiming
   uniquifies: the first claim of "nic0" gets "nic0", the next "nic0#2". *)
let claim_actor t base =
  match Hashtbl.find_opt t.claimed base with
  | None ->
    Hashtbl.replace t.claimed base 1;
    base
  | Some n ->
    Hashtbl.replace t.claimed base (n + 1);
    Printf.sprintf "%s#%d" base (n + 1)

let counter t ~actor ~name =
  match Hashtbl.find_opt t.table (actor, name) with
  | Some (Counter c) -> c
  | Some _ -> invalid_arg (actor ^ "/" ^ name ^ ": not a counter")
  | None ->
    let c = { count = 0 } in
    Hashtbl.replace t.table (actor, name) (Counter c);
    c

let gauge t ~actor ~name =
  match Hashtbl.find_opt t.table (actor, name) with
  | Some (Gauge g) -> g
  | Some _ -> invalid_arg (actor ^ "/" ^ name ^ ": not a gauge")
  | None ->
    let g = { level = 0. } in
    Hashtbl.replace t.table (actor, name) (Gauge g);
    g

let histogram t ~actor ~name =
  match Hashtbl.find_opt t.table (actor, name) with
  | Some (Histogram h) -> h
  | Some _ -> invalid_arg (actor ^ "/" ^ name ^ ": not a histogram")
  | None ->
    let h = { hist = Stats.Histogram.create (); summ = Stats.Summary.create () } in
    Hashtbl.replace t.table (actor, name) (Histogram h);
    h

let incr ?(by = 1) c = c.count <- c.count + by
let add c n = c.count <- c.count + n
let counter_value c = c.count
let set g v = g.level <- v
let gauge_value g = g.level

let observe h v =
  Stats.Histogram.add h.hist v;
  Stats.Summary.add h.summ v

let observations h = Stats.Histogram.count h.hist
let report h = Stats.latency_report h.hist h.summ
let hist h = h.hist
let summary h = h.summ

let value_of = function
  | Counter c -> Counter_v c.count
  | Gauge g -> Gauge_v g.level
  | Histogram h -> Histogram_v (report h)

let find t ~actor ~name =
  Option.map value_of (Hashtbl.find_opt t.table (actor, name))

let counter_read t ~actor ~name =
  match find t ~actor ~name with Some (Counter_v n) -> n | _ -> 0

(* A counter registered on its first bump. Unbound, it reads through the
   registry rather than reporting 0, so a counter that [restore_state]
   pre-created reads its restored value before the handle's first bump. *)
type lazy_counter = {
  reg : t;
  l_actor : string;
  l_name : string;
  mutable bound : counter option;
}

let lazy_counter reg ~actor ~name =
  { reg; l_actor = actor; l_name = name; bound = None }

let bump ?(by = 1) l =
  let c =
    match l.bound with
    | Some c -> c
    | None ->
      let c = counter l.reg ~actor:l.l_actor ~name:l.l_name in
      l.bound <- Some c;
      c
  in
  c.count <- c.count + by

let lazy_value l =
  match l.bound with
  | Some c -> c.count
  | None -> counter_read l.reg ~actor:l.l_actor ~name:l.l_name

(* Deterministic listing: sorted by (actor, instrument). *)
let snapshot t =
  List.map
    (fun ((actor, name), ins) -> (actor, name, value_of ins))
    (Detmap.bindings t.table)

let actors t =
  List.sort_uniq String.compare (List.map fst (Detmap.sorted_keys t.table))

(* Observable-state digest for the ordering sanitizer. Counters and gauges
   contribute their values; histograms contribute only their observation
   count — quantiles shift benignly when two same-tick arrivals swap
   places in a queue, and hashing them would report queueing noise as
   ordering races. *)
let digest t =
  List.fold_left
    (fun h (actor, name, v) ->
      let h = Sanitizer.hash_string h actor in
      let h = Sanitizer.hash_string h name in
      match v with
      | Counter_v n -> Sanitizer.combine h (Int64.of_int n)
      | Gauge_v g -> Sanitizer.combine h (Int64.bits_of_float g)
      | Histogram_v r -> Sanitizer.combine h (Int64.of_int r.Stats.n))
    0x6D65747269637331L (snapshot t)

let size t = Hashtbl.length t.table

(* --- checkpoint/restore ---------------------------------------------------- *)

(* Restore mutates instrument records IN PLACE wherever the key already
   exists: subsystems hold handles resolved at creation time, and a
   rebuilt topology re-resolves the same keys, so overwriting the record
   a handle points at is what makes the handle see restored values.
   Instruments that existed at checkpoint time but not yet in the rebuilt
   registry (lazily created ones) are pre-created here; a later
   [counter]/[gauge]/[histogram] call or lazy-counter [bump] finds and
   binds to the restored record. The claimed-actor table is part of the state: a post-restore
   [claim_actor] must uniquify against the original run's claims, not the
   rebuild's. *)
let save_state t w =
  Snapshot.W.list w
    (fun w (name, n) ->
      Snapshot.W.string w name;
      Snapshot.W.varint w n)
    (Detmap.bindings t.claimed);
  Snapshot.W.varint w (Hashtbl.length t.table);
  List.iter
    (fun ((actor, name), ins) ->
      Snapshot.W.string w actor;
      Snapshot.W.string w name;
      match ins with
      | Counter c ->
        Snapshot.W.byte w 0;
        Snapshot.W.vint w c.count
      | Gauge g ->
        Snapshot.W.byte w 1;
        Snapshot.W.float w g.level
      | Histogram h ->
        Snapshot.W.byte w 2;
        Stats.Histogram.save w h.hist;
        Stats.Summary.save w h.summ)
    (Detmap.bindings t.table)

let restore_state t r =
  Hashtbl.reset t.claimed;
  List.iter
    (fun (name, n) -> Hashtbl.replace t.claimed name n)
    (Snapshot.R.list r (fun r ->
         let name = Snapshot.R.string r in
         (name, Snapshot.R.varint r)));
  let n = Snapshot.R.varint r in
  for _ = 1 to n do
    let actor = Snapshot.R.string r in
    let name = Snapshot.R.string r in
    let key = (actor, name) in
    let mismatch () =
      invalid_arg
        (Printf.sprintf "Metrics.restore_state: %s/%s changed instrument type"
           actor name)
    in
    match Snapshot.R.byte r with
    | 0 -> (
      let v = Snapshot.R.vint r in
      match Hashtbl.find_opt t.table key with
      | Some (Counter c) -> c.count <- v
      | None -> Hashtbl.replace t.table key (Counter { count = v })
      | Some _ -> mismatch ())
    | 1 -> (
      let v = Snapshot.R.float r in
      match Hashtbl.find_opt t.table key with
      | Some (Gauge g) -> g.level <- v
      | None -> Hashtbl.replace t.table key (Gauge { level = v })
      | Some _ -> mismatch ())
    | 2 ->
      let h =
        match Hashtbl.find_opt t.table key with
        | Some (Histogram h) -> h
        | None ->
          let h =
            { hist = Stats.Histogram.create (); summ = Stats.Summary.create () }
          in
          Hashtbl.replace t.table key (Histogram h);
          h
        | Some _ -> mismatch ()
      in
      Stats.Histogram.restore r h.hist;
      Stats.Summary.restore r h.summ
    | _ -> raise (Snapshot.R.Corrupt "bad instrument tag")
  done

(* --- export: Prometheus text exposition ----------------------------------- *)

let sanitize s =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
      | _ -> '_')
    s

let pp_float ppf v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Format.fprintf ppf "%.0f" v
  else Format.fprintf ppf "%g" v

let to_prometheus t =
  let buf = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  List.iter
    (fun (actor, name, v) ->
      let metric = "lastcpu_" ^ sanitize name in
      let labels = Printf.sprintf "{actor=\"%s\"}" actor in
      match v with
      | Counter_v n ->
        line "# TYPE %s counter" metric;
        line "%s%s %d" metric labels n
      | Gauge_v g ->
        line "# TYPE %s gauge" metric;
        line "%s%s %s" metric labels (Format.asprintf "%a" pp_float g)
      | Histogram_v r ->
        line "# TYPE %s summary" metric;
        line "%s{actor=\"%s\",quantile=\"0.5\"} %s" metric actor
          (Format.asprintf "%a" pp_float r.Stats.p50);
        line "%s{actor=\"%s\",quantile=\"0.95\"} %s" metric actor
          (Format.asprintf "%a" pp_float r.Stats.p95);
        line "%s{actor=\"%s\",quantile=\"0.99\"} %s" metric actor
          (Format.asprintf "%a" pp_float r.Stats.p99);
        line "%s_sum%s %s" metric labels
          (Format.asprintf "%a" pp_float (r.Stats.mean *. float_of_int r.Stats.n));
        line "%s_count%s %d" metric labels r.Stats.n)
    (snapshot t);
  Buffer.contents buf

(* --- export: one JSON object per registry --------------------------------- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

let to_json t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"metrics\":[";
  List.iteri
    (fun i (actor, name, v) ->
      if i > 0 then Buffer.add_char buf ',';
      let head =
        Printf.sprintf "{\"actor\":\"%s\",\"instrument\":\"%s\","
          (json_escape actor) (json_escape name)
      in
      Buffer.add_string buf head;
      (match v with
      | Counter_v n ->
        Buffer.add_string buf (Printf.sprintf "\"type\":\"counter\",\"value\":%d" n)
      | Gauge_v g ->
        Buffer.add_string buf
          (Printf.sprintf "\"type\":\"gauge\",\"value\":%s" (json_float g))
      | Histogram_v r ->
        Buffer.add_string buf
          (Printf.sprintf
             "\"type\":\"histogram\",\"n\":%d,\"mean\":%s,\"p50\":%s,\"p95\":%s,\"p99\":%s,\"max\":%s"
             r.Stats.n (json_float r.Stats.mean) (json_float r.Stats.p50)
             (json_float r.Stats.p95) (json_float r.Stats.p99)
             (json_float r.Stats.max)));
      Buffer.add_char buf '}')
    (snapshot t);
  Buffer.add_string buf "]}";
  Buffer.contents buf

let pp ppf t =
  List.iter
    (fun (actor, name, v) ->
      match v with
      | Counter_v n -> Format.fprintf ppf "%s/%s = %d@." actor name n
      | Gauge_v g -> Format.fprintf ppf "%s/%s = %a@." actor name pp_float g
      | Histogram_v r ->
        Format.fprintf ppf "%s/%s : %a@." actor name Stats.pp_latency_report r)
    (snapshot t)
