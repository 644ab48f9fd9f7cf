(* Deterministic discrete-event engine.

   Sanitize mode (opt-in, off by default) journals the observable state at
   the end of every tick that executed two or more events — exactly the
   ticks where the (time, insertion-order) tie-break matters. Running the
   same workload under a perturbed tie-break (Heap.Lifo / Heap.Salted) and
   comparing journals exposes any event pair whose relative order leaks
   into observable state: a same-tick ordering race. The journal carries
   event labels so a divergence names the colliding events, not just the
   timestamp.

   Hot-path notes. The queue holds bare [unit -> unit] closures — no
   per-event record. Labels are thunks and are forced only in sanitize
   mode, at schedule time, where the event is wrapped so running it
   records its label into the current tick group; with sanitize off a
   scheduled closure goes into the heap untouched and its label thunk is
   never called. [run] with no bounds is a tight step loop with no
   per-event peek allocation. *)

type tie_break = Heap.tie_break = Fifo | Lifo | Salted of int64

(* Journalling state, allocated only when [sanitize] is on. Event groups
   are flushed lazily: a tick is recorded when the first event of a LATER
   time pops (or when the journal is read), because only then do we know
   the group is complete and whether it had >= 2 members. *)
type sani = {
  mutable cur_time : int64;
  mutable cur_labels : string list; (* reversed *)
  mutable cur_count : int;
  mutable ticks : Sanitizer.tick list; (* reversed *)
}

type t = {
  mutable clock : int64;
  queue : (unit -> unit) Heap.t;
  trace : Trace.t;  (* appended to only when [tracing] *)
  tracing : bool;
  rng : Rng.t;
  metrics : Metrics.t;
  faults : Faults.t;
  mutable executed : int;
  sani : sani option;
  mutable probes : (unit -> int64) list; (* order-insensitive: summed *)
  (* Statics are events whose closures a rebuilt topology recreates
     identically (crash windows, periodic sweeps): the count of pending
     statics defines quiescence — the only points where a whole-machine
     checkpoint can capture the event queue as data. *)
  mutable static_pending : int;
  mutable hooks :
    (string * (Snapshot.W.t -> unit) * (Snapshot.R.t -> unit)) list;
  (* reversed registration order *)
  (* Ownership tag, set by the shard coordinator when this engine becomes
     a shard: every schedule is then a guarded access, so a closure that
     runs on one lane and schedules onto another shard's engine trips the
     ownership sanitizer at the call site (when enabled). [None] for
     uncoupled engines — the common single-run case pays one branch. *)
  mutable owner_cell : Ownership.tracker option;
}

let create ?(seed = 42L) ?(trace = false) ?fault_plan ?(tie = Fifo)
    ?(sanitize = false) () =
  let metrics = Metrics.create () in
  {
    clock = 0L;
    queue = Heap.create ~tie ();
    trace = Trace.create ();
    tracing = trace;
    rng = Rng.create ~seed;
    metrics;
    faults = Faults.create ?plan:fault_plan ~seed metrics;
    executed = 0;
    sani =
      (if sanitize then
         Some { cur_time = -1L; cur_labels = []; cur_count = 0; ticks = [] }
       else None);
    probes = [];
    static_pending = 0;
    hooks = [];
    owner_cell = None;
  }

let bind_shard t ~shard =
  match t.owner_cell with
  | Some cell -> Ownership.rebind cell ~owner:shard
  | None ->
    t.owner_cell <-
      Some (Ownership.tracker ~name:(Printf.sprintf "engine[%d]" shard)
              ~owner:shard)

let shard_owner t = Option.map Ownership.owner t.owner_cell

let now t = t.clock
let trace t = t.trace
let rng t = t.rng
let fork_rng t = Rng.split t.rng
let metrics t = t.metrics
let faults t = t.faults
let sanitizing t = t.sani <> None
let tracing t = t.tracing

let register_probe t f = t.probes <- f :: t.probes

(* Probe contributions are summed, not hash-chained, so the digest does not
   depend on probe registration order. *)
let state_hash t =
  List.fold_left
    (fun acc f -> Int64.add acc (f ()))
    (Metrics.digest t.metrics) t.probes

let flush_group s hash =
  if s.cur_count >= 2 then
    s.ticks <-
      {
        Sanitizer.time = s.cur_time;
        labels = List.rev s.cur_labels;
        state_hash = hash;
      }
      :: s.ticks

let sanitizer_journal t =
  match t.sani with
  | None -> []
  | Some s ->
    flush_group s (state_hash t);
    s.cur_labels <- [];
    s.cur_count <- 0;
    s.cur_time <- -1L;
    List.rev s.ticks

let schedule_at ?label t ~time f =
  assert (time >= t.clock);
  (match t.owner_cell with
  | Some cell -> Ownership.touch cell
  | None -> ());
  match t.sani with
  | None -> Heap.push t.queue ~priority:time f
  | Some s ->
    (* Sanitize mode: force the label now and wrap the event so running it
       records itself into the current tick group. The tick bookkeeping in
       [step] (flush on time change) happens before the wrapper runs, so
       the journal sequencing is identical to recording in [step]. *)
    let lbl = match label with None -> "" | Some l -> l () in
    Heap.push t.queue ~priority:time (fun () ->
        s.cur_labels <- lbl :: s.cur_labels;
        s.cur_count <- s.cur_count + 1;
        f ())

let schedule ?label t ~delay f =
  assert (delay >= 0L);
  schedule_at ?label t ~time:(Int64.add t.clock delay) f

(* A static event is one a rebuilt topology re-schedules identically from
   declarative inputs (a crash window from the fault plan, a periodic
   sweep): it never needs to be serialized, only counted, so the engine can
   tell "the queue holds only reconstructible work" (quiescent) apart from
   "there are in-flight closures nobody can rebuild". *)
let schedule_static_at t ~time f =
  t.static_pending <- t.static_pending + 1;
  schedule_at t ~time (fun () ->
      t.static_pending <- t.static_pending - 1;
      f ())

let pending t = Heap.length t.queue
let pending_volatile t = Heap.length t.queue - t.static_pending
let events_executed t = t.executed

let next_event_time t =
  if Heap.is_empty t.queue then None else Some (Heap.top_prio t.queue)

let step t =
  if Heap.is_empty t.queue then false
  else begin
    let time = Heap.top_prio t.queue in
    let fn = Heap.pop_top t.queue in
    (match t.sani with
    | None -> ()
    | Some s ->
      if time <> s.cur_time then begin
        (* The previous tick's group is complete: its state is whatever is
           observable now, before this event mutates anything. *)
        flush_group s (state_hash t);
        s.cur_time <- time;
        s.cur_labels <- [];
        s.cur_count <- 0
      end);
    t.clock <- time;
    t.executed <- t.executed + 1;
    fn ();
    true
  end

let run ?until t =
  match until with
  | None ->
    (* The common whole-run drain: nothing to check per event. *)
    while step t do
      ()
    done
  | Some stop ->
    let rec loop () =
      if not (Heap.is_empty t.queue) then begin
        if Heap.top_prio t.queue > stop then t.clock <- stop
        else begin
          ignore (step t);
          loop ()
        end
      end
    in
    loop ();
    if Heap.is_empty t.queue && t.clock < stop then t.clock <- stop

(* Drain every volatile event, leaving only statics (if any) in the queue:
   the first point at or past the current time where a checkpoint can be
   taken. Statics whose time arrives during the drain still execute —
   events run strictly in time order regardless of kind. *)
let run_until_quiescent ?max_events t =
  let budget = ref (match max_events with None -> max_int | Some m -> m) in
  while t.static_pending < Heap.length t.queue && !budget > 0 do
    ignore (step t);
    decr budget
  done

let quiescent t = t.static_pending = Heap.length t.queue

(* --- checkpoint/restore ---------------------------------------------------- *)

let register_snapshot t ~name ~save ~restore =
  if List.exists (fun (n, _, _) -> String.equal n name) t.hooks then
    invalid_arg ("Engine.register_snapshot: duplicate hook " ^ name);
  t.hooks <- (name, save, restore) :: t.hooks

let snapshot_hooks t = List.rev t.hooks

let save_sani w s =
  Snapshot.W.int64 w s.cur_time;
  Snapshot.W.varint w s.cur_count;
  (* Raw stored order on both lists (labels reversed, ticks newest-first):
     restore writes them back verbatim, so journal output is unchanged. *)
  Snapshot.W.list w Snapshot.W.string s.cur_labels;
  Snapshot.W.list w
    (fun w (tk : Sanitizer.tick) ->
      Snapshot.W.int64 w tk.time;
      Snapshot.W.list w Snapshot.W.string tk.labels;
      Snapshot.W.int64 w tk.state_hash)
    s.ticks

let restore_sani r s =
  s.cur_time <- Snapshot.R.int64 r;
  s.cur_count <- Snapshot.R.varint r;
  s.cur_labels <- Snapshot.R.list r Snapshot.R.string;
  s.ticks <-
    Snapshot.R.list r (fun r ->
        let time = Snapshot.R.int64 r in
        let labels = Snapshot.R.list r Snapshot.R.string in
        { Sanitizer.time; labels; state_hash = Snapshot.R.int64 r })

(* Capture the engine's own state. The queue must be quiescent: closures
   cannot be serialized, so only the multiset of pending STATIC timestamps
   is written — restore re-derives the closures from a rebuilt topology and
   uses the timestamps to decide which rebuilt statics are still live.
   Draining and re-pushing the heap here is order-preserving: entries
   re-enter in pop order with fresh ascending sequence numbers. *)
let save_state t w =
  if not (quiescent t) then
    invalid_arg "Engine.save_state: queue has volatile events";
  Snapshot.W.int64 w t.clock;
  Snapshot.W.varint w t.executed;
  Snapshot.W.int64 w (Rng.state t.rng);
  let entries = Heap.to_sorted_list t.queue in
  Snapshot.W.list w (fun w (time, _) -> Snapshot.W.int64 w time) entries;
  List.iter (fun (time, f) -> Heap.push t.queue ~priority:time f) entries;
  Snapshot.W.option w save_sani t.sani;
  List.iter
    (fun save ->
      let sub = Snapshot.W.create () in
      save sub;
      Snapshot.W.string w (Snapshot.W.contents sub))
    [ Metrics.save_state t.metrics; Faults.save_state t.faults ]

(* Restore over a freshly REBUILT engine: the same deterministic builder
   that produced the checkpointed machine has already re-created every
   subsystem, handle and static event. What remains is to overwrite the
   mutable state and reconcile the queue: keep each rebuilt static whose
   timestamp matches one saved pending time at or past the restored clock
   (consuming multiset matches), drop the rest — those are statics that had
   already fired before the checkpoint (e.g. a crash whose revive is the
   surviving half of the window). *)
let restore_state t r =
  let clock = Snapshot.R.int64 r in
  t.executed <- Snapshot.R.varint r;
  Rng.set_state t.rng (Snapshot.R.int64 r);
  let saved_times = Snapshot.R.list r Snapshot.R.int64 in
  (* [W.option] frames the sani payload with a presence bool. *)
  (match (Snapshot.R.bool r, t.sani) with
  | true, Some s -> restore_sani r s
  | false, None -> ()
  | true, None | false, Some _ ->
    invalid_arg "Engine.restore_state: sanitize mode differs from checkpoint");
  Snapshot.R.nested r (Metrics.restore_state t.metrics);
  Snapshot.R.nested r (Faults.restore_state t.faults);
  let remaining = Hashtbl.create 16 in
  List.iter
    (fun time ->
      Hashtbl.replace remaining time
        (1 + Option.value (Hashtbl.find_opt remaining time) ~default:0))
    saved_times;
  let entries = Heap.to_sorted_list t.queue in
  let kept =
    List.filter
      (fun (time, _) ->
        time >= clock
        &&
        match Hashtbl.find_opt remaining time with
        | Some n when n > 0 ->
          Hashtbl.replace remaining time (n - 1);
          true
        | _ -> false)
      entries
  in
  t.clock <- clock;
  List.iter (fun (time, f) -> Heap.push t.queue ~priority:time f) kept;
  t.static_pending <- List.length kept

(* Formats only when tracing: an untraced run pays for the arguments'
   closures, never for the rendering. *)
let tracef t ~actor ~kind fmt =
  if t.tracing then
    Printf.ksprintf (Trace.append t.trace ~time:t.clock ~actor ~kind) fmt
  else Printf.ikfprintf ignore () fmt

let observe_since t ~actor ~name t0 =
  Metrics.observe
    (Metrics.histogram t.metrics ~actor ~name)
    (Int64.to_float (Int64.sub t.clock t0))
