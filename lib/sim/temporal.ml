(* Quantum-synchronized shard coordinator: conservative parallel DES.

   A run is partitioned into shards, each an ordinary sequential Engine
   with its own heap and local clock. Shards execute a *window* at a time:
   every shard runs up to the same target timestamp, then all rendezvous
   and exchange the cross-shard messages posted during the window. Within
   a window shards share nothing, so the windows can execute on separate
   domains (see Parallel.Pool) without any locking on the simulation state.

   Correctness rests on the lookahead bound. Every cross-shard interaction
   has a minimum latency L >= 1ns (the lookahead): a message posted at
   local time t arrives at its natural timestamp t + L. With the window
   length (quantum) q <= L, the rendezvous edge e that closes the sending
   window satisfies e <= t + q <= t + L, so an arrival flushed at the
   barrier is never behind the destination's clock (at worst exactly at
   it, for a post made on an edge), and Engine.schedule_at's
   [time >= clock] invariant holds unconditionally.

   Determinism contract. For a fixed (seed, quantum) the whole computation
   is a pure function of its inputs, independent of how many domains
   execute the shards: each shard's window is sequential; the flush is
   single-threaded and sorts the union of outboxes by (arrival time,
   source shard, per-source sequence number) — all three components are
   lane-independent. Boundary events sharing (destination, arrival time)
   are delivered as ONE scheduled closure that executes the members in
   that sorted order internally, so the destination heap's tie-break
   policy (Fifo / Lifo / Salted) cannot reorder boundary-vs-boundary
   delivery even under the sanitizer's perturbed runs.

   quantum = 0 degenerates to lock-step: the rendezvous target is the
   global minimum next-event time, i.e. shards advance one global tick at
   a time — the union schedule a single sequential engine would execute. *)

type outbox_ev = {
  at : int64;  (* arrival timestamp: send time + lookahead *)
  src : int;
  seq : int;  (* per-source posting order, lane-independent *)
  dst : int;
  label : string;
  fire : unit -> unit;
}

type shard = {
  sh_engine : Engine.t;
  mutable out : outbox_ev list;  (* reversed; confined to the shard's lane *)
  mutable oseq : int;
}

type t = {
  quantum : int64;
  lookahead : int64;
  shards : shard array;
  (* Common clock origin; window edges are base + k*quantum. Mutable only
     for checkpoint restore: a rebuilt coordinator starts from the boot
     clocks but must resume with the checkpointed origin so the edge
     arithmetic — and therefore every future rendezvous point — is
     identical to the uninterrupted run. *)
  mutable base : int64;
  mutable boundary_events : int;
  mutable windows : int;
}

let create ?quantum ~lookahead engines =
  if Array.length engines = 0 then
    invalid_arg "Temporal.create: need at least one shard";
  if lookahead < 1L then
    invalid_arg "Temporal.create: lookahead must be >= 1ns";
  let quantum = match quantum with None -> lookahead | Some q -> q in
  if quantum < 0L || quantum > lookahead then
    invalid_arg
      (Printf.sprintf
         "Temporal.create: quantum must be in [0, lookahead=%Ld] (got %Ld)"
         lookahead quantum);
  (* Shard engines may arrive with unequal clocks (e.g. each System was
     booted sequentially before coupling). Align them to a common origin so
     window edges mean the same instant everywhere; running an engine
     [~until] a time past its events only advances its clock. *)
  let base = Array.fold_left (fun m e -> max m (Engine.now e)) 0L engines in
  Array.iter (fun e -> Engine.run ~until:base e) engines;
  (* Tag each engine with its shard id for the ownership sanitizer: from
     here on, scheduling onto an engine from a lane running a different
     shard is a contract violation the sanitizer can catch at the site. *)
  Array.iteri (fun i e -> Engine.bind_shard e ~shard:i) engines;
  let shards =
    Array.map (fun e -> { sh_engine = e; out = []; oseq = 0 }) engines
  in
  { quantum; lookahead; shards; base; boundary_events = 0; windows = 0 }

let shard_count t = Array.length t.shards
let engine t i = t.shards.(i).sh_engine
let lookahead t = t.lookahead
let quantum t = t.quantum
let boundary_events t = t.boundary_events
let windows_run t = t.windows

let post ?label t ~src ~dst fire =
  if src < 0 || src >= Array.length t.shards then
    invalid_arg "Temporal.post: bad src shard";
  if dst < 0 || dst >= Array.length t.shards then
    invalid_arg "Temporal.post: bad dst shard";
  let s = t.shards.(src) in
  let at = Int64.add (Engine.now s.sh_engine) t.lookahead in
  (* The label is only read when the destination journals ticks; skip the
     formatting otherwise, same policy as Engine.schedule. *)
  let label =
    if Engine.sanitizing t.shards.(dst).sh_engine then
      match label with None -> "xshard" | Some l -> l ()
    else ""
  in
  s.out <- { at; src; seq = s.oseq; dst; label; fire } :: s.out;
  s.oseq <- s.oseq + 1

(* Earliest pending event across all shards, including not-yet-flushed
   outbox arrivals (they are already committed future work). *)
let horizon t =
  Array.fold_left
    (fun acc s ->
      let acc =
        match Engine.next_event_time s.sh_engine with
        | None -> acc
        | Some e -> ( match acc with None -> Some e | Some a -> Some (min a e))
      in
      List.fold_left
        (fun acc ev ->
          match acc with None -> Some ev.at | Some a -> Some (min a ev.at))
        acc s.out)
    None t.shards

(* Next rendezvous edge. With quantum > 0, skip ahead: idle stretches with
   no events anywhere jump straight to the window containing the next
   event, rather than spinning empty barriers. quantum = 0 is lock-step —
   the edge IS the global minimum event time. *)
let next_target t tm =
  if t.quantum = 0L then tm
  else begin
    (* Smallest edge base + k*q >= tm (ceil division on the offset). An
       edge equal to [tm] is fine — [Engine.run ~until] is inclusive, and
       an arrival landing exactly on an edge (a post made at an edge, e.g.
       from outside the run loop) must be flushed at that edge, not a
       window later, or the flush would schedule into the destination's
       past. Progress is still guaranteed: every window either executes an
       event or flushes an outbox entry, so the horizon's support shrinks. *)
    let off = Int64.sub tm t.base in
    let k = Int64.div (Int64.add off (Int64.sub t.quantum 1L)) t.quantum in
    Int64.add t.base (Int64.mul k t.quantum)
  end

(* Rendezvous: collect every outbox, order by (arrival, src, seq), and hand
   the messages to their destinations. All events sharing (dst, arrival)
   become one scheduled closure so the destination's tie-break cannot
   interleave anything between them or reorder them. *)
let flush t =
  (* Collection order is irrelevant: (at, src, seq) is a total key, so the
     sort below fully determines delivery order. *)
  let pending =
    Array.fold_left
      (fun acc s ->
        let evs = s.out in
        s.out <- [];
        List.rev_append evs acc)
      [] t.shards
  in
  match pending with
  | [] -> ()
  | _ ->
    let pending =
      List.sort
        (fun a b ->
          match Int64.compare a.at b.at with
          | 0 -> ( match compare a.src b.src with 0 -> compare a.seq b.seq | c -> c)
          | c -> c)
        pending
    in
    let rec deliver = function
      | [] -> ()
      | ev :: _ as evs ->
        let same, rest =
          List.partition (fun e -> e.dst = ev.dst && e.at = ev.at) evs
        in
        (* List.partition preserves relative order, so [same] is still in
           (src, seq) order. *)
        let dst = t.shards.(ev.dst).sh_engine in
        t.boundary_events <- t.boundary_events + List.length same;
        let label =
          if Engine.sanitizing dst then
            Some (fun () -> String.concat "+" (List.map (fun e -> e.label) same))
          else None
        in
        Engine.schedule_at ?label dst ~time:ev.at (fun () ->
            List.iter (fun e -> e.fire ()) same);
        deliver rest
    in
    deliver pending

let run_window ?pool t =
  match horizon t with
  | None -> false
  | Some tm ->
    let target = next_target t tm in
    (* Each window task runs under its shard's ownership context, so any
       guarded cell touched from the wrong lane is caught while the race
       is actually happening — the dynamic half of the D007 audit. With
       the sanitizer disabled the context bracket is skipped entirely and
       the task array is identical to the pre-sanitizer build. *)
    let tasks =
      if Ownership.enabled () then
        Array.mapi
          (fun i s () ->
            Ownership.with_shard i (fun () ->
                Engine.run ~until:target s.sh_engine))
          t.shards
      else
        Array.map (fun s () -> Engine.run ~until:target s.sh_engine) t.shards
    in
    (match pool with
    | Some p -> Parallel.Pool.run p tasks
    | None -> Array.iter (fun task -> task ()) tasks);
    t.windows <- t.windows + 1;
    flush t;
    true

(* --- checkpoint/restore ---------------------------------------------------- *)

(* Quiescent = checkpointable: no outbox entries awaiting a flush and no
   volatile events on any shard. Pending statics (crash windows, sweeps)
   are fine — the engine represents them as bare timestamps. After any
   window every shard clock equals the window target exactly (Engine.run
   ~until leaves the clock at the target in all branches), so at
   quiescence the clocks are uniform and sit on a window edge. *)
let quiescent t =
  Array.for_all
    (fun s -> s.out = [] && Engine.pending_volatile s.sh_engine = 0)
    t.shards

let run_until_quiescent ?pool t =
  while not (quiescent t) do
    (* A non-quiescent shard has a pending event or outbox entry, so the
       horizon is non-empty and the window makes progress. *)
    let progressed = run_window ?pool t in
    assert progressed
  done

let save_state t w =
  Snapshot.W.int64 w t.base;
  Snapshot.W.varint w t.boundary_events;
  Snapshot.W.varint w t.windows;
  Snapshot.W.array w (fun w s -> Snapshot.W.varint w s.oseq) t.shards

let restore_state t r =
  t.base <- Snapshot.R.int64 r;
  t.boundary_events <- Snapshot.R.varint r;
  t.windows <- Snapshot.R.varint r;
  let oseqs = Snapshot.R.array r Snapshot.R.varint in
  if Array.length oseqs <> Array.length t.shards then
    invalid_arg "Temporal.restore_state: shard count differs from checkpoint";
  Array.iteri
    (fun i s ->
      s.out <- [];
      s.oseq <- oseqs.(i))
    t.shards
