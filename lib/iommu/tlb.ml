type entry = { ppn : int64; perm : Proto_perm.t }

(* Slots hold page numbers as native ints: every DMA transaction funnels
   through [probe], and boxed Int64 keys would put ~10 minor-heap
   allocations on that path. Page numbers are < 2^51 in this simulation,
   so the conversion at the (cold) int64 API boundary is exact. *)
type slot = {
  mutable valid : bool;
  mutable pasid : int;
  mutable vpn : int;
  mutable ppn : int;
  mutable perm : Proto_perm.t;
  mutable lru : int;  (* higher = more recently used *)
}

module Metrics = Lastcpu_sim.Metrics

type t = {
  sets : int;
  ways : int;
  slots : slot array array;  (* sets x ways *)
  mutable clock : int;
  mutable last_perm : Proto_perm.t;  (* perms of the latest [probe] hit *)
  (* The slot the latest [probe] hit or [insert] filled, so [replay_hits]
     can restamp it in O(1). Host-only: never saved, and only read right
     after the probe or insert that set it. *)
  mutable last_slot : slot;
  m_hits : Metrics.counter;
  m_misses : Metrics.counter;
  m_evictions : Metrics.counter;
}

let perm_none = Lastcpu_proto.Types.perm_none

let create ?(sets = 64) ?(ways = 4) ?metrics ?(actor = "tlb") () =
  if sets <= 0 || sets land (sets - 1) <> 0 then
    invalid_arg "Tlb.create: sets must be a power of two";
  if ways <= 0 then invalid_arg "Tlb.create: ways must be positive";
  let mk_slot () =
    { valid = false; pasid = -1; vpn = -1; ppn = 0; perm = perm_none; lru = 0 }
  in
  (* Without a shared registry (standalone unit tests), counters live in a
     private one so the hot path never branches on an option. *)
  let m = match metrics with Some m -> m | None -> Metrics.create () in
  let slots = Array.init sets (fun _ -> Array.init ways (fun _ -> mk_slot ())) in
  {
    sets;
    ways;
    slots;
    clock = 0;
    last_perm = perm_none;
    last_slot = slots.(0).(0);
    m_hits = Metrics.counter m ~actor ~name:"tlb_hits";
    m_misses = Metrics.counter m ~actor ~name:"tlb_misses";
    m_evictions = Metrics.counter m ~actor ~name:"tlb_evictions";
  }

let set_index t ~pasid ~vpn =
  (* Mix pasid into the index so different address spaces do not collide
     on identical low page numbers. *)
  (vpn lxor (pasid * 0x9E3779B1)) land (t.sets - 1)

let tick t =
  t.clock <- t.clock + 1;
  t.clock

(* The translate fast path: no closure, no option, no boxing. Returns the
   physical page number on a (pasid, vpn) match — permission checking is
   the caller's job, via [probe_perm] — or -1 on a miss. Counter and LRU
   effects are exactly those of [lookup]: a tag match counts as a hit
   even if the permissions later prove insufficient. *)
let rec probe_set t set i ~pasid ~vpn =
  if i >= Array.length set then begin
    Metrics.incr t.m_misses;
    -1
  end
  else begin
    let s = Array.unsafe_get set i in
    if s.valid && s.pasid = pasid && s.vpn = vpn then begin
      s.lru <- tick t;
      t.last_perm <- s.perm;
      t.last_slot <- s;
      Metrics.incr t.m_hits;
      s.ppn
    end
    else probe_set t set (i + 1) ~pasid ~vpn
  end

let probe t ~pasid ~vpn =
  probe_set t (Array.unsafe_get t.slots (set_index t ~pasid ~vpn)) 0 ~pasid ~vpn

let probe_perm t = t.last_perm

(* [k] more hits on the slot the latest [probe] hit or [insert] filled,
   with exactly the counter, clock and LRU effects of [k] further
   [probe]s of that page: each would tick the clock and stamp the slot,
   so only the last stamp survives. *)
let replay_hits t k =
  Metrics.add t.m_hits k;
  t.clock <- t.clock + k;
  t.last_slot.lru <- t.clock

let lookup t ~pasid ~vpn =
  let ppn = probe t ~pasid ~vpn:(Int64.to_int vpn) in
  if ppn < 0 then None
  else Some { ppn = Int64.of_int ppn; perm = t.last_perm }

let insert t ~pasid ~vpn (e : entry) =
  let vpn = Int64.to_int vpn in
  let ppn = Int64.to_int e.ppn in
  let set = t.slots.(set_index t ~pasid ~vpn) in
  (* Reuse an existing slot for the same page, else the LRU victim. *)
  let victim = ref set.(0) in
  Array.iter
    (fun s ->
      if s.valid && s.pasid = pasid && s.vpn = vpn then victim := s
      else if not s.valid && !victim.valid then victim := s
      else if s.lru < !victim.lru && !victim.valid && s.valid then victim := s)
    set;
  let s = !victim in
  if s.valid && not (s.pasid = pasid && s.vpn = vpn) then
    Metrics.incr t.m_evictions;
  s.valid <- true;
  s.pasid <- pasid;
  s.vpn <- vpn;
  s.ppn <- ppn;
  s.perm <- e.perm;
  s.lru <- tick t;
  t.last_slot <- s

let invalidate_page t ~pasid ~vpn =
  let vpn = Int64.to_int vpn in
  let set = t.slots.(set_index t ~pasid ~vpn) in
  Array.iter
    (fun s -> if s.valid && s.pasid = pasid && s.vpn = vpn then s.valid <- false)
    set

let invalidate_pasid t ~pasid =
  Array.iter
    (fun set ->
      Array.iter (fun s -> if s.valid && s.pasid = pasid then s.valid <- false) set)
    t.slots

let invalidate_all t =
  Array.iter (fun set -> Array.iter (fun s -> s.valid <- false) set) t.slots

let hits t = Metrics.counter_value t.m_hits
let misses t = Metrics.counter_value t.m_misses
let evictions t = Metrics.counter_value t.m_evictions

(* Checkpointing: replacement state (valid bits, LRU stamps, the clock) is
   observable through future hit/miss counts, so the whole slot array is
   captured verbatim. Counters live in the shared registry and restore
   there. Page numbers still travel as i64 — the on-disk format predates
   the int-keyed slots and must keep restoring old checkpoints. *)
module Snapshot = Lastcpu_sim.Snapshot

let save w t =
  Snapshot.W.varint w t.sets;
  Snapshot.W.varint w t.ways;
  Snapshot.W.varint w t.clock;
  Array.iter
    (fun set ->
      Array.iter
        (fun s ->
          Snapshot.W.bool w s.valid;
          Snapshot.W.vint w s.pasid;
          Snapshot.W.int64 w (Int64.of_int s.vpn);
          Snapshot.W.int64 w (Int64.of_int s.ppn);
          Snapshot.W.byte w (Proto_perm.to_bits s.perm);
          Snapshot.W.varint w s.lru)
        set)
    t.slots

let restore r t =
  let sets = Snapshot.R.varint r in
  let ways = Snapshot.R.varint r in
  if sets <> t.sets || ways <> t.ways then
    invalid_arg "Tlb.restore: geometry differs from checkpoint";
  t.clock <- Snapshot.R.varint r;
  Array.iter
    (fun set ->
      Array.iter
        (fun s ->
          s.valid <- Snapshot.R.bool r;
          s.pasid <- Snapshot.R.vint r;
          s.vpn <- Int64.to_int (Snapshot.R.int64 r);
          s.ppn <- Int64.to_int (Snapshot.R.int64 r);
          s.perm <- Proto_perm.of_bits (Snapshot.R.byte r);
          s.lru <- Snapshot.R.varint r)
        set)
    t.slots
