module Layout = Lastcpu_mem.Layout
module Types = Lastcpu_proto.Types
module Metrics = Lastcpu_sim.Metrics

type access = Read | Write | Exec

type fault = {
  pasid : int;
  va : int64;
  access : access;
  reason : fault_reason;
}

and fault_reason = Not_mapped | Protection

type translate_result = Ok_pa of int64 | Fault of fault

type t = {
  tables : (int, Pagetable.t) Hashtbl.t;  (* pasid -> table *)
  tlb : Tlb.t option;
  mutable fault_handler : (fault -> unit) option;
  mutable fault_observers : (fault -> unit) list;  (* registration order *)
  (* Details of the most recent fault [translate_pa] delivered; the
     int-returning fast path cannot carry the record in its result. *)
  mutable last_fault : fault option;
  m_translations : Metrics.counter;
  m_walks : Metrics.counter;
  m_walk_levels : Metrics.counter;
  m_faults : Metrics.counter;
}

let create ?tlb_sets ?tlb_ways ?(no_tlb = false) ?metrics ?(actor = "iommu") () =
  let m = match metrics with Some m -> m | None -> Metrics.create () in
  {
    tables = Hashtbl.create 8;
    tlb =
      (if no_tlb then None
       else Some (Tlb.create ?sets:tlb_sets ?ways:tlb_ways ~metrics:m ~actor ()));
    fault_handler = None;
    fault_observers = [];
    last_fault = None;
    m_translations = Metrics.counter m ~actor ~name:"translations";
    m_walks = Metrics.counter m ~actor ~name:"walks";
    m_walk_levels = Metrics.counter m ~actor ~name:"walk_levels";
    m_faults = Metrics.counter m ~actor ~name:"faults";
  }

let attach_fault_handler t f =
  assert (t.fault_handler = None);
  t.fault_handler <- Some f

let add_fault_observer t f = t.fault_observers <- t.fault_observers @ [ f ]

let table t ~pasid =
  match Hashtbl.find_opt t.tables pasid with
  | Some pt -> pt
  | None ->
    let pt = Pagetable.create () in
    Hashtbl.replace t.tables pasid pt;
    pt

let map t ~pasid ~va ~pa ~bytes ~perm =
  Pagetable.map_range (table t ~pasid) ~va ~pa ~bytes ~perm

let unmap t ~pasid ~va ~bytes =
  match Hashtbl.find_opt t.tables pasid with
  | None -> 0
  | Some pt ->
    let removed = Pagetable.unmap_range pt ~va ~bytes in
    (match t.tlb with
    | None -> ()
    | Some tlb ->
      let npages = Layout.pages_of_bytes bytes in
      for i = 0 to npages - 1 do
        let vpn =
          Layout.page_of_addr (Int64.add va (Layout.addr_of_page (Int64.of_int i)))
        in
        Tlb.invalidate_page tlb ~pasid ~vpn
      done);
    removed

let clear_pasid t ~pasid =
  Hashtbl.remove t.tables pasid;
  match t.tlb with
  | None -> ()
  | Some tlb -> Tlb.invalidate_pasid tlb ~pasid

(* Hoisted constants: [translate] runs once per DMA transaction, and
   building a fresh permission record per call would allocate on every
   access. *)
let need_read = Types.perm_r
let need_write = { Types.read = false; write = true; exec = false }
let need_exec = { Types.read = false; write = false; exec = true }

let access_perm = function
  | Read -> need_read
  | Write -> need_write
  | Exec -> need_exec

let deliver_fault t fault =
  Metrics.incr t.m_faults;
  (match t.fault_handler with Some f -> f fault | None -> ());
  List.iter (fun f -> f fault) t.fault_observers;
  Fault fault

(* The TLB miss / no-TLB path: full page-table walk, with walk-depth
   accounting and a TLB refill on success. *)
let translate_walk t ~pasid ~va ~access ~need ~vpn =
  match Hashtbl.find_opt t.tables pasid with
  | None -> deliver_fault t { pasid; va; access; reason = Not_mapped }
  | Some pt -> (
    Metrics.incr t.m_walks;
    match Pagetable.walk pt ~va ~access:need with
    | Pagetable.Translated { pa; levels; perm } ->
      Metrics.add t.m_walk_levels levels;
      (match t.tlb with
      | None -> ()
      | Some tlb ->
        Tlb.insert tlb ~pasid ~vpn { Tlb.ppn = Layout.page_of_addr pa; perm });
      Ok_pa pa
    | Pagetable.No_mapping { level } ->
      Metrics.add t.m_walk_levels level;
      deliver_fault t { pasid; va; access; reason = Not_mapped }
    | Pagetable.Permission_denied _ ->
      Metrics.incr ~by:4 t.m_walk_levels;
      deliver_fault t { pasid; va; access; reason = Protection })

let page_off_mask = Int64.to_int Layout.page_mask

(* One byte-translation: native-int virtual address in, native-int
   physical address out, or [-1] on a fault (the record is then in
   [last_fault]). Virtual addresses in this simulation are well below
   2^62, so the round trip is exact; on a TLB hit nothing is allocated.
   Counter effects (translations, tlb hits/misses, walks, walk levels,
   faults) are digest material — [translate] and [translate_run] below
   are the same code path, so the entry points cannot drift. *)
let walk_pa t ~pasid ~vai ~access ~need =
  let vpn = Int64.of_int (vai lsr Layout.page_bits) in
  match translate_walk t ~pasid ~va:(Int64.of_int vai) ~access ~need ~vpn with
  | Ok_pa pa -> Int64.to_int pa
  | Fault f ->
    t.last_fault <- Some f;
    -1

let translate_pa t ~pasid ~vai ~access =
  Metrics.incr t.m_translations;
  let need = access_perm access in
  match t.tlb with
  | Some tlb ->
    let ppn = Tlb.probe tlb ~pasid ~vpn:(vai lsr Layout.page_bits) in
    if ppn >= 0 then begin
      if Proto_perm.subsumes (Tlb.probe_perm tlb) need then
        (ppn lsl Layout.page_bits) lor (vai land page_off_mask)
      else begin
        (* Cached translation exists but lacks rights: protection fault. *)
        match
          deliver_fault t
            { pasid; va = Int64.of_int vai; access; reason = Protection }
        with
        | Fault f ->
          t.last_fault <- Some f;
          -1
        | Ok_pa _ -> assert false
      end
    end
    else walk_pa t ~pasid ~vai ~access ~need
  | None -> walk_pa t ~pasid ~vai ~access ~need

let page_bytes = page_off_mask + 1

(* A DMA transaction of [n] bytes inside one page is accounted as [n]
   byte-translations, the model's unit: the first is a real translation
   (TLB probe, or walk and refill, or fault), and on success the other
   [n-1] are replayed. With a TLB each of them would be a hit on the slot
   the first one used, so the replay is O(1); without one each would be
   the same full walk, so it is simply repeated. *)
let translate_run t ~pasid ~vai ~n ~access =
  if n < 1 || (vai land page_off_mask) + n > page_bytes then
    invalid_arg "Iommu.translate_run: run must be non-empty within one page";
  let pa = translate_pa t ~pasid ~vai ~access in
  if pa >= 0 && n > 1 then begin
    match t.tlb with
    | Some tlb ->
      Metrics.add t.m_translations (n - 1);
      Tlb.replay_hits tlb (n - 1)
    | None ->
      for i = 1 to n - 1 do
        ignore (translate_pa t ~pasid ~vai:(vai + i) ~access)
      done
  end;
  pa

let last_fault t =
  match t.last_fault with
  | Some f -> f
  | None -> invalid_arg "Iommu.last_fault: no fault delivered yet"

let translate t ~pasid ~va ~access =
  let pa = translate_pa t ~pasid ~vai:(Int64.to_int va) ~access in
  if pa >= 0 then Ok_pa (Int64.of_int pa) else Fault (last_fault t)

let pasids t = Lastcpu_sim.Detmap.sorted_keys t.tables

let mapped_pages t ~pasid =
  match Hashtbl.find_opt t.tables pasid with
  | None -> 0
  | Some pt -> Pagetable.mapped_pages pt

(* Side-effect-free translation probe: no TLB fill, no counters, no fault
   delivery. The fuzzer and containment assertions use this to ask "can this
   PASID reach physical address X?" without perturbing the digest. *)
let probe t ~pasid ~va =
  match Hashtbl.find_opt t.tables pasid with
  | None -> None
  | Some pt -> (
    match Pagetable.walk pt ~va ~access:Types.perm_none with
    | Pagetable.Translated { pa; _ } -> Some pa
    | Pagetable.No_mapping _ | Pagetable.Permission_denied _ -> None)

let iter_mappings t ~pasid f =
  match Hashtbl.find_opt t.tables pasid with
  | None -> ()
  | Some pt -> Pagetable.iter pt (fun ~va ~pa ~perm:_ -> f ~va ~pa)

let tlb_hits t = match t.tlb with None -> 0 | Some tlb -> Tlb.hits tlb
let tlb_misses t = match t.tlb with None -> 0 | Some tlb -> Tlb.misses tlb
let tlb_evictions t = match t.tlb with None -> 0 | Some tlb -> Tlb.evictions tlb
let translations t = Metrics.counter_value t.m_translations
let walks t = Metrics.counter_value t.m_walks
let walk_levels t = Metrics.counter_value t.m_walk_levels
let faults t = Metrics.counter_value t.m_faults

(* Checkpointing: per-PASID page tables plus the TLB (counters restore via
   the shared Metrics registry; the fault handler is a closure the rebuilt
   device re-attaches). *)
module Snapshot = Lastcpu_sim.Snapshot

let save w t =
  Snapshot.W.list w
    (fun w (pasid, pt) ->
      Snapshot.W.vint w pasid;
      Pagetable.save w pt)
    (Lastcpu_sim.Detmap.bindings t.tables);
  Snapshot.W.option w (fun w tlb -> Tlb.save w tlb) t.tlb

let restore r t =
  Hashtbl.reset t.tables;
  let n = Snapshot.R.varint r in
  for _ = 1 to n do
    let pasid = Snapshot.R.vint r in
    Pagetable.restore r (table t ~pasid)
  done;
  match (Snapshot.R.bool r, t.tlb) with
  | true, Some tlb -> Tlb.restore r tlb
  | false, None -> ()
  | true, None | false, Some _ ->
    invalid_arg "Iommu.restore: TLB presence differs from checkpoint"
