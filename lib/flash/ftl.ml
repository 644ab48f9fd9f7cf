(* Page-level mapping FTL.

   State per physical page: free (erased), valid (holds a live lpn) or
   invalid (superseded, awaiting GC), unboxed in one int array. Writes go
   to the current "active" block, append-style. When free blocks fall below a low watermark, GC
   picks a victim by greedy benefit (most invalid pages), breaking ties
   toward low erase count for wear leveling, relocates live pages into the
   active stream, and erases the victim. *)

module Metrics = Lastcpu_sim.Metrics

(* Page states: an lpn (>= 0) for a valid page, else one of these. *)
let free = -1
let invalid = -2

type t = {
  nand : Nand.t;
  geo : Nand.geometry;
  logical : int;
  map : int array;  (* lpn -> physical page number, -1 = unmapped *)
  state : int array;  (* ppn -> lpn, [free] or [invalid] *)
  free_in_block : int array;  (* block -> next unprogrammed page index *)
  invalid_in_block : int array;
  mutable active : int;  (* block receiving new writes *)
  free_blocks : int Queue.t;  (* fully erased, not active; oldest first *)
  mutable free_block_count : int;
  m_host_writes : Metrics.counter;
  m_gc_moves : Metrics.counter;
  m_gc_runs : Metrics.counter;
  m_free_blocks : Metrics.gauge;
}

let ppn ~geo ~block ~page = (block * geo.Nand.pages_per_block) + page
let block_of ~geo p = p / geo.Nand.pages_per_block
let page_of ~geo p = p mod geo.Nand.pages_per_block

let create ?nand ?(op_ratio = 0.125) ?metrics ?(actor = "ftl") () =
  let nand = match nand with Some n -> n | None -> Nand.create () in
  let geo = Nand.geometry nand in
  if geo.blocks < 4 then invalid_arg "Ftl.create: need at least 4 blocks";
  let reserve =
    let r = int_of_float (ceil (float_of_int geo.blocks *. op_ratio)) in
    max 2 r
  in
  let logical = (geo.blocks - reserve) * geo.pages_per_block in
  let total_pages = geo.blocks * geo.pages_per_block in
  let free_blocks = Queue.create () in
  for b = 1 to geo.blocks - 1 do
    Queue.add b free_blocks
  done;
  let m = match metrics with Some m -> m | None -> Metrics.create () in
  let t =
    {
      nand;
      geo;
      logical;
      map = Array.make logical (-1);
      state = Array.make total_pages free;
      free_in_block = Array.make geo.blocks 0;
      invalid_in_block = Array.make geo.blocks 0;
      active = 0;
      free_blocks;
      free_block_count = geo.blocks - 1;
      m_host_writes = Metrics.counter m ~actor ~name:"host_writes";
      m_gc_moves = Metrics.counter m ~actor ~name:"gc_moves";
      m_gc_runs = Metrics.counter m ~actor ~name:"gc_runs";
      m_free_blocks = Metrics.gauge m ~actor ~name:"free_blocks";
    }
  in
  Metrics.set t.m_free_blocks (float_of_int t.free_block_count);
  t

let logical_pages t = t.logical
let page_size t = t.geo.page_size
let nand t = t.nand

let check_lpn t lpn =
  if lpn < 0 || lpn >= t.logical then Error "lpn out of range" else Ok ()

let read t ~lpn =
  match check_lpn t lpn with
  | Error _ as e -> e
  | Ok () ->
    let p = t.map.(lpn) in
    if p < 0 then Ok (Nand.zero_page t.nand)
    else
      Nand.read_page t.nand ~block:(block_of ~geo:t.geo p)
        ~page:(page_of ~geo:t.geo p)

let peek t ~lpn =
  let p = t.map.(lpn) in
  if p < 0 then Nand.zero_page t.nand
  else
    Nand.peek_page t.nand ~block:(block_of ~geo:t.geo p)
      ~page:(page_of ~geo:t.geo p)

let take_free_block t =
  match Queue.take_opt t.free_blocks with
  | None -> None
  | Some b ->
    t.free_block_count <- t.free_block_count - 1;
    Metrics.set t.m_free_blocks (float_of_int t.free_block_count);
    Some b

(* Program the next free page of the active block with [program] (a
   partial [Nand.program_*]), advancing to a fresh block when the active
   one fills. Returns the ppn used. *)
let rec append t program =
  let blk = t.active in
  let page = t.free_in_block.(blk) in
  if page >= t.geo.pages_per_block then begin
    match take_free_block t with
    | None -> Error "no free blocks (GC failed to reclaim)"
    | Some b ->
      t.active <- b;
      append t program
  end
  else begin
    match program ~block:blk ~page with
    | Error _ as e -> e
    | Ok () ->
      t.free_in_block.(blk) <- page + 1;
      Ok (ppn ~geo:t.geo ~block:blk ~page)
  end

(* A superseded page is never read again (reads, updates and GC look
   only at pages whose state is an lpn), so its bytes are dropped at once
   and a checkpoint carries only live pages'. *)
let invalidate t p =
  let block = block_of ~geo:t.geo p in
  t.state.(p) <- invalid;
  Nand.discard t.nand ~block ~page:(page_of ~geo:t.geo p);
  t.invalid_in_block.(block) <- t.invalid_in_block.(block) + 1

(* Victim selection: maximize invalid pages; tie-break on lower erase count
   (wear leveling). Only fully-programmed, non-active blocks qualify. *)
let pick_victim t =
  let best = ref None in
  for b = 0 to t.geo.blocks - 1 do
    if b <> t.active && t.free_in_block.(b) = t.geo.pages_per_block then begin
      let inv = t.invalid_in_block.(b) in
      if inv > 0 then begin
        let better =
          match !best with
          | None -> true
          | Some (b', inv') ->
            inv > inv'
            || (inv = inv'
               && Nand.erase_count t.nand ~block:b
                  < Nand.erase_count t.nand ~block:b')
        in
        if better then best := Some (b, inv)
      end
    end
  done;
  Option.map fst !best

let gc_low_watermark = 1

let rec gc t =
  match pick_victim t with
  | None -> Error "gc: no victim with invalid pages"
  | Some victim ->
    Metrics.incr t.m_gc_runs;
    (* Relocate live pages: each is read (the modelled cost), then its
       frame moves to the new page. Each is invalidated as it moves, so a
       GC that fails partway (an injected read failure) leaves the victim
       as a host rewrite would: the moved pages invalid, the rest live. *)
    let rec move page res =
      if page >= t.geo.pages_per_block then res
      else begin
        let p = ppn ~geo:t.geo ~block:victim ~page in
        let lpn = t.state.(p) in
        if lpn < 0 then move (page + 1) res
        else
          match Nand.read_page t.nand ~block:victim ~page with
          | Error e -> Error e
          | Ok _ -> (
            match
              append t
                (Nand.rewrite t.nand ~src_block:victim ~src_page:page
                   (fun _ _ -> ()))
            with
            | Error e -> Error e
            | Ok p' ->
              invalidate t p;
              t.state.(p') <- lpn;
              t.map.(lpn) <- p';
              Metrics.incr t.m_gc_moves;
              move (page + 1) res)
      end
    in
    (match move 0 (Ok ()) with
    | Error _ as e -> e
    | Ok () -> (
      match Nand.erase_block t.nand ~block:victim with
      | Error _ as e -> e
      | Ok () ->
        Array.fill t.state
          (ppn ~geo:t.geo ~block:victim ~page:0)
          t.geo.pages_per_block free;
        t.free_in_block.(victim) <- 0;
        t.invalid_in_block.(victim) <- 0;
        Queue.add victim t.free_blocks;
        t.free_block_count <- t.free_block_count + 1;
        Metrics.set t.m_free_blocks (float_of_int t.free_block_count);
        if t.free_block_count <= gc_low_watermark then gc t else Ok ()))

let ensure_space t =
  if t.free_block_count <= gc_low_watermark then
    match gc t with
    | Ok () -> Ok ()
    | Error _ when t.free_block_count > 0 -> Ok () (* still usable *)
    | Error _ as e -> e
  else Ok ()

(* Program [lpn]'s new page with [program], after any GC: [program] runs
   while [map] still names the page's current location. *)
let store t ~lpn program =
  match ensure_space t with
  | Error _ as e -> e
  | Ok () -> (
    match append t program with
    | Error _ as e -> e
    | Ok p ->
      Metrics.incr t.m_host_writes;
      let old = t.map.(lpn) in
      if old >= 0 then invalidate t old;
      t.map.(lpn) <- p;
      t.state.(p) <- lpn;
      Ok ())

let write t ~lpn data =
  match check_lpn t lpn with
  | Error _ as e -> e
  | Ok () when String.length data > t.geo.page_size ->
    Error "data exceeds page size"
  | Ok () -> store t ~lpn (Nand.program_page t.nand data)

(* The new page takes over the current page's frame ([Nand.rewrite]);
   an unmapped lpn starts from zeroes. *)
let update t ~lpn f =
  match check_lpn t lpn with
  | Error _ as e -> e
  | Ok () ->
    store t ~lpn (fun ~block ~page ->
        let p = t.map.(lpn) in
        if p < 0 then
          Nand.program_with t.nand ~block ~page (fun b off ->
              Bytes.fill b off t.geo.page_size '\000';
              f b off)
        else
          Nand.rewrite t.nand ~block ~page ~src_block:(block_of ~geo:t.geo p)
            ~src_page:(page_of ~geo:t.geo p) f)

let write_zeroes t ~lpn =
  match check_lpn t lpn with
  | Error _ as e -> e
  | Ok () -> store t ~lpn (Nand.program_zeroes t.nand)

let trim t ~lpn =
  match check_lpn t lpn with
  | Error _ -> ()
  | Ok () ->
    let p = t.map.(lpn) in
    if p >= 0 then begin
      invalidate t p;
      t.map.(lpn) <- -1
    end

let gc_runs t = Metrics.counter_value t.m_gc_runs
let moved_pages t = Metrics.counter_value t.m_gc_moves
let host_writes t = Metrics.counter_value t.m_host_writes

let write_amplification t =
  let hw = host_writes t in
  if hw = 0 then 1.0 else float_of_int (hw + moved_pages t) /. float_of_int hw

(* Checkpointing: the full translation state — mapping table, per-page
   states, per-block fill/invalid counts, the active block and the free
   list (order matters: blocks are taken from the head and GC appends to
   the tail, so wear leveling depends on it). The NAND underneath is saved
   by its owner, not here. *)
module Snapshot = Lastcpu_sim.Snapshot

(* [map] and [state] hold one entry per page, so they are coded in plain
   loops: no closure call per entry. *)
let save w t =
  Snapshot.W.varint w t.logical;
  Snapshot.W.varint w (Array.length t.map);
  for lpn = 0 to Array.length t.map - 1 do
    Snapshot.W.vint w t.map.(lpn)
  done;
  Snapshot.W.varint w (Array.length t.state);
  for p = 0 to Array.length t.state - 1 do
    let s = t.state.(p) in
    if s >= 0 then begin
      Snapshot.W.byte w 1;
      Snapshot.W.varint w s
    end
    else Snapshot.W.byte w (if s = free then 0 else 2)
  done;
  Snapshot.W.array w Snapshot.W.varint t.free_in_block;
  Snapshot.W.array w Snapshot.W.varint t.invalid_in_block;
  Snapshot.W.varint w t.active;
  Snapshot.W.list w Snapshot.W.varint (List.of_seq (Queue.to_seq t.free_blocks));
  Snapshot.W.varint w t.free_block_count

(* Decode and validate the whole section before touching [t]: every index
   a later write or GC subscripts with is checked here, so a hostile
   section is [Corrupt] at restore, never an exception inside an engine
   event, and a rejected one leaves the translation state as it was. *)
let restore r t =
  let logical = Snapshot.R.varint r in
  if logical <> t.logical then
    invalid_arg "Ftl.restore: logical size differs from checkpoint";
  let corrupt m = raise (Snapshot.R.Corrupt ("ftl " ^ m)) in
  let total_pages = Array.length t.state in
  let ppb = t.geo.pages_per_block in
  (* An array's count must be [n]; checked before its entries are read. *)
  let expect n name =
    if Snapshot.R.varint r <> n then corrupt (name ^ " length mismatch")
  in
  expect logical "map";
  let map = Array.make logical (-1) in
  for lpn = 0 to logical - 1 do
    map.(lpn) <- Snapshot.R.vint r
  done;
  expect total_pages "state";
  let state = Array.make total_pages free in
  for p = 0 to total_pages - 1 do
    match Snapshot.R.byte r with
    | 0 -> ()
    | 1 ->
      let lpn = Snapshot.R.varint r in
      if lpn < 0 then corrupt "negative lpn";
      state.(p) <- lpn
    | 2 -> state.(p) <- invalid
    | _ -> corrupt "bad page state tag"
  done;
  let per_block name =
    expect t.geo.blocks name;
    let a = Array.init t.geo.blocks (fun _ -> Snapshot.R.varint r) in
    if Array.exists (fun n -> n < 0 || n > ppb) a then
      corrupt (name ^ " count out of range");
    a
  in
  let free_in_block = per_block "free_in_block" in
  let invalid_in_block = per_block "invalid_in_block" in
  let active = Snapshot.R.varint r in
  let free_blocks = Snapshot.R.list r Snapshot.R.varint in
  let free_block_count = Snapshot.R.varint r in
  for lpn = 0 to logical - 1 do
    let p = map.(lpn) in
    if p < -1 || p >= total_pages then corrupt "map entry out of range"
  done;
  for p = 0 to total_pages - 1 do
    let lpn = state.(p) in
    if lpn >= 0 && (lpn >= logical || map.(lpn) <> p) then
      corrupt "valid page disagrees with map"
  done;
  for lpn = 0 to logical - 1 do
    let p = map.(lpn) in
    if p >= 0 && state.(p) <> lpn then corrupt "map disagrees with page state"
  done;
  let seen = Array.make t.geo.blocks false in
  List.iter
    (fun b ->
      if b < 0 || b >= t.geo.blocks || seen.(b) then
        corrupt "active or free block out of range or repeated";
      seen.(b) <- true)
    (active :: free_blocks);
  if free_block_count <> List.length free_blocks then
    corrupt "free block count disagrees with free list";
  Array.blit map 0 t.map 0 logical;
  Array.blit state 0 t.state 0 total_pages;
  Array.blit free_in_block 0 t.free_in_block 0 t.geo.blocks;
  Array.blit invalid_in_block 0 t.invalid_in_block 0 t.geo.blocks;
  t.active <- active;
  Queue.clear t.free_blocks;
  List.iter (fun b -> Queue.add b t.free_blocks) free_blocks;
  t.free_block_count <- free_block_count;
  Metrics.set t.m_free_blocks (float_of_int t.free_block_count)

let max_erase_skew t =
  let mn = ref max_int and mx = ref 0 in
  for b = 0 to t.geo.blocks - 1 do
    let e = Nand.erase_count t.nand ~block:b in
    if e < !mn then mn := e;
    if e > !mx then mx := e
  done;
  !mx - !mn
