(* Power-of-two buddy allocator. Orders index free lists: order k holds
   blocks of 2^k pages. Free blocks are kept in per-order hash sets keyed by
   page index so buddy lookup and removal are O(1). *)

type t = {
  base : int64;
  pages : int;
  max_order : int;
  free_sets : (int, unit) Hashtbl.t array;  (* order -> page-index set *)
  mutable free_count : int;
  (* Allocated block sizes, so [free] can validate and so invariants are
     checkable: page index -> order. *)
  allocated : (int, int) Hashtbl.t;
}

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let order_of_pages pages =
  assert (pages > 0);
  let rec go order size = if size >= pages then order else go (order + 1) (size * 2) in
  go 0 1

let create ~base ~pages =
  if not (is_power_of_two pages) then
    invalid_arg "Buddy.create: pages must be a power of two";
  if not (Layout.is_page_aligned base) then
    invalid_arg "Buddy.create: base must be page-aligned";
  let max_order = order_of_pages pages in
  let free_sets = Array.init (max_order + 1) (fun _ -> Hashtbl.create 16) in
  Hashtbl.replace free_sets.(max_order) 0 ();
  {
    base;
    pages;
    max_order;
    free_sets;
    free_count = pages;
    allocated = Hashtbl.create 64;
  }

(* Take the lowest-indexed free block, not an arbitrary one: hash order
   would make the address returned by [alloc] depend on Hashtbl internals
   rather than on the request sequence alone. Lowest-first also packs
   allocations toward the base, which is the conventional policy. *)
let take_any tbl =
  match Lastcpu_sim.Detmap.min_key tbl with
  | None -> None
  | Some k ->
    Hashtbl.remove tbl k;
    Some k

let alloc t ~pages =
  if pages <= 0 || pages > t.pages then None
  else begin
    let want = order_of_pages pages in
    (* Find the smallest order >= want with a free block. *)
    let rec find order =
      if order > t.max_order then None
      else
        match take_any t.free_sets.(order) with
        | Some idx -> Some (order, idx)
        | None -> find (order + 1)
    in
    match find want with
    | None -> None
    | Some (order, idx) ->
      (* Split down to the wanted order, freeing the upper halves. *)
      let rec split order idx =
        if order = want then idx
        else begin
          let order = order - 1 in
          let buddy = idx + (1 lsl order) in
          Hashtbl.replace t.free_sets.(order) buddy ();
          split order idx
        end
      in
      let idx = split order idx in
      Hashtbl.replace t.allocated idx want;
      t.free_count <- t.free_count - (1 lsl want);
      Some (Int64.add t.base (Layout.addr_of_page (Int64.of_int idx)))
  end

let free t ~addr ~pages =
  let rel = Int64.sub addr t.base in
  if rel < 0L || not (Layout.is_page_aligned rel) then
    invalid_arg "Buddy.free: bad address";
  let idx = Int64.to_int (Layout.page_of_addr rel) in
  let want = order_of_pages pages in
  (match Hashtbl.find_opt t.allocated idx with
  | None -> invalid_arg "Buddy.free: not allocated (double free?)"
  | Some order when order <> want ->
    invalid_arg "Buddy.free: size mismatch with allocation"
  | Some _ -> ());
  Hashtbl.remove t.allocated idx;
  t.free_count <- t.free_count + (1 lsl want);
  (* Coalesce with the buddy while it is free. *)
  let rec coalesce order idx =
    if order >= t.max_order then Hashtbl.replace t.free_sets.(order) idx ()
    else begin
      let buddy = idx lxor (1 lsl order) in
      if Hashtbl.mem t.free_sets.(order) buddy then begin
        Hashtbl.remove t.free_sets.(order) buddy;
        coalesce (order + 1) (min idx buddy)
      end
      else Hashtbl.replace t.free_sets.(order) idx ()
    end
  in
  coalesce want idx

let free_pages t = t.free_count
let used_pages t = t.pages - t.free_count

let largest_free_block t =
  let rec go order =
    if order < 0 then 0
    else if Hashtbl.length t.free_sets.(order) > 0 then 1 lsl order
    else go (order - 1)
  in
  go t.max_order

(* Checkpointing: per-order free sets plus the allocated-block table.
   Geometry (base, pages) is structural — the rebuilt allocator must match
   or the saved block indices are meaningless. *)
module Snapshot = Lastcpu_sim.Snapshot

let save w t =
  Snapshot.W.int64 w t.base;
  Snapshot.W.varint w t.pages;
  Array.iter
    (fun set ->
      Snapshot.W.list w
        (fun w idx -> Snapshot.W.varint w idx)
        (Lastcpu_sim.Detmap.sorted_keys set))
    t.free_sets;
  Snapshot.W.varint w t.free_count;
  Snapshot.W.list w
    (fun w (idx, order) ->
      Snapshot.W.varint w idx;
      Snapshot.W.varint w order)
    (Lastcpu_sim.Detmap.bindings t.allocated)

let restore r t =
  let base = Snapshot.R.int64 r in
  let pages = Snapshot.R.varint r in
  if base <> t.base || pages <> t.pages then
    invalid_arg "Buddy.restore: geometry differs from checkpoint";
  Array.iter
    (fun set ->
      Hashtbl.reset set;
      let n = Snapshot.R.varint r in
      for _ = 1 to n do
        Hashtbl.replace set (Snapshot.R.varint r) ()
      done)
    t.free_sets;
  t.free_count <- Snapshot.R.varint r;
  Hashtbl.reset t.allocated;
  let n = Snapshot.R.varint r in
  for _ = 1 to n do
    let idx = Snapshot.R.varint r in
    let order = Snapshot.R.varint r in
    Hashtbl.replace t.allocated idx order
  done

let check_invariants t =
  (* Sum of free-list block sizes equals free_count, blocks are in range
     and properly aligned, and no free block overlaps an allocated one. *)
  let sum = ref 0 in
  let ok = ref true in
  Array.iteri
    (fun order set ->
      Lastcpu_sim.Detmap.iter_sorted
        (fun idx () ->
          let size = 1 lsl order in
          sum := !sum + size;
          if idx mod size <> 0 || idx + size > t.pages then ok := false;
          if Hashtbl.mem t.allocated idx then ok := false)
        set)
    t.free_sets;
  let allocated_sum =
    Lastcpu_sim.Detmap.fold_sorted
      (fun _ order acc -> acc + (1 lsl order))
      t.allocated 0
  in
  !ok && !sum = t.free_count && allocated_sum = t.pages - t.free_count
