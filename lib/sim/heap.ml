(* Binary min-heap over (priority, seq) keys stored in a growable array.
   The [seq] counter guarantees FIFO order among equal priorities, which in
   turn makes the simulation engine deterministic.

   The tie-break among equal priorities is pluggable so the ordering
   sanitizer can perturb it: [Fifo] (the contract), [Lifo] (reverses every
   tie — guarantees any colliding pair swaps), and [Salted] (a seed-keyed
   pseudo-random permutation of ties). All three are total orders, so every
   mode is itself deterministic.

   Hot-path notes. Slots are a variant so vacated positions can be reset to
   the immediate [Empty] — [pop] must not retain the popped entry (and the
   closure it carries) in [data.(size)], and [grow] must not seed fresh
   capacity with a live entry. In the default [Fifo] mode the tie key is
   the shared constant [0L] (comparison falls through equal keys to the
   [seq] compare, which IS insertion order), so a push allocates exactly
   one block: the entry itself. *)

type tie_break = Fifo | Lifo | Salted of int64

type 'a slot =
  | Empty
  | Entry of { prio : int64; seq : int; key : int64; value : 'a }

type 'a t = {
  mutable data : 'a slot array;
  mutable size : int;
  mutable next_seq : int;
  tie : tie_break;
}

let tie_key tie seq =
  match tie with
  | Fifo -> 0L (* constant: no per-push Int64 boxing; seq breaks the tie *)
  | Lifo -> Int64.neg (Int64.of_int seq)
  | Salted salt -> Sanitizer.mix64 (Int64.logxor salt (Int64.of_int seq))

let create ?(tie = Fifo) () = { data = [||]; size = 0; next_seq = 0; tie }

let length h = h.size

let is_empty h = h.size = 0

let lt a b =
  match (a, b) with
  | ( Entry { prio = ap; seq = asq; key = ak; _ },
      Entry { prio = bp; seq = bsq; key = bk; _ } ) -> (
    match Int64.compare ap bp with
    | 0 -> (
      match Int64.compare ak bk with
      | 0 -> asq < bsq (* salted collisions still order totally *)
      | c -> c < 0)
    | c -> c < 0)
  | (Empty, _ | _, Empty) -> invalid_arg "Heap: comparing an empty slot"

let grow h =
  let capacity = Array.length h.data in
  if h.size = capacity then begin
    let new_capacity = if capacity = 0 then 16 else capacity * 2 in
    let data = Array.make new_capacity Empty in
    Array.blit h.data 0 data 0 h.size;
    h.data <- data
  end

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if lt h.data.(i) h.data.(parent) then begin
      let tmp = h.data.(i) in
      h.data.(i) <- h.data.(parent);
      h.data.(parent) <- tmp;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let smallest = if left < h.size && lt h.data.(left) h.data.(i) then left else i in
  let smallest =
    if right < h.size && lt h.data.(right) h.data.(smallest) then right
    else smallest
  in
  if smallest <> i then begin
    let tmp = h.data.(i) in
    h.data.(i) <- h.data.(smallest);
    h.data.(smallest) <- tmp;
    sift_down h smallest
  end

let push h ~priority value =
  let seq = h.next_seq in
  h.next_seq <- h.next_seq + 1;
  grow h;
  h.data.(h.size) <- Entry { prio = priority; seq; key = tie_key h.tie seq; value };
  h.size <- h.size + 1;
  sift_up h (h.size - 1)

let peek h =
  if h.size = 0 then None
  else
    match h.data.(0) with
    | Entry { prio; value; _ } -> Some (prio, value)
    | Empty -> assert false

let top_prio h =
  if h.size = 0 then invalid_arg "Heap.top_prio: empty heap"
  else match h.data.(0) with
    | Entry { prio; _ } -> prio
    | Empty -> assert false

(* Shared removal: vacate the root, clear the freed tail slot so the popped
   entry (and its closure) is not retained, and restore the heap shape. *)
let remove_top h =
  h.size <- h.size - 1;
  if h.size > 0 then begin
    h.data.(0) <- h.data.(h.size);
    h.data.(h.size) <- Empty;
    sift_down h 0
  end
  else h.data.(0) <- Empty

let pop h =
  if h.size = 0 then None
  else
    match h.data.(0) with
    | Entry { prio; value; _ } ->
      remove_top h;
      Some (prio, value)
    | Empty -> assert false

let pop_top h =
  if h.size = 0 then invalid_arg "Heap.pop_top: empty heap"
  else
    match h.data.(0) with
    | Entry { value; _ } ->
      remove_top h;
      value
    | Empty -> assert false

let clear h =
  h.data <- [||];
  h.size <- 0

let to_sorted_list h =
  let rec drain acc =
    match pop h with
    | None -> List.rev acc
    | Some x -> drain (x :: acc)
  in
  drain []
