module Layout = Lastcpu_mem.Layout
module Snapshot = Lastcpu_sim.Snapshot

type prot = Proto_perm.t

(* Radix tree: three interior levels of 512-entry arrays, then a leaf level
   whose entries carry (pa, perm). Interior nodes are allocated lazily. *)
type leaf = { pa : int64; perm : prot }

type node =
  | Interior of node option array  (* 512 entries *)
  | Leaves of leaf option array  (* 512 entries *)

type t = { mutable root : node option array; mutable mapped : int }

let fanout = 512
let bits_per_level = 9
let levels = 4
let va_bits = Layout.page_bits + (levels * bits_per_level) (* 48 *)
let va_limit = Int64.shift_left 1L va_bits

type walk_result =
  | Translated of { pa : int64; levels : int; perm : prot }
  | No_mapping of { level : int }
  | Permission_denied of { perm : prot }

let create () = { root = Array.make fanout None; mapped = 0 }

let index va level =
  (* level 0 is the root, level 3 selects the leaf entry. *)
  let shift = Layout.page_bits + ((levels - 1 - level) * bits_per_level) in
  Int64.to_int (Int64.logand (Int64.shift_right_logical va shift) 0x1ffL)

let valid_va va = va >= 0L && va < va_limit

let map t ~va ~pa ~perm =
  if not (Layout.is_page_aligned va) then Error "va not page-aligned"
  else if not (Layout.is_page_aligned pa) then Error "pa not page-aligned"
  else if not (valid_va va) then Error "va out of range"
  else begin
    let get_interior arr i =
      match arr.(i) with
      | Some (Interior a) -> a
      | Some (Leaves _) -> assert false
      | None ->
        let a = Array.make fanout None in
        arr.(i) <- Some (Interior a);
        a
    in
    let l1 = get_interior t.root (index va 0) in
    let l2 = get_interior l1 (index va 1) in
    let leaves =
      match l2.(index va 2) with
      | Some (Leaves a) -> a
      | Some (Interior _) -> assert false
      | None ->
        let a = Array.make fanout None in
        l2.(index va 2) <- Some (Leaves a);
        a
    in
    let i = index va 3 in
    match leaves.(i) with
    | Some _ -> Error "already mapped"
    | None ->
      leaves.(i) <- Some { pa; perm };
      t.mapped <- t.mapped + 1;
      Ok ()
  end

let unmap t ~va =
  if not (Layout.is_page_aligned va) || not (valid_va va) then false
  else begin
    let step arr i =
      match arr.(i) with
      | Some (Interior a) -> Some a
      | Some (Leaves _) | None -> None
    in
    match step t.root (index va 0) with
    | None -> false
    | Some l1 -> (
      match step l1 (index va 1) with
      | None -> false
      | Some l2 -> (
        match l2.(index va 2) with
        | Some (Leaves leaves) -> (
          let i = index va 3 in
          match leaves.(i) with
          | Some _ ->
            leaves.(i) <- None;
            t.mapped <- t.mapped - 1;
            true
          | None -> false)
        | Some (Interior _) | None -> false))
  end

let walk t ~va ~access =
  if not (valid_va va) then No_mapping { level = 0 }
  else begin
    let va_page = Layout.align_down va in
    let step arr i level =
      match arr.(i) with
      | Some (Interior a) -> Ok a
      | Some (Leaves _) -> assert false
      | None -> Error level
    in
    match step t.root (index va_page 0) 1 with
    | Error level -> No_mapping { level }
    | Ok l1 -> (
      match step l1 (index va_page 1) 2 with
      | Error level -> No_mapping { level }
      | Ok l2 -> (
        match l2.(index va_page 2) with
        | None -> No_mapping { level = 3 }
        | Some (Interior _) -> assert false
        | Some (Leaves leaves) -> (
          match leaves.(index va_page 3) with
          | None -> No_mapping { level = 4 }
          | Some { pa; perm } ->
            if Proto_perm.subsumes perm access then
              let off = Int64.of_int (Layout.offset_in_page va) in
              Translated { pa = Int64.add pa off; levels; perm }
            else Permission_denied { perm })))
  end

let map_range t ~va ~pa ~bytes ~perm =
  if bytes <= 0L then Error "empty range"
  else begin
    let npages = Layout.pages_of_bytes bytes in
    (* Pre-check so the operation is all-or-nothing. *)
    let rec precheck i =
      if i = npages then Ok ()
      else begin
        let off = Layout.addr_of_page (Int64.of_int i) in
        let va_i = Int64.add va off in
        if not (valid_va va_i) then Error "va out of range"
        else
          match walk t ~va:va_i ~access:Lastcpu_proto.Types.perm_none with
          | No_mapping _ -> precheck (i + 1)
          | Translated _ | Permission_denied _ -> Error "already mapped"
      end
    in
    if not (Layout.is_page_aligned va) then Error "va not page-aligned"
    else if not (Layout.is_page_aligned pa) then Error "pa not page-aligned"
    else
      match precheck 0 with
      | Error _ as e -> e
      | Ok () ->
        for i = 0 to npages - 1 do
          let off = Layout.addr_of_page (Int64.of_int i) in
          match map t ~va:(Int64.add va off) ~pa:(Int64.add pa off) ~perm with
          | Ok () -> ()
          | Error _ -> assert false (* prechecked *)
        done;
        Ok ()
  end

let unmap_range t ~va ~bytes =
  let npages = Layout.pages_of_bytes bytes in
  let count = ref 0 in
  for i = 0 to npages - 1 do
    let off = Layout.addr_of_page (Int64.of_int i) in
    if unmap t ~va:(Int64.add va off) then incr count
  done;
  !count

let mapped_pages t = t.mapped

let reset t =
  t.root <- Array.make fanout None;
  t.mapped <- 0

let iter t f =
  let visit_leaves base3 leaves =
    Array.iteri
      (fun i entry ->
        match entry with
        | None -> ()
        | Some { pa; perm } ->
          let va =
            Int64.logor base3 (Int64.shift_left (Int64.of_int i) Layout.page_bits)
          in
          f ~va ~pa ~perm)
      leaves
  in
  let shift level = Layout.page_bits + ((levels - 1 - level) * bits_per_level) in
  Array.iteri
    (fun i0 n0 ->
      match n0 with
      | None -> ()
      | Some (Leaves _) -> assert false
      | Some (Interior l1) ->
        let b0 = Int64.shift_left (Int64.of_int i0) (shift 0) in
        Array.iteri
          (fun i1 n1 ->
            match n1 with
            | None -> ()
            | Some (Leaves _) -> assert false
            | Some (Interior l2) ->
              let b1 =
                Int64.logor b0 (Int64.shift_left (Int64.of_int i1) (shift 1))
              in
              Array.iteri
                (fun i2 n2 ->
                  match n2 with
                  | None -> ()
                  | Some (Interior _) -> assert false
                  | Some (Leaves leaves) ->
                    let b2 =
                      Int64.logor b1
                        (Int64.shift_left (Int64.of_int i2) (shift 2))
                    in
                    visit_leaves b2 leaves)
                l2)
          l1)
    t.root

(* Checkpointing: the radix structure is derivable from the leaf mappings,
   so the encoding is just the (va, pa, perm) list — [iter] visits leaves
   in ascending va order, which keeps the bytes deterministic. [mapped]
   counts the leaves, so the list is written as it is walked, and an empty
   table is not walked at all. *)
let save w t =
  Snapshot.W.varint w t.mapped;
  if t.mapped > 0 then
    iter t (fun ~va ~pa ~perm ->
        Snapshot.W.int64 w va;
        Snapshot.W.int64 w pa;
        Snapshot.W.byte w (Proto_perm.to_bits perm))

let restore r t =
  reset t;
  let n = Snapshot.R.varint r in
  for _ = 1 to n do
    let va = Snapshot.R.int64 r in
    let pa = Snapshot.R.int64 r in
    let perm = Proto_perm.of_bits (Snapshot.R.byte r) in
    match map t ~va ~pa ~perm with
    | Ok () -> ()
    | Error e -> raise (Snapshot.R.Corrupt ("pagetable entry rejected: " ^ e))
  done
