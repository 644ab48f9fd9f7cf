module Iommu = Lastcpu_iommu.Iommu
module Physmem = Lastcpu_mem.Physmem
module Layout = Lastcpu_mem.Layout

exception Dma_fault of Iommu.fault

type t = { iommu : Iommu.t; pasid : int; mem : Physmem.t }

let create ~iommu ~pasid ~mem = { iommu; pasid; mem }

(* Ring transactions. A descriptor, a used-ring element or one ring field
   is one DMA transaction: one [Iommu.translate_run] per page segment,
   accounted as one translation per byte, then one native-int Physmem
   access per field. Addresses stay native ints end to end, so nothing is
   boxed; simulated VAs are far below 2^62, so the round trips are exact. *)
let page_mask = Int64.to_int Layout.page_mask
let page_bytes = page_mask + 1

let run t vai n access =
  let pa = Iommu.translate_run t.iommu ~pasid:t.pasid ~vai ~n ~access in
  if pa >= 0 then pa else raise (Dma_fault (Iommu.last_fault t.iommu))

(* The copy path and [map_single] translate once per page segment. *)
let translate t va access = Int64.of_int (run t (Int64.to_int va) 1 access)
let in_one_page vai n = (vai land page_mask) + n <= page_bytes

(* A transaction that crosses a page: each page segment is its own run, in
   address order, through a small buffer. A fault on the second page
   leaves the first page's bytes written, as the bytes in order would. *)
let read_split t vai n =
  let buf = Bytes.create n in
  let first = page_bytes - (vai land page_mask) in
  let pa = run t vai first Iommu.Read in
  Physmem.read_into t.mem (Int64.of_int pa) buf ~pos:0 ~len:first;
  let pa = run t (vai + first) (n - first) Iommu.Read in
  Physmem.read_into t.mem (Int64.of_int pa) buf ~pos:first ~len:(n - first);
  buf

let write_split t vai buf =
  let n = Bytes.length buf in
  let first = page_bytes - (vai land page_mask) in
  let pa = run t vai first Iommu.Write in
  Physmem.write_bytes_sub t.mem (Int64.of_int pa) buf ~pos:0 ~len:first;
  let pa = run t (vai + first) (n - first) Iommu.Write in
  Physmem.write_bytes_sub t.mem (Int64.of_int pa) buf ~pos:first ~len:(n - first)

let get_field buf off n =
  match n with
  | 1 -> Bytes.get_uint8 buf off
  | 2 -> Bytes.get_uint16_le buf off
  | _ -> Int32.to_int (Bytes.get_int32_le buf off) land 0xffff_ffff

let set_field buf off n v =
  match n with
  | 1 -> Bytes.set_uint8 buf off (v land 0xff)
  | 2 -> Bytes.set_uint16_le buf off (v land 0xffff)
  | _ -> Bytes.set_int32_le buf off (Int32.of_int v)

let read_field t vai n =
  if in_one_page vai n then Physmem.read_field t.mem (run t vai n Iommu.Read) n
  else get_field (read_split t vai n) 0 n

let write_field t vai n v =
  if in_one_page vai n then
    Physmem.write_field t.mem (run t vai n Iommu.Write) n v
  else begin
    let buf = Bytes.create n in
    set_field buf 0 n v;
    write_split t vai buf
  end

let read_field64 t vai =
  if in_one_page vai 8 then Physmem.read_field64 t.mem (run t vai 8 Iommu.Read)
  else Bytes.get_int64_le (read_split t vai 8) 0

let write_field64 t vai v =
  if in_one_page vai 8 then
    Physmem.write_field64 t.mem (run t vai 8 Iommu.Write) v
  else begin
    let buf = Bytes.create 8 in
    Bytes.set_int64_le buf 0 v;
    write_split t vai buf
  end

(* Composite transactions. One that crosses a page is done field by
   field: the same bytes in the same order, so the same accounting and
   the same partial write on a fault. *)

(* Descriptor: addr u64 | len u32 | flags u16 | next u16. *)
let read_desc t vai =
  if in_one_page vai 16 then begin
    let pa = run t vai 16 Iommu.Read in
    ( Physmem.read_field64 t.mem pa,
      Physmem.read_field t.mem (pa + 8) 4,
      Physmem.read_field t.mem (pa + 12) 2,
      Physmem.read_field t.mem (pa + 14) 2 )
  end
  else begin
    let addr = read_field64 t vai in
    let len = read_field t (vai + 8) 4 in
    let flags = read_field t (vai + 12) 2 in
    (addr, len, flags, read_field t (vai + 14) 2)
  end

let write_desc t vai ~addr ~len ~flags ~next =
  if in_one_page vai 16 then begin
    let pa = run t vai 16 Iommu.Write in
    Physmem.write_field64 t.mem pa addr;
    Physmem.write_field t.mem (pa + 8) 4 len;
    Physmem.write_field t.mem (pa + 12) 2 flags;
    Physmem.write_field t.mem (pa + 14) 2 next
  end
  else begin
    write_field64 t vai addr;
    write_field t (vai + 8) 4 len;
    write_field t (vai + 12) 2 flags;
    write_field t (vai + 14) 2 next
  end

let read_pair32 t vai =
  if in_one_page vai 8 then begin
    let pa = run t vai 8 Iommu.Read in
    (Physmem.read_field t.mem pa 4, Physmem.read_field t.mem (pa + 4) 4)
  end
  else begin
    let a = read_field t vai 4 in
    (a, read_field t (vai + 4) 4)
  end

let write_pair32 t vai a b =
  if in_one_page vai 8 then begin
    let pa = run t vai 8 Iommu.Write in
    Physmem.write_field t.mem pa 4 a;
    Physmem.write_field t.mem (pa + 4) 4 b
  end
  else begin
    write_field t vai 4 a;
    write_field t (vai + 4) 4 b
  end

(* The copy path: one translation per page segment. *)
let read_bytes t va len =
  let out = Bytes.create len in
  let rec go va pos =
    if pos < len then begin
      let n = min (len - pos) (page_bytes - Layout.offset_in_page va) in
      Physmem.read_into t.mem (translate t va Iommu.Read) out ~pos ~len:n;
      go (Int64.add va (Int64.of_int n)) (pos + n)
    end
  in
  go va 0;
  Bytes.unsafe_to_string out

let write_bytes t va s =
  let len = String.length s in
  let rec go va pos =
    if pos < len then begin
      let n = min (len - pos) (page_bytes - Layout.offset_in_page va) in
      Physmem.write_string_sub t.mem (translate t va Iommu.Write) s ~pos ~len:n;
      go (Int64.add va (Int64.of_int n)) (pos + n)
    end
  in
  go va 0

(* The zero-copy path (DESIGN.md §14): when [va, va+len) lies inside one
   IOMMU page, the one translation the copy path would spend on it, then a
   view straight onto the DRAM behind it. A page always sits inside one
   backing chunk, so the view cannot fail halfway. Multi-page ranges
   return None without touching the IOMMU, leaving the caller's copy path
   as the only translation pass. On a fault the usual [Dma_fault] escapes,
   precisely as the copy path would have faulted. The view is built per
   call, so it always sits on the chunk DRAM holds now. *)
let map_single t ~va ~len ~perm =
  if len <= 0 || Layout.offset_in_page va + len > page_bytes then None
  else
    match Physmem.view t.mem (translate t va perm) len with
    | v -> Some v
    | exception Invalid_argument _ -> None (* caller takes the copy path *)
