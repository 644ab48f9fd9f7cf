module Iommu = Lastcpu_iommu.Iommu
module Physmem = Lastcpu_mem.Physmem
module Layout = Lastcpu_mem.Layout

exception Dma_fault of Iommu.fault

(* A direct-map grant: the DRAM view for one (va, len, access) range,
   kept until the IOMMU tells us the underlying mapping changed. Host-side
   cache only — the modeled translation accounting is replayed on every
   access (see [map_single]), so hits and invalidations never move a
   digest. *)
type grant = { base_pa : int64; gview : Physmem.view }

type t = {
  iommu : Iommu.t;
  pasid : int;
  mem : Physmem.t;
  grants : (int64 * int * int, grant) Hashtbl.t;  (* va, len, access tag *)
  mutable dmi_hits : int;
  mutable dmi_invalidations : int;
}

let create ~iommu ~pasid ~mem =
  let t =
    {
      iommu;
      pasid;
      mem;
      grants = Hashtbl.create 16;
      dmi_hits = 0;
      dmi_invalidations = 0;
    }
  in
  Iommu.on_invalidate iommu (fun ~pasid ->
      if pasid = t.pasid && Hashtbl.length t.grants > 0 then begin
        t.dmi_invalidations <- t.dmi_invalidations + Hashtbl.length t.grants;
        Hashtbl.reset t.grants
      end);
  t

let pasid t = t.pasid

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

(* The copy path and grants translate once per page segment. *)
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

let read_u8 t va = read_field t (Int64.to_int va) 1
let write_u8 t va v = write_field t (Int64.to_int va) 1 v
let read_u16 t va = read_field t (Int64.to_int va) 2
let write_u16 t va v = write_field t (Int64.to_int va) 2 v
let read_u32 t va = read_field t (Int64.to_int va) 4
let write_u32 t va v = write_field t (Int64.to_int va) 4 v
let read_u64 t va = read_field64 t (Int64.to_int va)
let write_u64 t va v = write_field64 t (Int64.to_int va) v

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

let read_into t va out ~pos ~len =
  let rec go va dst_off remaining =
    if remaining > 0 then begin
      let off = Layout.offset_in_page va in
      let chunk = min remaining (Int64.to_int Layout.page_size - off) in
      let pa = translate t va Iommu.Read in
      Physmem.read_into t.mem pa out ~pos:dst_off ~len:chunk;
      go (Int64.add va (Int64.of_int chunk)) (dst_off + chunk) (remaining - chunk)
    end
  in
  go va pos len

let read_bytes t va len =
  let out = Bytes.create len in
  read_into t va out ~pos:0 ~len;
  Bytes.unsafe_to_string out

let write_string_sub t va s ~pos ~len =
  let rec go va src_off remaining =
    if remaining > 0 then begin
      let off = Layout.offset_in_page va in
      let chunk = min remaining (Int64.to_int Layout.page_size - off) in
      let pa = translate t va Iommu.Write in
      Physmem.write_string_sub t.mem pa s ~pos:src_off ~len:chunk;
      go (Int64.add va (Int64.of_int chunk)) (src_off + chunk) (remaining - chunk)
    end
  in
  go va pos len

let write_bytes t va s = write_string_sub t va s ~pos:0 ~len:(String.length s)

let write_bytes_sub t va b ~pos ~len =
  let rec go va src_off remaining =
    if remaining > 0 then begin
      let off = Layout.offset_in_page va in
      let chunk = min remaining (Int64.to_int Layout.page_size - off) in
      let pa = translate t va Iommu.Write in
      Physmem.write_bytes_sub t.mem pa b ~pos:src_off ~len:chunk;
      go (Int64.add va (Int64.of_int chunk)) (src_off + chunk) (remaining - chunk)
    end
  in
  go va pos len

(* --- DMI fast path ----------------------------------------------------- *)

let access_tag = function Iommu.Read -> 0 | Iommu.Write -> 1 | Iommu.Exec -> 2

(* The zero-copy contract (DESIGN.md §14): when [va, va+len) lies inside
   one IOMMU page the probe is exactly the one translation the copying
   path ([read_bytes] / [write_bytes]) would spend — IOMMU and TLB
   counters are registry state folded into the golden digests, so the
   fast path must change host time only, never modeled behaviour — and it
   cannot fail halfway (a page always sits inside one backing chunk).
   Multi-page ranges return None without touching the IOMMU, leaving the
   caller's copy path as the only translation pass. What a grant hit
   skips is the host-side view reconstruction; what the view itself
   eliminates is the string round-trip on either side. On a fault the
   usual [Dma_fault] escapes, precisely as the copying path would have
   faulted. *)
let map_single t ~va ~len ~perm =
  if len <= 0 || Layout.offset_in_page va + len > page_bytes then None
  else begin
    let pa = translate t va perm in
    let key = (va, len, access_tag perm) in
    match Hashtbl.find_opt t.grants key with
    | Some g when g.base_pa = pa ->
      t.dmi_hits <- t.dmi_hits + 1;
      Some g.gview
    | _ -> (
      match Physmem.view t.mem pa len with
      | exception Invalid_argument _ -> None (* caller takes the copy path *)
      | gview ->
        Hashtbl.replace t.grants key { base_pa = pa; gview };
        Some gview)
  end

let dmi_hits t = t.dmi_hits
let dmi_invalidations t = t.dmi_invalidations
