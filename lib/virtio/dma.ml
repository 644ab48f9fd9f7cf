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

let translate t va access =
  match Iommu.translate t.iommu ~pasid:t.pasid ~va ~access with
  | Iommu.Ok_pa pa -> pa
  | Iommu.Fault f -> raise (Dma_fault f)

(* Per-byte accessors stay on native ints end to end (address translation
   included): descriptor and ring traffic funnels through here one byte
   at a time, and boxing an Int64 per byte would dominate the simulation.
   Simulated VAs are far below 2^62, so the round trips are exact. *)
let translate_i t vai access =
  let pa = Iommu.translate_pa t.iommu ~pasid:t.pasid ~vai ~access in
  if pa >= 0 then pa else raise (Dma_fault (Iommu.last_fault t.iommu))

let read_byte t vai = Physmem.read_byte t.mem (translate_i t vai Iommu.Read)

let write_byte t vai v =
  Physmem.write_byte t.mem (translate_i t vai Iommu.Write) v

let read_u8 t va = read_byte t (Int64.to_int va)
let write_u8 t va v = write_byte t (Int64.to_int va) v

let read_uint t va n =
  let vai = Int64.to_int va in
  let v = ref 0 in
  for i = 0 to n - 1 do
    v := !v lor (read_byte t (vai + i) lsl (i * 8))
  done;
  !v

let write_uint t va n v =
  let vai = Int64.to_int va in
  for i = 0 to n - 1 do
    write_byte t (vai + i) ((v lsr (i * 8)) land 0xff)
  done

let read_u16 t va = read_uint t va 2
let write_u16 t va v = write_uint t va 2 v
let read_u32 t va = read_uint t va 4
let write_u32 t va v = write_uint t va 4 v

let read_u64 t va =
  let vai = Int64.to_int va in
  let lo = ref 0 and hi = ref 0 in
  for i = 0 to 3 do
    lo := !lo lor (read_byte t (vai + i) lsl (i * 8))
  done;
  for i = 4 to 7 do
    hi := !hi lor (read_byte t (vai + i) lsl ((i - 4) * 8))
  done;
  Int64.logor (Int64.of_int !lo) (Int64.shift_left (Int64.of_int !hi) 32)

let write_u64 t va v =
  let vai = Int64.to_int va in
  let lo = Int64.to_int (Int64.logand v 0xFFFFFFFFL) in
  let hi = Int64.to_int (Int64.shift_right_logical v 32) in
  for i = 0 to 3 do
    write_byte t (vai + i) ((lo lsr (i * 8)) land 0xff)
  done;
  for i = 4 to 7 do
    write_byte t (vai + i) ((hi lsr ((i - 4) * 8)) land 0xff)
  done

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

let page_bytes = Int64.to_int Layout.page_size
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
