(* Tests for DMA views, ring transactions and split virtqueues. *)

module Types = Lastcpu_proto.Types
module Layout = Lastcpu_mem.Layout
module Physmem = Lastcpu_mem.Physmem
module Iommu = Lastcpu_iommu.Iommu
module Dma = Lastcpu_virtio.Dma
module Vq = Lastcpu_virtio.Virtqueue

let page = Layout.page_size

(* A little rig: one memory, two IOMMUs (driver and device), a shared
   mapping of [pages] pages at [va] for both. *)
let rig ?(pages = 16) ?(va = 0x4000_0000L) ?(pa = 0x10_0000L)
    ?(iommu_b = Iommu.create ()) () =
  let mem = Physmem.create () in
  let iommu_a = Iommu.create () in
  let bytes = Int64.mul (Int64.of_int pages) page in
  (match Iommu.map iommu_a ~pasid:1 ~va ~pa ~bytes ~perm:Types.perm_rw with
  | Ok () -> ()
  | Error e -> failwith e);
  (match Iommu.map iommu_b ~pasid:1 ~va ~pa ~bytes ~perm:Types.perm_rw with
  | Ok () -> ()
  | Error e -> failwith e);
  let dma_a = Dma.create ~iommu:iommu_a ~pasid:1 ~mem in
  let dma_b = Dma.create ~iommu:iommu_b ~pasid:1 ~mem in
  (dma_a, dma_b, va)

(* --- Dma ------------------------------------------------------------------ *)

let test_dma_shared_visibility () =
  let dma_a, dma_b, va = rig () in
  Dma.write_field64 dma_a (Int64.to_int va) 0xCAFEBABEL;
  Alcotest.(check int64) "b sees a's write" 0xCAFEBABEL
    (Dma.read_field64 dma_b (Int64.to_int va));
  Dma.write_bytes dma_b (Int64.add va 100L) "hello from b";
  Alcotest.(check string) "a sees b's write" "hello from b"
    (Dma.read_bytes dma_a (Int64.add va 100L) 12)

let test_dma_fault_unmapped () =
  let dma_a, _, _ = rig () in
  match Dma.read_field dma_a 0x9999_0000 1 with
  | _ -> Alcotest.fail "expected fault"
  | exception Dma.Dma_fault f ->
    Alcotest.(check bool) "not mapped" true (f.Iommu.reason = Iommu.Not_mapped)

let test_dma_cross_page () =
  let dma_a, dma_b, va = rig () in
  let addr = Int64.add va (Int64.sub page 3L) in
  let data = String.init 10 (fun i -> Char.chr (65 + i)) in
  Dma.write_bytes dma_a addr data;
  Alcotest.(check string) "straddles pages" data (Dma.read_bytes dma_b addr 10)

let test_dma_u16_u32 () =
  let dma_a, _, va = rig () in
  let vai = Int64.to_int va in
  Dma.write_field dma_a vai 2 0xBEEF;
  Alcotest.(check int) "u16" 0xBEEF (Dma.read_field dma_a vai 2);
  Dma.write_field dma_a (vai + 8) 4 0xDEADBEEF;
  Alcotest.(check int) "u32" 0xDEADBEEF (Dma.read_field dma_a (vai + 8) 4)

(* --- Views: map_single and invalidation ---------------------------------- *)

(* map_single: single-page ranges yield a direct view backed by the same
   DRAM the copy path reads. *)
let test_dmi_map_single_view () =
  let iommu_b = Iommu.create () in
  let dma_a, dma_b, va = rig ~iommu_b () in
  Dma.write_bytes dma_a va "direct-map me";
  (match Dma.map_single dma_b ~va ~len:13 ~perm:Iommu.Read with
  | None -> Alcotest.fail "single-page map_single failed"
  | Some v ->
    Alcotest.(check string) "view sees DRAM" "direct-map me"
      (Lastcpu_proto.Slice.to_string v ~pos:0 ~len:13));
  (* Multi-page ranges must decline WITHOUT spending translations: the
     caller's copy-path fallback is then the only translation pass. *)
  let t_before = Iommu.translations iommu_b in
  (match
     Dma.map_single dma_b ~va:(Int64.sub (Int64.add va page) 8L) ~len:64
       ~perm:Iommu.Read
   with
  | Some _ -> Alcotest.fail "cross-page map_single should refuse"
  | None -> ());
  Alcotest.(check int) "no translations spent on refusal" t_before
    (Iommu.translations iommu_b)

(* Both paths to DRAM, [map_single] and the copy path, fault at [va]. *)
let expect_fault what dma va =
  let not_mapped path access =
    match access () with
    | () -> Alcotest.fail (Printf.sprintf "%s: %s survived" what path)
    | exception Dma.Dma_fault f ->
      Alcotest.(check bool) (Printf.sprintf "%s: %s faults" what path) true
        (f.Iommu.reason = Iommu.Not_mapped)
  in
  not_mapped "map_single" (fun () ->
      ignore (Dma.map_single dma ~va ~len:64 ~perm:Iommu.Read));
  not_mapped "read_bytes" (fun () -> ignore (Dma.read_bytes dma va 64))

let map_pages iommu ~pasid ~pa ~pages =
  match
    Iommu.map iommu ~pasid ~va:0x5000_0000L ~pa
      ~bytes:(Int64.mul (Int64.of_int pages) page) ~perm:Types.perm_rw
  with
  | Ok () -> ()
  | Error e -> failwith e

(* After an unmap (the IOMMU edge every revocation path funnels through)
   neither path reaches the page any more. *)
let test_dmi_unmap () =
  let mem = Physmem.create () in
  let iommu = Iommu.create () in
  map_pages iommu ~pasid:7 ~pa:0x40_0000L ~pages:4;
  let dma = Dma.create ~iommu ~pasid:7 ~mem in
  let va = 0x5000_0000L in
  (match Dma.map_single dma ~va ~len:256 ~perm:Iommu.Read with
  | None -> Alcotest.fail "map_single failed"
  | Some _ -> ());
  ignore (Iommu.unmap iommu ~pasid:7 ~va ~bytes:page);
  expect_fault "after unmap" dma va

(* PASID teardown (application exit, epoch revocation, quarantine — all
   end in [clear_pasid]) cuts that PASID off and only that PASID. *)
let test_dmi_pasid_teardown () =
  let mem = Physmem.create () in
  let iommu = Iommu.create () in
  map_pages iommu ~pasid:7 ~pa:0x40_0000L ~pages:1;
  map_pages iommu ~pasid:8 ~pa:0x80_0000L ~pages:1;
  let dma7 = Dma.create ~iommu ~pasid:7 ~mem in
  let dma8 = Dma.create ~iommu ~pasid:8 ~mem in
  let va = 0x5000_0000L in
  Dma.write_bytes dma8 va "pasid 8";
  Iommu.clear_pasid iommu ~pasid:7;
  expect_fault "after clear_pasid" dma7 va;
  (match Dma.map_single dma8 ~va ~len:7 ~perm:Iommu.Read with
  | Some v ->
    Alcotest.(check string) "pasid 8 view unaffected" "pasid 8"
      (Lastcpu_proto.Slice.to_string v ~pos:0 ~len:7)
  | None -> Alcotest.fail "pasid 8 map_single failed");
  Alcotest.(check string) "pasid 8 copy unaffected" "pasid 8"
    (Dma.read_bytes dma8 va 7)

(* A DRAM restore replaces the backing chunks: a view taken afterwards
   reads and writes the restored memory, not the discarded chunks. *)
let test_dmi_view_after_restore () =
  let mem = Physmem.create () in
  let iommu = Iommu.create () in
  map_pages iommu ~pasid:1 ~pa:0x10_0000L ~pages:1;
  let dma = Dma.create ~iommu ~pasid:1 ~mem in
  let va = 0x5000_0000L in
  let view () =
    match Dma.map_single dma ~va ~len:8 ~perm:Iommu.Write with
    | Some v -> v
    | None -> Alcotest.fail "map_single failed"
  in
  Dma.write_bytes dma va "restored";
  let w = Lastcpu_sim.Snapshot.W.create () in
  Physmem.save w mem;
  Dma.write_bytes dma va "clobber!";
  ignore (view ());
  Physmem.restore
    (Lastcpu_sim.Snapshot.R.of_string (Lastcpu_sim.Snapshot.W.contents w))
    mem;
  let v = view () in
  Alcotest.(check string) "view reads restored DRAM" "restored"
    (Lastcpu_proto.Slice.to_string v ~pos:0 ~len:8);
  Lastcpu_proto.Slice.blit_string "written!" ~src_pos:0 v ~dst_pos:0 ~len:8;
  Alcotest.(check string) "view writes restored DRAM" "written!"
    (Dma.read_bytes dma va 8)

(* --- Virtqueue --------------------------------------------------------------- *)

let test_vq_layout_bytes () =
  let b16 = Vq.layout_bytes ~size:16 in
  (* desc 256 + avail 36 (->256+36=292, pad to 292) + used 132 *)
  Alcotest.(check bool) "positive" true (b16 > 0);
  Alcotest.(check bool) "grows with size" true (Vq.layout_bytes ~size:64 > b16);
  Alcotest.check_raises "non power of two"
    (Invalid_argument "Virtqueue: size must be a power of two in [1, 32768]")
    (fun () -> ignore (Vq.layout_bytes ~size:3))

let test_vq_single_chain () =
  let dma_a, dma_b, va = rig () in
  let driver = Vq.Driver.create ~dma:dma_a ~base:va ~size:8 in
  let device = Vq.Device.create ~dma:dma_b ~base:va ~size:8 in
  let buf_va = Int64.add va 8192L in
  Dma.write_bytes dma_a buf_va "request!";
  let head =
    match
      Vq.Driver.add driver
        [
          { Vq.va = buf_va; len = 8; writable = false };
          { Vq.va = Int64.add buf_va 64L; len = 32; writable = true };
        ]
    with
    | Ok h -> h
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check int) "pending" 1 (Vq.Device.pending device);
  (match Vq.Device.pop device with
  | None -> Alcotest.fail "expected chain"
  | Some { Vq.Device.head = h; buffers } ->
    Alcotest.(check int) "head matches" head h;
    Alcotest.(check int) "two buffers" 2 (List.length buffers);
    (match buffers with
    | [ b1; b2 ] ->
      Alcotest.(check bool) "first read-only" false b1.Vq.writable;
      Alcotest.(check bool) "second writable" true b2.Vq.writable;
      Alcotest.(check string) "device reads request" "request!"
        (Dma.read_bytes dma_b b1.Vq.va b1.Vq.len);
      Dma.write_bytes dma_b b2.Vq.va "response"
    | _ -> Alcotest.fail "bad chain");
    Vq.Device.push_used device ~head:h ~written:8);
  match Vq.Driver.poll_used driver with
  | Some (h, written) ->
    Alcotest.(check int) "completion head" head h;
    Alcotest.(check int) "written" 8 written;
    Alcotest.(check string) "driver reads response" "response"
      (Dma.read_bytes dma_a (Int64.add buf_va 64L) 8)
  | None -> Alcotest.fail "expected completion"

let test_vq_descriptor_exhaustion_and_recycle () =
  let dma_a, dma_b, va = rig () in
  let driver = Vq.Driver.create ~dma:dma_a ~base:va ~size:4 in
  let device = Vq.Device.create ~dma:dma_b ~base:va ~size:4 in
  let buf i = { Vq.va = Int64.add va (Int64.of_int (8192 + (i * 64))); len = 8; writable = false } in
  let heads =
    List.filter_map
      (fun i -> Result.to_option (Vq.Driver.add driver [ buf i ]))
      [ 0; 1; 2; 3 ]
  in
  Alcotest.(check int) "four posted" 4 (List.length heads);
  (match Vq.Driver.add driver [ buf 9 ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "exhaustion not detected");
  (* Device completes everything. *)
  let rec drain () =
    match Vq.Device.pop device with
    | Some { Vq.Device.head; _ } ->
      Vq.Device.push_used device ~head ~written:0;
      drain ()
    | None -> ()
  in
  drain ();
  let rec reap n = match Vq.Driver.poll_used driver with Some _ -> reap (n + 1) | None -> n in
  Alcotest.(check int) "four completions" 4 (reap 0);
  Alcotest.(check int) "all free again" 4 (Vq.Driver.num_free driver);
  (* And we can post again after recycling. *)
  match Vq.Driver.add driver [ buf 5 ] with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("recycle failed: " ^ e)

let test_vq_ordering_rule () =
  let dma_a, _, va = rig () in
  let driver = Vq.Driver.create ~dma:dma_a ~base:va ~size:8 in
  match
    Vq.Driver.add driver
      [
        { Vq.va = Int64.add va 8192L; len = 8; writable = true };
        { Vq.va = Int64.add va 8300L; len = 8; writable = false };
      ]
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "readable-after-writable accepted"

let test_vq_many_roundtrips_wraparound () =
  let dma_a, dma_b, va = rig () in
  let driver = Vq.Driver.create ~dma:dma_a ~base:va ~size:4 in
  let device = Vq.Device.create ~dma:dma_b ~base:va ~size:4 in
  let buf = { Vq.va = Int64.add va 8192L; len = 4; writable = false } in
  (* Many more round trips than the queue size: exercises 16-bit index
     wrap behaviour. *)
  for i = 1 to 300 do
    (match Vq.Driver.add driver [ buf ] with
    | Ok _ -> ()
    | Error e -> Alcotest.fail (Printf.sprintf "add %d: %s" i e));
    (match Vq.Device.pop device with
    | Some { Vq.Device.head; _ } -> Vq.Device.push_used device ~head ~written:i
    | None -> Alcotest.fail (Printf.sprintf "pop %d: empty" i));
    match Vq.Driver.poll_used driver with
    | Some (_, written) -> Alcotest.(check int) "written echoes i" i written
    | None -> Alcotest.fail (Printf.sprintf "poll %d: empty" i)
  done

(* The device walks NEXT and WRITE only: a descriptor with flag bit 4
   (INDIRECT in VIRTIO) set pops as one plain buffer, and the pop costs
   the same translations as a plain descriptor's, so no table is read. *)
let test_vq_indirect_flag_plain () =
  let iommu_b = Iommu.create () in
  let dma_a, dma_b, va = rig ~iommu_b () in
  let driver = Vq.Driver.create ~dma:dma_a ~base:va ~size:4 in
  let device = Vq.Device.create ~dma:dma_b ~base:va ~size:4 in
  let buf = { Vq.va = Int64.add va 16384L; len = 64; writable = false } in
  let post () =
    match Vq.Driver.add driver [ buf ] with
    | Ok head -> head
    | Error e -> Alcotest.fail e
  in
  let pop_cost () =
    let before = Iommu.translations iommu_b in
    match Vq.Device.pop device with
    | Some { Vq.Device.buffers; _ } ->
      (buffers, Iommu.translations iommu_b - before)
    | None -> Alcotest.fail "expected chain"
  in
  ignore (post ());
  let plain, plain_cost = pop_cost () in
  let head = post () in
  (* Descriptor flags live at byte 12 of the 16-byte descriptor. *)
  Dma.write_field dma_a (Int64.to_int va + (16 * head) + 12) 2 4;
  let flagged, flagged_cost = pop_cost () in
  Alcotest.(check int) "one buffer" 1 (List.length flagged);
  Alcotest.(check bool) "the posted buffer" true (flagged = plain);
  Alcotest.(check int) "no table read" plain_cost flagged_cost

let test_vq_empty_chain_rejected () =
  let dma_a, _, va = rig () in
  let driver = Vq.Driver.create ~dma:dma_a ~base:va ~size:8 in
  match Vq.Driver.add driver [] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty chain accepted"

(* The used ring is peer memory. Forged entries (an id out of range, a
   free id, a repeated id) and a chain whose descriptor link the peer
   rewrote are dropped without an exception; the honest completion still
   arrives, the free count stays exact, and the free descriptors can all
   be posted again. *)
let test_vq_forged_used_entries () =
  let dma_a, dma_b, va = rig () in
  let driver = Vq.Driver.create ~dma:dma_a ~base:va ~size:8 in
  let device = Vq.Device.create ~dma:dma_b ~base:va ~size:8 in
  let buf i = { Vq.va = Int64.add va (Int64.of_int (8192 + (i * 64))); len = 8; writable = false } in
  let post bufs =
    match Vq.Driver.add driver bufs with
    | Ok head -> head
    | Error e -> Alcotest.fail e
  in
  let a = post [ buf 0; buf 1; buf 2 ] in
  let b = post [ buf 3; buf 4 ] in
  Alcotest.(check int) "three free" 3 (Vq.Driver.num_free driver);
  (* A descriptor's next field is at byte 14; point [b]'s at a free one. *)
  let b_next = Dma.read_field dma_b (Int64.to_int va + (16 * b) + 14) 2 in
  Dma.write_field dma_b (Int64.to_int va + (16 * b) + 14) 2 ((b_next + 1) mod 8);
  List.iter
    (fun head -> Vq.Device.push_used device ~head ~written:1)
    [ 99; 7; a; a; b ];
  let rec reap acc =
    match Vq.Driver.poll_used driver with
    | Some (head, _) -> reap (head :: acc)
    | None -> List.rev acc
  in
  Alcotest.(check (list int)) "only the honest completion" [ a ] (reap []);
  Alcotest.(check int) "chain a recycled, b outstanding" 6
    (Vq.Driver.num_free driver);
  let heads = List.init 6 (fun i -> post [ buf (8 + i) ]) in
  Alcotest.(check (list int)) "every free descriptor reposted" [ 0; 1; 2; 5; 6; 7 ]
    (List.sort compare heads);
  Alcotest.(check int) "none free" 0 (Vq.Driver.num_free driver);
  match Vq.Driver.add driver [ buf 14 ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "posted past the free count"

(* Property: the queue behaves like a FIFO against a reference model under
   random interleavings of add / device-drain / driver-reap. *)
let vq_model_prop =
  QCheck.Test.make ~name:"virtqueue matches FIFO model" ~count:100
    QCheck.(list (int_bound 2))
    (fun script ->
      let dma_a, dma_b, va = rig () in
      let driver = Vq.Driver.create ~dma:dma_a ~base:va ~size:8 in
      let device = Vq.Device.create ~dma:dma_b ~base:va ~size:8 in
      let model_posted = Queue.create () in
      let model_done = Queue.create () in
      let counter = ref 0 in
      let ok = ref true in
      List.iter
        (fun action ->
          match action with
          | 0 ->
            (* Driver posts a 1-segment chain tagged with a counter. *)
            incr counter;
            let buf =
              { Vq.va = Int64.add va (Int64.of_int (8192 + (64 * (!counter mod 64))));
                len = !counter; writable = false }
            in
            (match Vq.Driver.add driver [ buf ] with
            | Ok head -> Queue.push (head, !counter) model_posted
            | Error _ ->
              (* Full: model must also be at capacity. *)
              if Queue.length model_posted + Queue.length model_done < 8 then
                ok := false)
          | 1 -> (
            (* Device consumes one chain; it must be the model's oldest. *)
            match Vq.Device.pop device with
            | None -> if not (Queue.is_empty model_posted) then ok := false
            | Some { Vq.Device.head; buffers } -> (
              match Queue.pop model_posted with
              | exception Queue.Empty -> ok := false
              | mhead, tag ->
                if head <> mhead then ok := false;
                (match buffers with
                | [ b ] -> if b.Vq.len <> tag then ok := false
                | _ -> ok := false);
                Vq.Device.push_used device ~head ~written:tag;
                Queue.push (head, tag) model_done))
          | _ -> (
            (* Driver reaps one completion; must be the oldest completed. *)
            match Vq.Driver.poll_used driver with
            | None -> if not (Queue.is_empty model_done) then ok := false
            | Some (head, written) -> (
              match Queue.pop model_done with
              | exception Queue.Empty -> ok := false
              | mhead, tag -> if head <> mhead || written <> tag then ok := false)))
        script;
      !ok)

(* Device.drain_deferred + publish_used (the pair the SSD runs) must
   behave exactly like a pop/push_used loop: same completions, same
   order. *)
let test_vq_drain_batched () =
  let dma_a, dma_b, va = rig ~pages:32 () in
  let size = 8 in
  let driver = Vq.Driver.create ~dma:dma_a ~base:va ~size in
  let device = Vq.Device.create ~dma:dma_b ~base:va ~size in
  let slot i =
    Int64.add va (Int64.of_int ((8 * 4096) + (i * 4096)))
  in
  for i = 0 to 3 do
    match
      Vq.Driver.add driver
        [
          { Vq.va = slot i; len = 100 + i; writable = false };
          { Vq.va = Int64.add (slot i) 2048L; len = 512; writable = true };
        ]
    with
    | Ok _ -> ()
    | Error e -> failwith e
  done;
  let served = ref [] in
  let completions =
    Vq.Device.drain_deferred device ~f:(fun { Vq.Device.buffers; _ } ->
        match buffers with
        | [ req; _resp ] ->
          served := req.Vq.len :: !served;
          req.Vq.len * 2
        | _ -> Alcotest.fail "unexpected chain shape")
  in
  Alcotest.(check int) "drained all four" 4 (List.length completions);
  Alcotest.(check (option (pair int int))) "nothing published before publish_used"
    None (Vq.Driver.poll_used driver);
  Vq.Device.publish_used device completions;
  Alcotest.(check (list int)) "service order" [ 100; 101; 102; 103 ]
    (List.rev !served);
  let rec collect acc =
    match Vq.Driver.poll_used driver with
    | None -> List.rev acc
    | Some (_, written) -> collect (written :: acc)
  in
  Alcotest.(check (list int)) "completion order and written counts"
    [ 200; 202; 204; 206 ] (collect []);
  Alcotest.(check int) "ring fully recycled" size (Vq.Driver.num_free driver)

(* --- Ring transactions vs the per-byte reference ------------------------- *)

(* The reference oracle is the per-byte DMA the ring accessors replaced:
   every byte translated on its own through [translate_pa], in address
   order, then one Physmem byte access. The transaction-level accessors
   must leave the same bytes, counters, TLB state and faults behind. *)
let ref_byte_pa iommu vai access =
  let pa = Iommu.translate_pa iommu ~pasid:1 ~vai ~access in
  if pa >= 0 then pa else raise (Dma.Dma_fault (Iommu.last_fault iommu))

let ref_read iommu mem vai n =
  let b = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.set_uint8 b i
      (Physmem.read_field mem (ref_byte_pa iommu (vai + i) Iommu.Read) 1)
  done;
  Bytes.to_string b

let ref_write iommu mem vai data =
  for i = 0 to String.length data - 1 do
    Physmem.write_field mem
      (ref_byte_pa iommu (vai + i) Iommu.Write)
      1 (Char.code data.[i])
  done

(* A world: 8 IOMMU pages at [eq_va] over 1 MiB of DRAM, with a TLB small
   enough (2 sets x 2 ways) that runs evict each other. Page 3 is
   read-only and page 6 unmapped; page 7 sits on a DRAM chunk nothing has
   written, so it reads as zeros. *)
let eq_va = 0x4000_0000
let page_bytes = 4096L
let eq_pages = 8
let eq_pa page = if page = 7 then 0x8_0000 else 0x1_0000 + (page * 4096)

let eq_world ~no_tlb =
  let mem = Physmem.create ~size:(Int64.of_int (1 lsl 20)) () in
  let iommu = Iommu.create ~tlb_sets:2 ~tlb_ways:2 ~no_tlb () in
  for page = 0 to eq_pages - 1 do
    if page <> 6 then begin
      let perm = if page = 3 then Types.perm_r else Types.perm_rw in
      match
        Iommu.map iommu ~pasid:1
          ~va:(Int64.of_int (eq_va + (page * 4096)))
          ~pa:(Int64.of_int (eq_pa page)) ~bytes:page_bytes ~perm
      with
      | Ok () -> ()
      | Error e -> failwith e
    end;
    if page < 7 then
      Physmem.write_bytes mem
        (Int64.of_int (eq_pa page))
        (String.init 4096 (fun i -> Char.chr (((i * 7) + page) land 0xff)))
  done;
  (iommu, mem, Dma.create ~iommu ~pasid:1 ~mem)

type shape = Field of int | Desc | Pair32
type eq_op = { shape : shape; write : bool; vai : int; data : string }

let width = function Field n -> n | Desc -> 16 | Pair32 -> 8

let le s off n =
  match n with
  | 1 -> String.get_uint8 s off
  | 2 -> String.get_uint16_le s off
  | _ -> Int32.to_int (String.get_int32_le s off) land 0xffff_ffff

let put b off n v =
  match n with
  | 1 -> Bytes.set_uint8 b off v
  | 2 -> Bytes.set_uint16_le b off v
  | _ -> Bytes.set_int32_le b off (Int32.of_int v)

(* One op through the transaction-level accessors; a read returns its
   bytes, little-endian, so it compares directly with the reference. *)
let run_new dma { shape; write; vai; data } =
  let out = Bytes.create (width shape) in
  (match (shape, write) with
  | Field 8, false -> Bytes.set_int64_le out 0 (Dma.read_field64 dma vai)
  | Field 8, true -> Dma.write_field64 dma vai (String.get_int64_le data 0)
  | Field n, false -> put out 0 n (Dma.read_field dma vai n)
  | Field n, true -> Dma.write_field dma vai n (le data 0 n)
  | Desc, false ->
    let addr, len, flags, next = Dma.read_desc dma vai in
    Bytes.set_int64_le out 0 addr;
    put out 8 4 len;
    put out 12 2 flags;
    put out 14 2 next
  | Desc, true ->
    Dma.write_desc dma vai ~addr:(String.get_int64_le data 0) ~len:(le data 8 4)
      ~flags:(le data 12 2) ~next:(le data 14 2)
  | Pair32, false ->
    let a, b = Dma.read_pair32 dma vai in
    put out 0 4 a;
    put out 4 4 b
  | Pair32, true -> Dma.write_pair32 dma vai (le data 0 4) (le data 4 4));
  if write then "" else Bytes.to_string out

let run_ref iommu mem { shape; write; vai; data } =
  if write then (ref_write iommu mem vai data; "")
  else ref_read iommu mem vai (width shape)

let outcome f =
  match f () with s -> Ok s | exception Dma.Dma_fault fault -> Error fault

let iommu_state iommu mem =
  let w = Lastcpu_sim.Snapshot.W.create () in
  Iommu.save w iommu;
  ( [ Iommu.translations iommu; Iommu.tlb_hits iommu; Iommu.tlb_misses iommu;
      Iommu.tlb_evictions iommu; Iommu.walks iommu; Iommu.walk_levels iommu;
      Iommu.faults iommu; Physmem.touched_frames mem ],
    Lastcpu_sim.Snapshot.W.contents w,
    List.init eq_pages (fun page -> Physmem.read_bytes mem (Int64.of_int (eq_pa page)) 4096) )

(* Run [ops] through a reference world and a transaction world side by
   side; [Some msg] at the first divergence. *)
let first_divergence ~no_tlb ops =
  let ref_iommu, ref_mem, _ = eq_world ~no_tlb in
  let iommu, mem, dma = eq_world ~no_tlb in
  let rec go i = function
    | [] -> None
    | op :: rest ->
      let expected = outcome (fun () -> run_ref ref_iommu ref_mem op) in
      let got = outcome (fun () -> run_new dma op) in
      if expected <> got then Some (Printf.sprintf "op %d: result or fault differs" i)
      else begin
        let counters, tlb, bytes = iommu_state iommu mem in
        let ref_counters, ref_tlb, ref_bytes = iommu_state ref_iommu ref_mem in
        if counters <> ref_counters then
          Some
            (Printf.sprintf "op %d: counters [%s] <> reference [%s]" i
               (String.concat ";" (List.map string_of_int counters))
               (String.concat ";" (List.map string_of_int ref_counters)))
        else if not (String.equal tlb ref_tlb) then
          Some (Printf.sprintf "op %d: TLB/page-table save differs" i)
        else if bytes <> ref_bytes then Some (Printf.sprintf "op %d: memory differs" i)
        else go (i + 1) rest
      end
  in
  go 0 ops

let show_op { shape; write; vai; _ } =
  Printf.sprintf "%s %s @0x%x"
    (if write then "write" else "read")
    (match shape with Field n -> Printf.sprintf "u%d" (8 * n) | Desc -> "desc" | Pair32 -> "pair32")
    vai

let eq_op_gen =
  let open QCheck.Gen in
  let* shape = oneofl [ Field 1; Field 2; Field 4; Field 8; Desc; Pair32 ] in
  let* write = bool in
  let* page = int_bound (eq_pages - 1) in
  (* Mostly near a page edge, so runs straddle pages often. *)
  let* off =
    frequency [ (2, int_range (4096 - 16) 4095); (1, int_bound 16); (1, int_bound 4095) ]
  in
  let+ data = string_size ~gen:char (return (width shape)) in
  { shape; write; vai = eq_va + (page * 4096) + off; data }

let transaction_equivalence_prop =
  QCheck.Test.make ~name:"equal the per-byte reference" ~count:300
    QCheck.(
      pair bool (make ~print:(fun ops -> String.concat "; " (List.map show_op ops))
                   Gen.(list_size (int_range 1 24) eq_op_gen)))
    (fun (no_tlb, ops) ->
      match first_divergence ~no_tlb ops with
      | None -> true
      | Some msg -> QCheck.Test.fail_report msg)

let check_same ~no_tlb ops =
  match first_divergence ~no_tlb ops with
  | None -> ()
  | Some msg -> Alcotest.fail msg

let at page off = eq_va + (page * 4096) + off
let bytes16 = String.init 16 (fun i -> Char.chr (0xA0 + i))

(* A write straddling into an unmapped (page 6) or read-only (page 3)
   page faults on the second page after the first page's bytes landed. *)
let test_straddle_partial_write () =
  List.iter
    (fun (no_tlb, page, reason) ->
      let op = { shape = Desc; write = true; vai = at (page - 1) (4096 - 6); data = bytes16 } in
      check_same ~no_tlb [ op ];
      let _, mem, dma = eq_world ~no_tlb in
      (match run_new dma op with
      | _ -> Alcotest.fail "expected a fault on the second page"
      | exception Dma.Dma_fault f ->
        Alcotest.(check bool) "fault reason" true (f.Iommu.reason = reason);
        Alcotest.(check int64) "fault on the second page's first byte"
          (Int64.of_int (at page 0)) f.Iommu.va);
      Alcotest.(check string) "first page's bytes written" (String.sub bytes16 0 6)
        (Physmem.read_bytes mem (Int64.of_int (eq_pa (page - 1) + 4096 - 6)) 6))
    [ (false, 6, Iommu.Not_mapped); (false, 3, Iommu.Protection);
      (true, 6, Iommu.Not_mapped); (true, 3, Iommu.Protection) ]

(* Reading page 3 caches its read-only translation; a write then hits in
   the TLB and faults on the cached permissions. *)
let test_protection_fault_tlb_hit () =
  let read = { shape = Field 4; write = false; vai = at 3 64; data = "" } in
  let write = { read with write = true; data = "\001\002\003\004" } in
  check_same ~no_tlb:false [ read; write; read ];
  let iommu, _, dma = eq_world ~no_tlb:false in
  ignore (run_new dma read);
  let hits = Iommu.tlb_hits iommu in
  (match run_new dma write with
  | _ -> Alcotest.fail "expected a protection fault"
  | exception Dma.Dma_fault f ->
    Alcotest.(check bool) "protection" true (f.Iommu.reason = Iommu.Protection));
  Alcotest.(check int) "the fault was a TLB hit" (hits + 1) (Iommu.tlb_hits iommu)

(* Without a TLB every byte walks the page table. *)
let test_no_tlb_walks_per_byte () =
  let op = { shape = Desc; write = false; vai = at 0 0; data = "" } in
  check_same ~no_tlb:true [ op; { op with write = true; data = bytes16 } ];
  let iommu, _, dma = eq_world ~no_tlb:true in
  ignore (run_new dma op);
  Alcotest.(check int) "one walk per byte" 16 (Iommu.walks iommu);
  Alcotest.(check int) "one translation per byte" 16 (Iommu.translations iommu)

(* Allocation budget of the ring hot path: one add -> pop -> push_used ->
   poll_used round trip of a two-descriptor chain. Every ring access is a
   DMA transaction on native-int addresses, so what is left is the
   descriptor tuples, the chain's buffer list and the option results; a
   change that boxes an address per field or loops per byte fails here. *)
let vq_roundtrip_words_budget = 96.

let test_vq_roundtrip_allocation_budget () =
  let dma_a, dma_b, va = rig () in
  let driver = Vq.Driver.create ~dma:dma_a ~base:va ~size:8 in
  let device = Vq.Device.create ~dma:dma_b ~base:va ~size:8 in
  let chain =
    [
      { Vq.va = Int64.add va 8192L; len = 64; writable = false };
      { Vq.va = Int64.add va 12288L; len = 64; writable = true };
    ]
  in
  let round () =
    (match Vq.Driver.add driver chain with Ok _ -> () | Error e -> failwith e);
    (match Vq.Device.pop device with
    | Some { Vq.Device.head; _ } -> Vq.Device.push_used device ~head ~written:8
    | None -> failwith "no chain");
    match Vq.Driver.poll_used driver with Some _ -> () | None -> failwith "no completion"
  in
  for _ = 1 to 100 do round () done;
  let rounds = 20_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to rounds do round () done;
  let per_round = (Gc.minor_words () -. w0) /. float_of_int rounds in
  if per_round > vq_roundtrip_words_budget then
    Alcotest.failf "virtqueue round trip: %.2f minor words > budget %.0f" per_round
      vq_roundtrip_words_budget

let () =
  Alcotest.run "virtio"
    [
      ( "dma",
        [
          Alcotest.test_case "shared visibility" `Quick test_dma_shared_visibility;
          Alcotest.test_case "fault on unmapped" `Quick test_dma_fault_unmapped;
          Alcotest.test_case "cross page" `Quick test_dma_cross_page;
          Alcotest.test_case "u16/u32" `Quick test_dma_u16_u32;
        ] );
      ( "virtqueue",
        [
          Alcotest.test_case "layout bytes" `Quick test_vq_layout_bytes;
          Alcotest.test_case "single chain roundtrip" `Quick test_vq_single_chain;
          Alcotest.test_case "exhaustion and recycle" `Quick
            test_vq_descriptor_exhaustion_and_recycle;
          Alcotest.test_case "ordering rule" `Quick test_vq_ordering_rule;
          Alcotest.test_case "index wraparound" `Quick test_vq_many_roundtrips_wraparound;
          Alcotest.test_case "indirect flag is a plain buffer" `Quick
            test_vq_indirect_flag_plain;
          Alcotest.test_case "empty chain rejected" `Quick test_vq_empty_chain_rejected;
          Alcotest.test_case "forged used entries dropped" `Quick
            test_vq_forged_used_entries;
          QCheck_alcotest.to_alcotest vq_model_prop;
        ] );
      ( "dmi",
        [
          Alcotest.test_case "map_single view" `Quick test_dmi_map_single_view;
          Alcotest.test_case "unmap faults both paths" `Quick test_dmi_unmap;
          Alcotest.test_case "pasid teardown" `Quick test_dmi_pasid_teardown;
          Alcotest.test_case "view after DRAM restore" `Quick
            test_dmi_view_after_restore;
        ] );
      ( "drain",
        [
          Alcotest.test_case "batched drain equals pop/push loop" `Quick
            test_vq_drain_batched;
        ] );
      ( "ring dma",
        [
          QCheck_alcotest.to_alcotest transaction_equivalence_prop;
          Alcotest.test_case "straddle faults on the second page" `Quick
            test_straddle_partial_write;
          Alcotest.test_case "protection fault on a TLB hit" `Quick
            test_protection_fault_tlb_hit;
          Alcotest.test_case "no TLB walks per byte" `Quick test_no_tlb_walks_per_byte;
          Alcotest.test_case "round-trip allocation budget" `Quick
            test_vq_roundtrip_allocation_budget;
        ] );
    ]
