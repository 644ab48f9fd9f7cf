(* Tests for page tables, TLB and the IOMMU unit. *)

module Types = Lastcpu_proto.Types
module Layout = Lastcpu_mem.Layout
module Pagetable = Lastcpu_iommu.Pagetable
module Tlb = Lastcpu_iommu.Tlb
module Iommu = Lastcpu_iommu.Iommu

let page = Layout.page_size

(* --- Pagetable ----------------------------------------------------------- *)

let test_pt_map_walk () =
  let pt = Pagetable.create () in
  (match Pagetable.map pt ~va:0x4000_0000L ~pa:0x1000L ~perm:Types.perm_rw with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match Pagetable.walk pt ~va:0x4000_0000L ~access:Types.perm_r with
  | Pagetable.Translated { pa; levels; _ } ->
    Alcotest.(check int64) "pa" 0x1000L pa;
    Alcotest.(check int) "levels" 4 levels
  | _ -> Alcotest.fail "expected translation");
  (* Offset preserved. *)
  match Pagetable.walk pt ~va:0x4000_0123L ~access:Types.perm_r with
  | Pagetable.Translated { pa; _ } -> Alcotest.(check int64) "offset" 0x1123L pa
  | _ -> Alcotest.fail "expected translation"

let test_pt_no_mapping () =
  let pt = Pagetable.create () in
  match Pagetable.walk pt ~va:0x1234_5000L ~access:Types.perm_r with
  | Pagetable.No_mapping _ -> ()
  | _ -> Alcotest.fail "expected no mapping"

let test_pt_permission_denied () =
  let pt = Pagetable.create () in
  (match Pagetable.map pt ~va:0L ~pa:0x1000L ~perm:Types.perm_r with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  match Pagetable.walk pt ~va:0L ~access:{ Types.read = false; write = true; exec = false } with
  | Pagetable.Permission_denied _ -> ()
  | _ -> Alcotest.fail "expected permission denial"

let test_pt_remap_rejected () =
  let pt = Pagetable.create () in
  (match Pagetable.map pt ~va:0L ~pa:0x1000L ~perm:Types.perm_r with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  match Pagetable.map pt ~va:0L ~pa:0x2000L ~perm:Types.perm_r with
  | Error "already mapped" -> ()
  | Ok () -> Alcotest.fail "remap accepted"
  | Error e -> Alcotest.fail ("unexpected error: " ^ e)

let test_pt_unaligned_rejected () =
  let pt = Pagetable.create () in
  (match Pagetable.map pt ~va:123L ~pa:0x1000L ~perm:Types.perm_r with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unaligned va accepted");
  match Pagetable.map pt ~va:0L ~pa:123L ~perm:Types.perm_r with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unaligned pa accepted"

let test_pt_range_all_or_nothing () =
  let pt = Pagetable.create () in
  (* Pre-map the middle page; a 4-page range over it must fail atomically. *)
  (match Pagetable.map pt ~va:(Int64.mul 2L page) ~pa:0x8000L ~perm:Types.perm_r with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match
     Pagetable.map_range pt ~va:0L ~pa:0x10_0000L
       ~bytes:(Int64.mul 4L page) ~perm:Types.perm_rw
   with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "overlapping range accepted");
  Alcotest.(check int) "only the pre-mapped page" 1 (Pagetable.mapped_pages pt)

let test_pt_unmap_range () =
  let pt = Pagetable.create () in
  (match
     Pagetable.map_range pt ~va:0x10_0000L ~pa:0x20_0000L
       ~bytes:(Int64.mul 8L page) ~perm:Types.perm_rw
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "8 mapped" 8 (Pagetable.mapped_pages pt);
  let removed = Pagetable.unmap_range pt ~va:0x10_0000L ~bytes:(Int64.mul 8L page) in
  Alcotest.(check int) "8 removed" 8 removed;
  Alcotest.(check int) "none left" 0 (Pagetable.mapped_pages pt)

let test_pt_iter () =
  let pt = Pagetable.create () in
  let vas = [ 0L; Int64.mul 5L page; 0x7F_FFFF_F000L ] in
  List.iteri
    (fun i va ->
      match Pagetable.map pt ~va ~pa:(Int64.mul (Int64.of_int (i + 1)) page) ~perm:Types.perm_r with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)
    vas;
  let seen = ref [] in
  Pagetable.iter pt (fun ~va ~pa:_ ~perm:_ -> seen := va :: !seen);
  Alcotest.(check (list int64)) "all mappings visited" (List.sort compare vas)
    (List.sort compare !seen)

let pt_prop_roundtrip =
  QCheck.Test.make ~name:"pagetable map->walk roundtrip" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 30) (int_bound 10_000))
    (fun pages ->
      let pt = Pagetable.create () in
      let pages = List.sort_uniq compare pages in
      List.iter
        (fun p ->
          let va = Int64.mul (Int64.of_int p) page in
          let pa = Int64.mul (Int64.of_int (p + 100_000)) page in
          match Pagetable.map pt ~va ~pa ~perm:Types.perm_rw with
          | Ok () -> ()
          | Error e -> failwith e)
        pages;
      List.for_all
        (fun p ->
          let va = Int64.mul (Int64.of_int p) page in
          match Pagetable.walk pt ~va ~access:Types.perm_r with
          | Pagetable.Translated { pa; _ } ->
            Int64.equal pa (Int64.mul (Int64.of_int (p + 100_000)) page)
          | _ -> false)
        pages)

(* --- TLB -------------------------------------------------------------------- *)

let entry ppn = { Tlb.ppn; perm = Types.perm_rw }

let test_tlb_hit_miss () =
  let tlb = Tlb.create ~sets:4 ~ways:2 () in
  Alcotest.(check (option reject)) "cold miss" None (Tlb.lookup tlb ~pasid:1 ~vpn:5L)
  |> ignore;
  Tlb.insert tlb ~pasid:1 ~vpn:5L (entry 50L);
  (match Tlb.lookup tlb ~pasid:1 ~vpn:5L with
  | Some e -> Alcotest.(check int64) "hit ppn" 50L e.Tlb.ppn
  | None -> Alcotest.fail "expected hit");
  Alcotest.(check int) "one hit" 1 (Tlb.hits tlb);
  Alcotest.(check int) "one miss" 1 (Tlb.misses tlb)

let test_tlb_pasid_separation () =
  let tlb = Tlb.create () in
  Tlb.insert tlb ~pasid:1 ~vpn:5L (entry 50L);
  Alcotest.(check bool) "other pasid misses" true
    (Tlb.lookup tlb ~pasid:2 ~vpn:5L = None)

let test_tlb_lru_eviction () =
  let tlb = Tlb.create ~sets:1 ~ways:2 () in
  Tlb.insert tlb ~pasid:1 ~vpn:1L (entry 10L);
  Tlb.insert tlb ~pasid:1 ~vpn:2L (entry 20L);
  (* Touch vpn 1 so vpn 2 is LRU. *)
  ignore (Tlb.lookup tlb ~pasid:1 ~vpn:1L);
  Tlb.insert tlb ~pasid:1 ~vpn:3L (entry 30L);
  Alcotest.(check bool) "vpn1 survives" true (Tlb.lookup tlb ~pasid:1 ~vpn:1L <> None);
  Alcotest.(check bool) "vpn2 evicted" true (Tlb.lookup tlb ~pasid:1 ~vpn:2L = None);
  Alcotest.(check bool) "vpn3 present" true (Tlb.lookup tlb ~pasid:1 ~vpn:3L <> None)

let test_tlb_invalidate () =
  let tlb = Tlb.create () in
  Tlb.insert tlb ~pasid:1 ~vpn:1L (entry 10L);
  Tlb.insert tlb ~pasid:1 ~vpn:2L (entry 20L);
  Tlb.insert tlb ~pasid:2 ~vpn:1L (entry 30L);
  Tlb.invalidate_page tlb ~pasid:1 ~vpn:1L;
  Alcotest.(check bool) "page gone" true (Tlb.lookup tlb ~pasid:1 ~vpn:1L = None);
  Alcotest.(check bool) "sibling stays" true (Tlb.lookup tlb ~pasid:1 ~vpn:2L <> None);
  Tlb.invalidate_pasid tlb ~pasid:1;
  Alcotest.(check bool) "pasid flushed" true (Tlb.lookup tlb ~pasid:1 ~vpn:2L = None);
  Alcotest.(check bool) "other pasid stays" true (Tlb.lookup tlb ~pasid:2 ~vpn:1L <> None);
  Tlb.invalidate_all tlb;
  Alcotest.(check bool) "all flushed" true (Tlb.lookup tlb ~pasid:2 ~vpn:1L = None)

(* --- Iommu ---------------------------------------------------------------------- *)

let test_iommu_translate_and_fault () =
  let iommu = Iommu.create () in
  let faults = ref [] in
  Iommu.attach_fault_handler iommu (fun f -> faults := f :: !faults);
  (match
     Iommu.map iommu ~pasid:1 ~va:0x4000_0000L ~pa:0x1000L ~bytes:page
       ~perm:Types.perm_rw
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match Iommu.translate iommu ~pasid:1 ~va:0x4000_0010L ~access:Iommu.Read with
  | Iommu.Ok_pa pa -> Alcotest.(check int64) "pa" 0x1010L pa
  | Iommu.Fault _ -> Alcotest.fail "unexpected fault");
  (match Iommu.translate iommu ~pasid:1 ~va:0x5000_0000L ~access:Iommu.Read with
  | Iommu.Fault { reason = Iommu.Not_mapped; _ } -> ()
  | _ -> Alcotest.fail "expected not-mapped fault");
  (match Iommu.translate iommu ~pasid:2 ~va:0x4000_0000L ~access:Iommu.Read with
  | Iommu.Fault { reason = Iommu.Not_mapped; _ } -> ()
  | _ -> Alcotest.fail "expected fault in foreign pasid");
  Alcotest.(check int) "faults delivered" 2 (List.length !faults);
  Alcotest.(check int) "fault counter" 2 (Iommu.faults iommu)

let test_iommu_tlb_caching () =
  let iommu = Iommu.create () in
  (match
     Iommu.map iommu ~pasid:1 ~va:0L ~pa:0x1000L ~bytes:page ~perm:Types.perm_rw
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  ignore (Iommu.translate iommu ~pasid:1 ~va:0L ~access:Iommu.Read);
  ignore (Iommu.translate iommu ~pasid:1 ~va:8L ~access:Iommu.Read);
  ignore (Iommu.translate iommu ~pasid:1 ~va:16L ~access:Iommu.Read);
  Alcotest.(check int) "one walk" 1 (Iommu.walks iommu);
  Alcotest.(check int) "two hits" 2 (Iommu.tlb_hits iommu)

let test_iommu_unmap_invalidates_tlb () =
  let iommu = Iommu.create () in
  (match
     Iommu.map iommu ~pasid:1 ~va:0L ~pa:0x1000L ~bytes:page ~perm:Types.perm_rw
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  ignore (Iommu.translate iommu ~pasid:1 ~va:0L ~access:Iommu.Read);
  let removed = Iommu.unmap iommu ~pasid:1 ~va:0L ~bytes:page in
  Alcotest.(check int) "one removed" 1 removed;
  match Iommu.translate iommu ~pasid:1 ~va:0L ~access:Iommu.Read with
  | Iommu.Fault { reason = Iommu.Not_mapped; _ } -> ()
  | _ -> Alcotest.fail "stale TLB entry survived unmap"

let test_iommu_write_protection () =
  let iommu = Iommu.create () in
  (match
     Iommu.map iommu ~pasid:1 ~va:0L ~pa:0x1000L ~bytes:page ~perm:Types.perm_r
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match Iommu.translate iommu ~pasid:1 ~va:0L ~access:Iommu.Read with
  | Iommu.Ok_pa _ -> ()
  | Iommu.Fault _ -> Alcotest.fail "read should succeed");
  match Iommu.translate iommu ~pasid:1 ~va:0L ~access:Iommu.Write with
  | Iommu.Fault { reason = Iommu.Protection; _ } -> ()
  | _ -> Alcotest.fail "expected protection fault"

let test_iommu_clear_pasid () =
  let iommu = Iommu.create () in
  (match
     Iommu.map iommu ~pasid:3 ~va:0L ~pa:0x1000L ~bytes:(Int64.mul 4L page)
       ~perm:Types.perm_rw
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "4 pages" 4 (Iommu.mapped_pages iommu ~pasid:3);
  Iommu.clear_pasid iommu ~pasid:3;
  Alcotest.(check int) "cleared" 0 (Iommu.mapped_pages iommu ~pasid:3);
  match Iommu.translate iommu ~pasid:3 ~va:0L ~access:Iommu.Read with
  | Iommu.Fault _ -> ()
  | _ -> Alcotest.fail "mapping survived clear_pasid"

let test_iommu_no_tlb_mode () =
  let iommu = Iommu.create ~no_tlb:true () in
  (match
     Iommu.map iommu ~pasid:1 ~va:0L ~pa:0x1000L ~bytes:page ~perm:Types.perm_rw
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  ignore (Iommu.translate iommu ~pasid:1 ~va:0L ~access:Iommu.Read);
  ignore (Iommu.translate iommu ~pasid:1 ~va:0L ~access:Iommu.Read);
  Alcotest.(check int) "every access walks" 2 (Iommu.walks iommu);
  Alcotest.(check int) "no tlb hits" 0 (Iommu.tlb_hits iommu)

(* A run of [n] bytes is accounted as [n] byte-translations: after a
   miss (walk and refill), a hit that is not the newest, and an eviction,
   the counters and the saved TLB (slots, LRU stamps, clock) match [n]
   separate [translate_pa] calls. *)
let test_iommu_translate_run_replays_bytes () =
  let mk () =
    let iommu = Iommu.create ~tlb_sets:1 ~tlb_ways:2 () in
    (match
       Iommu.map iommu ~pasid:1 ~va:0L ~pa:0x10_000L ~bytes:(Int64.mul 4L page)
         ~perm:Types.perm_rw
     with
    | Ok () -> ()
    | Error e -> Alcotest.fail e);
    iommu
  in
  let state iommu =
    let w = Lastcpu_sim.Snapshot.W.create () in
    Iommu.save w iommu;
    ( [ Iommu.translations iommu; Iommu.tlb_hits iommu; Iommu.tlb_misses iommu;
        Iommu.tlb_evictions iommu; Iommu.walks iommu; Iommu.walk_levels iommu ],
      Lastcpu_sim.Snapshot.W.contents w )
  in
  let runs = [ (0, 16); (4096, 8); (16, 4); (8192, 2); (4100, 16); (0, 1) ] in
  let a = mk () and b = mk () in
  List.iter
    (fun (vai, n) ->
      let pa = Iommu.translate_run a ~pasid:1 ~vai ~n ~access:Iommu.Read in
      for i = 0 to n - 1 do
        let pb = Iommu.translate_pa b ~pasid:1 ~vai:(vai + i) ~access:Iommu.Read in
        if i = 0 then Alcotest.(check int) "same physical address" pb pa
      done;
      let counters_a, saved_a = state a and counters_b, saved_b = state b in
      Alcotest.(check (list int)) "counters" counters_b counters_a;
      Alcotest.(check string) "saved TLB" saved_b saved_a)
    runs;
  Alcotest.check_raises "a run may not cross a page"
    (Invalid_argument "Iommu.translate_run: run must be non-empty within one page")
    (fun () -> ignore (Iommu.translate_run a ~pasid:1 ~vai:4090 ~n:8 ~access:Iommu.Read))

let () =
  Alcotest.run "iommu"
    [
      ( "pagetable",
        [
          Alcotest.test_case "map and walk" `Quick test_pt_map_walk;
          Alcotest.test_case "no mapping" `Quick test_pt_no_mapping;
          Alcotest.test_case "permission denied" `Quick test_pt_permission_denied;
          Alcotest.test_case "remap rejected" `Quick test_pt_remap_rejected;
          Alcotest.test_case "unaligned rejected" `Quick test_pt_unaligned_rejected;
          Alcotest.test_case "range all-or-nothing" `Quick test_pt_range_all_or_nothing;
          Alcotest.test_case "unmap range" `Quick test_pt_unmap_range;
          Alcotest.test_case "iter" `Quick test_pt_iter;
          QCheck_alcotest.to_alcotest pt_prop_roundtrip;
        ] );
      ( "tlb",
        [
          Alcotest.test_case "hit/miss" `Quick test_tlb_hit_miss;
          Alcotest.test_case "pasid separation" `Quick test_tlb_pasid_separation;
          Alcotest.test_case "lru eviction" `Quick test_tlb_lru_eviction;
          Alcotest.test_case "invalidate" `Quick test_tlb_invalidate;
        ] );
      ( "iommu",
        [
          Alcotest.test_case "translate and fault" `Quick test_iommu_translate_and_fault;
          Alcotest.test_case "tlb caching" `Quick test_iommu_tlb_caching;
          Alcotest.test_case "unmap invalidates tlb" `Quick test_iommu_unmap_invalidates_tlb;
          Alcotest.test_case "write protection" `Quick test_iommu_write_protection;
          Alcotest.test_case "clear pasid" `Quick test_iommu_clear_pasid;
          Alcotest.test_case "no-tlb mode" `Quick test_iommu_no_tlb_mode;
          Alcotest.test_case "translate_run per-byte accounting" `Quick
            test_iommu_translate_run_replays_bytes;
        ] );
    ]
