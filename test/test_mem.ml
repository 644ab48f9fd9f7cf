(* Tests for the memory substrate: layout arithmetic, buddy allocator,
   simulated physical memory. *)

module Layout = Lastcpu_mem.Layout
module Buddy = Lastcpu_mem.Buddy
module Physmem = Lastcpu_mem.Physmem

(* --- Layout ----------------------------------------------------------- *)

let test_layout_alignment () =
  Alcotest.(check int64) "align_up 0" 0L (Layout.align_up 0L);
  Alcotest.(check int64) "align_up 1" 4096L (Layout.align_up 1L);
  Alcotest.(check int64) "align_up 4096" 4096L (Layout.align_up 4096L);
  Alcotest.(check int64) "align_up 4097" 8192L (Layout.align_up 4097L);
  Alcotest.(check int64) "align_down 4097" 4096L (Layout.align_down 4097L);
  Alcotest.(check bool) "aligned" true (Layout.is_page_aligned 8192L);
  Alcotest.(check bool) "unaligned" false (Layout.is_page_aligned 8193L)

let test_layout_pages () =
  Alcotest.(check int) "0 bytes" 0 (Layout.pages_of_bytes 0L);
  Alcotest.(check int) "1 byte" 1 (Layout.pages_of_bytes 1L);
  Alcotest.(check int) "4096" 1 (Layout.pages_of_bytes 4096L);
  Alcotest.(check int) "4097" 2 (Layout.pages_of_bytes 4097L);
  Alcotest.(check int64) "page of addr" 2L (Layout.page_of_addr 8193L);
  Alcotest.(check int) "offset" 1 (Layout.offset_in_page 8193L)

(* --- Buddy -------------------------------------------------------------- *)

let test_buddy_alloc_free () =
  let b = Buddy.create ~base:0L ~pages:64 in
  Alcotest.(check int) "all free" 64 (Buddy.free_pages b);
  let a1 = Buddy.alloc b ~pages:1 in
  Alcotest.(check bool) "allocated" true (a1 <> None);
  Alcotest.(check int) "one used" 63 (Buddy.free_pages b);
  (match a1 with
  | Some addr -> Buddy.free b ~addr ~pages:1
  | None -> ());
  Alcotest.(check int) "freed" 64 (Buddy.free_pages b);
  Alcotest.(check int) "coalesced back" 64 (Buddy.largest_free_block b)

let test_buddy_rounds_to_power_of_two () =
  let b = Buddy.create ~base:0L ~pages:64 in
  (match Buddy.alloc b ~pages:3 with
  | Some _ -> ()
  | None -> Alcotest.fail "alloc 3 failed");
  (* 3 pages round to 4. *)
  Alcotest.(check int) "used 4" 4 (Buddy.used_pages b)

let test_buddy_exhaustion () =
  let b = Buddy.create ~base:0L ~pages:16 in
  let blocks = List.filter_map (fun _ -> Buddy.alloc b ~pages:4) [ 1; 2; 3; 4 ] in
  Alcotest.(check int) "four blocks" 4 (List.length blocks);
  Alcotest.(check (option int64)) "exhausted" None (Buddy.alloc b ~pages:1);
  List.iter (fun addr -> Buddy.free b ~addr ~pages:4) blocks;
  Alcotest.(check int) "all back" 16 (Buddy.free_pages b)

let test_buddy_distinct_addresses () =
  let b = Buddy.create ~base:0x10000L ~pages:128 in
  let addrs = List.filter_map (fun _ -> Buddy.alloc b ~pages:2) (List.init 32 Fun.id) in
  let sorted = List.sort_uniq compare addrs in
  Alcotest.(check int) "no duplicates" (List.length addrs) (List.length sorted);
  List.iter
    (fun a ->
      Alcotest.(check bool) "within range" true
        (a >= 0x10000L && a < Int64.add 0x10000L (Int64.mul 128L 4096L)))
    addrs

let test_buddy_double_free_rejected () =
  let b = Buddy.create ~base:0L ~pages:8 in
  match Buddy.alloc b ~pages:2 with
  | None -> Alcotest.fail "alloc failed"
  | Some addr ->
    Buddy.free b ~addr ~pages:2;
    Alcotest.check_raises "double free"
      (Invalid_argument "Buddy.free: not allocated (double free?)") (fun () ->
        Buddy.free b ~addr ~pages:2)

let test_buddy_size_mismatch_rejected () =
  let b = Buddy.create ~base:0L ~pages:8 in
  match Buddy.alloc b ~pages:4 with
  | None -> Alcotest.fail "alloc failed"
  | Some addr ->
    Alcotest.check_raises "size mismatch"
      (Invalid_argument "Buddy.free: size mismatch with allocation") (fun () ->
        Buddy.free b ~addr ~pages:1)

let test_buddy_fragmentation_then_coalesce () =
  let b = Buddy.create ~base:0L ~pages:16 in
  let a = List.filter_map (fun _ -> Buddy.alloc b ~pages:1) (List.init 16 Fun.id) in
  Alcotest.(check int) "largest block 0" 0 (Buddy.largest_free_block b);
  (* Free every other page: buddies cannot coalesce. *)
  List.iteri (fun i addr -> if i mod 2 = 0 then Buddy.free b ~addr ~pages:1) a;
  Alcotest.(check int) "fragmented" 1 (Buddy.largest_free_block b);
  List.iteri (fun i addr -> if i mod 2 = 1 then Buddy.free b ~addr ~pages:1) a;
  Alcotest.(check int) "fully coalesced" 16 (Buddy.largest_free_block b)

let buddy_invariant_prop =
  QCheck.Test.make ~name:"buddy invariants hold under random alloc/free" ~count:100
    QCheck.(list (pair (int_bound 4) bool))
    (fun script ->
      let b = Buddy.create ~base:0L ~pages:256 in
      let live = ref [] in
      List.iter
        (fun (order, do_alloc) ->
          if do_alloc || !live = [] then begin
            let pages = 1 lsl order in
            match Buddy.alloc b ~pages with
            | Some addr -> live := (addr, pages) :: !live
            | None -> ()
          end
          else begin
            match !live with
            | (addr, pages) :: rest ->
              Buddy.free b ~addr ~pages;
              live := rest
            | [] -> ()
          end)
        script;
      Buddy.check_invariants b)

(* --- Physmem ------------------------------------------------------------- *)

let test_physmem_rw () =
  let m = Physmem.create ~size:(Int64.mul 16L 4096L) () in
  Physmem.write_field m 0 1 0x42;
  Alcotest.(check int) "u8" 0x42 (Physmem.read_field m 0 1);
  Physmem.write_field64 m 100 0x1122334455667788L;
  Alcotest.(check int64) "u64" 0x1122334455667788L (Physmem.read_field64 m 100);
  Alcotest.(check int) "u64 little-endian low byte" 0x88
    (Physmem.read_field m 100 1)

let test_physmem_zero_fill () =
  let m = Physmem.create () in
  Alcotest.(check int) "untouched reads zero" 0 (Physmem.read_field m 12345 1);
  Alcotest.(check string) "bytes zero" (String.make 8 '\000')
    (Physmem.read_bytes m 99999L 8)

let test_physmem_cross_page () =
  let m = Physmem.create () in
  let data = String.init 100 (fun i -> Char.chr (i land 0xff)) in
  let addr = Int64.sub 8192L 50L in
  Physmem.write_bytes m addr data;
  Alcotest.(check string) "straddling read" data (Physmem.read_bytes m addr 100);
  Physmem.write_field64 m (4096 - 4) 0x0102030405060708L;
  Alcotest.(check int64) "straddling u64" 0x0102030405060708L
    (Physmem.read_field64 m (4096 - 4))

let test_physmem_bounds () =
  let m = Physmem.create ~size:4096L () in
  Alcotest.(check bool) "oob write raises" true
    (match Physmem.write_field m 4096 1 1 with
    | () -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "oob span raises" true
    (match Physmem.read_bytes m 4090L 10 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_physmem_sparse () =
  let m = Physmem.create ~size:(Int64.shift_left 1L 30) () in
  Physmem.write_field m 0 1 1;
  Physmem.write_field m (1 lsl 29) 1 1;
  Alcotest.(check int) "only touched frames" 2 (Physmem.touched_frames m)

(* A fill across a 64 KiB chunk boundary, over bytes already written, is
   the same as writing the filled string: same bytes, same touched set. *)
let test_physmem_fill_across_chunk () =
  let size = 1_000_000L in
  let addr = Int64.sub 65536L 5000L and len = 12_000 in
  let seed m =
    Physmem.write_bytes m (Int64.sub addr 100L) (String.make 300 'x');
    Physmem.write_bytes m (Int64.add addr 11_900L) (String.make 300 'y')
  in
  let filled = Physmem.create ~size () and written = Physmem.create ~size () in
  seed filled;
  seed written;
  Physmem.fill filled addr len '\xa5';
  Physmem.write_bytes written addr (String.make len '\xa5');
  Alcotest.(check string) "bytes"
    (Physmem.read_bytes written 0L 131072)
    (Physmem.read_bytes filled 0L 131072);
  Alcotest.(check int) "touched frames"
    (Physmem.touched_frames written)
    (Physmem.touched_frames filled);
  let image m =
    let w = Lastcpu_sim.Snapshot.W.create () in
    Physmem.save w m;
    Lastcpu_sim.Snapshot.W.contents w
  in
  Alcotest.(check string) "saved image" (image written) (image filled)

(* --- Bigarray backing: views, native-int entry points, snapshots -------- *)

module Snapshot = Lastcpu_sim.Snapshot

(* The native-int field accessors and the int64 byte-range accessors alias
   one store, with one bounds discipline. *)
let test_physmem_byte_aliases () =
  let m = Physmem.create ~size:1_000_000L () in
  Physmem.write_field m 4097 1 0xAB;
  Alcotest.(check string) "field write, range read" "\xab"
    (Physmem.read_bytes m 4097L 1);
  Physmem.write_bytes m 4098L "\xcd";
  Alcotest.(check int) "range write, field read" 0xCD
    (Physmem.read_field m 4098 1);
  Alcotest.(check int) "unmaterialised frame reads zero" 0
    (Physmem.read_field m 900_000 1);
  Alcotest.check_raises "int bounds enforced"
    (Invalid_argument "Physmem: access [0xf4240, +1) out of range") (fun () ->
      ignore (Physmem.read_field m 1_000_000 1))

(* A view is a real window onto DRAM: bytes written through it are seen by
   the copy path (including the cached chunk accessor) and vice versa. *)
let test_physmem_view_coherence () =
  let m = Physmem.create ~size:1_000_000L () in
  Physmem.write_bytes m 8192L "before";
  let v = Physmem.view m 8192L 64 in
  Alcotest.(check string) "view sees prior writes" "before"
    (String.init 6 (fun i -> Bigarray.Array1.get v i));
  Bigarray.Array1.set v 0 'B';
  Alcotest.(check string) "copy path sees view writes" "Before"
    (Physmem.read_bytes m 8192L 6);
  Physmem.write_field m 8193 1 (Char.code 'E');
  Alcotest.(check char) "view sees byte-path writes" 'E'
    (Bigarray.Array1.get v 1);
  (* Views must not cross the 64 KiB backing-chunk boundary. *)
  Alcotest.check_raises "cross-chunk view rejected"
    (Invalid_argument
       "Physmem.view: [0xffdc, +100) crosses a chunk boundary") (fun () ->
      ignore (Physmem.view m 65_500L 100))

(* Touched frames under a view are save-visible even if only the view ever
   wrote them. *)
let test_physmem_view_then_save () =
  let m = Physmem.create ~size:1_000_000L () in
  let v = Physmem.view m 12_288L 16 in
  Bigarray.Array1.set v 3 'Z';
  let w = Snapshot.W.create () in
  Physmem.save w m;
  let m2 = Physmem.create ~size:1_000_000L () in
  Physmem.restore (Snapshot.R.of_string (Snapshot.W.contents w)) m2;
  Alcotest.(check int) "view write survives the round trip" (Char.code 'Z')
    (Physmem.read_field m2 12_291 1)

let test_physmem_snapshot_roundtrip () =
  let m = Physmem.create ~size:2_000_000L () in
  Physmem.write_bytes m 0L "frame zero";
  Physmem.write_bytes m 1_048_576L "a megabyte in";
  Physmem.write_field m 1_999_999 1 0x7E;
  let w = Snapshot.W.create () in
  Physmem.save w m;
  let m2 = Physmem.create ~size:2_000_000L () in
  Physmem.restore (Snapshot.R.of_string (Snapshot.W.contents w)) m2;
  Alcotest.(check int) "frame count preserved" (Physmem.touched_frames m)
    (Physmem.touched_frames m2);
  Alcotest.(check string) "low frame" "frame zero" (Physmem.read_bytes m2 0L 10);
  Alcotest.(check string) "high frame" "a megabyte in"
    (Physmem.read_bytes m2 1_048_576L 13);
  Alcotest.(check int) "last byte" 0x7E (Physmem.read_field m2 1_999_999 1);
  Alcotest.(check int) "untouched stays zero" 0
    (Physmem.read_field m2 500_000 1);
  (* Restore replaces state: a dirty target ends up identical, and its
     one-entry caches cannot leak stale pre-restore bytes. *)
  let m3 = Physmem.create ~size:2_000_000L () in
  Physmem.write_bytes m3 0L "stale stale";
  ignore (Physmem.read_field m3 4 1);
  Physmem.restore (Snapshot.R.of_string (Snapshot.W.contents w)) m3;
  Alcotest.(check string) "restore overwrote dirty target" "frame zero"
    (Physmem.read_bytes m3 0L 10);
  Alcotest.(check int) "cached chunk not stale" (Char.code 'r')
    (Physmem.read_field m3 1 1)

(* The snapshot byte format predates the Bigarray backing: a checkpoint
   handcrafted in the old writer's layout (i64 size, then a (i64 page
   number, 4096-byte frame) list) must restore into today's store. *)
let test_physmem_restores_old_format () =
  let page = 4096 in
  let frame = String.init page (fun i -> Char.chr ((i * 7) land 0xff)) in
  let w = Snapshot.W.create () in
  Snapshot.W.int64 w 1_000_000L;
  Snapshot.W.list w
    (fun w (addr, bytes) ->
      Snapshot.W.int64 w addr;
      Snapshot.W.string w bytes)
    [ (2L, frame); (16L, frame) ];  (* pages at 0x2000, 0x10000 *)
  let m = Physmem.create ~size:1_000_000L () in
  Physmem.restore (Snapshot.R.of_string (Snapshot.W.contents w)) m;
  Alcotest.(check int) "two frames restored" 2 (Physmem.touched_frames m);
  Alcotest.(check string) "frame content" frame
    (Physmem.read_bytes m 8192L page);
  Alcotest.(check int) "second frame, view path"
    (Char.code frame.[17])
    (Char.code (Bigarray.Array1.get (Physmem.view m 65_536L page) 17));
  let w2 = Snapshot.W.create () in
  Snapshot.W.int64 w2 999_999L;
  let m2 = Physmem.create ~size:1_000_000L () in
  Alcotest.check_raises "size mismatch rejected"
    (Invalid_argument "Physmem.restore: DRAM size differs from checkpoint")
    (fun () -> Physmem.restore (Snapshot.R.of_string (Snapshot.W.contents w2)) m2)

let physmem_roundtrip_prop =
  QCheck.Test.make ~name:"physmem write/read roundtrip" ~count:200
    QCheck.(pair (int_bound 100_000) (string_of_size Gen.(int_range 1 300)))
    (fun (addr, data) ->
      let m = Physmem.create ~size:1_000_000L () in
      let addr = Int64.of_int addr in
      Physmem.write_bytes m addr data;
      String.equal (Physmem.read_bytes m addr (String.length data)) data)

let () =
  Alcotest.run "mem"
    [
      ( "layout",
        [
          Alcotest.test_case "alignment" `Quick test_layout_alignment;
          Alcotest.test_case "pages" `Quick test_layout_pages;
        ] );
      ( "buddy",
        [
          Alcotest.test_case "alloc/free" `Quick test_buddy_alloc_free;
          Alcotest.test_case "power-of-two rounding" `Quick test_buddy_rounds_to_power_of_two;
          Alcotest.test_case "exhaustion" `Quick test_buddy_exhaustion;
          Alcotest.test_case "distinct addresses" `Quick test_buddy_distinct_addresses;
          Alcotest.test_case "double free rejected" `Quick test_buddy_double_free_rejected;
          Alcotest.test_case "size mismatch rejected" `Quick test_buddy_size_mismatch_rejected;
          Alcotest.test_case "fragmentation/coalesce" `Quick test_buddy_fragmentation_then_coalesce;
          QCheck_alcotest.to_alcotest buddy_invariant_prop;
        ] );
      ( "physmem",
        [
          Alcotest.test_case "read/write" `Quick test_physmem_rw;
          Alcotest.test_case "zero fill" `Quick test_physmem_zero_fill;
          Alcotest.test_case "cross page" `Quick test_physmem_cross_page;
          Alcotest.test_case "bounds" `Quick test_physmem_bounds;
          Alcotest.test_case "sparse" `Quick test_physmem_sparse;
          Alcotest.test_case "fill across a chunk" `Quick
            test_physmem_fill_across_chunk;
          Alcotest.test_case "byte aliases" `Quick test_physmem_byte_aliases;
          Alcotest.test_case "view coherence" `Quick test_physmem_view_coherence;
          Alcotest.test_case "view then save" `Quick test_physmem_view_then_save;
          Alcotest.test_case "snapshot roundtrip" `Quick
            test_physmem_snapshot_roundtrip;
          Alcotest.test_case "old snapshot format" `Quick
            test_physmem_restores_old_format;
          QCheck_alcotest.to_alcotest physmem_roundtrip_prop;
        ] );
    ]
