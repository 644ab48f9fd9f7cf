(* Tests for the inode file system. *)

module Nand = Lastcpu_flash.Nand
module Ftl = Lastcpu_flash.Ftl
module Fs = Lastcpu_fs.Fs

let mkfs ?cache () =
  let nand =
    Nand.create ~geometry:{ Nand.blocks = 64; pages_per_block = 16; page_size = 4096 } ()
  in
  let ftl = Ftl.create ~nand () in
  match Fs.format ?cache ftl with
  | Ok fs -> (fs, ftl)
  | Error e -> failwith (Fs.error_to_string e)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Fs.error_to_string e)

let expect_err name = function
  | Ok _ -> Alcotest.fail (name ^ ": expected error")
  | Error _ -> ()

let check_clean name fs =
  match Fs.fsck fs with
  | Error e -> Alcotest.fail (Fs.error_to_string e)
  | Ok r ->
    let msg = Format.asprintf "%s: %a" name Fs.pp_fsck_report r in
    Alcotest.(check int) (msg ^ " leaked") 0 r.Fs.leaked_blocks;
    Alcotest.(check int) (msg ^ " shared") 0 r.Fs.shared_blocks;
    Alcotest.(check int) (msg ^ " unmarked") 0 r.Fs.unmarked_blocks;
    Alcotest.(check int) (msg ^ " orphans") 0 r.Fs.orphan_inodes;
    r

(* --- basics ---------------------------------------------------------------- *)

let test_create_stat () =
  let fs, _ = mkfs () in
  ok (Fs.create fs ~user:"alice" "/hello.txt");
  let st = ok (Fs.stat fs "/hello.txt") in
  Alcotest.(check int) "size 0" 0 st.Fs.size;
  Alcotest.(check string) "owner" "alice" st.Fs.owner;
  Alcotest.(check bool) "regular" true (st.Fs.kind = Fs.Regular);
  Alcotest.(check bool) "exists" true (Fs.exists fs "/hello.txt");
  Alcotest.(check bool) "missing" false (Fs.exists fs "/nope")

let test_write_read () =
  let fs, _ = mkfs () in
  ok (Fs.create fs ~user:"alice" "/f");
  ok (Fs.write fs ~user:"alice" "/f" ~off:0 "hello world");
  Alcotest.(check string) "read" "hello world"
    (ok (Fs.read fs ~user:"alice" "/f" ~off:0 ~len:100));
  Alcotest.(check string) "partial" "world"
    (ok (Fs.read fs ~user:"alice" "/f" ~off:6 ~len:5));
  Alcotest.(check string) "past eof" "" (ok (Fs.read fs ~user:"alice" "/f" ~off:50 ~len:10));
  Alcotest.(check int) "size" 11 (ok (Fs.file_size fs "/f"))

let test_write_extends_with_holes () =
  let fs, _ = mkfs () in
  ok (Fs.create fs ~user:"alice" "/f");
  ok (Fs.write fs ~user:"alice" "/f" ~off:10000 "far");
  Alcotest.(check int) "size" 10003 (ok (Fs.file_size fs "/f"));
  let hole = ok (Fs.read fs ~user:"alice" "/f" ~off:0 ~len:4) in
  Alcotest.(check string) "hole reads zero" "\000\000\000\000" hole;
  Alcotest.(check string) "tail" "far" (ok (Fs.read fs ~user:"alice" "/f" ~off:10000 ~len:3))

let test_large_file_indirect () =
  let fs, _ = mkfs () in
  ok (Fs.create fs ~user:"alice" "/big");
  (* 60 pages: beyond the 12 direct pointers, into the indirect block. *)
  let chunk = String.make 4096 'x' in
  for i = 0 to 59 do
    ok (Fs.write fs ~user:"alice" "/big" ~off:(i * 4096) chunk)
  done;
  Alcotest.(check int) "size" (60 * 4096) (ok (Fs.file_size fs "/big"));
  let back = ok (Fs.read fs ~user:"alice" "/big" ~off:(45 * 4096) ~len:4096) in
  Alcotest.(check string) "indirect data" chunk back

let test_directories () =
  let fs, _ = mkfs () in
  ok (Fs.mkdir fs ~user:"alice" "/docs");
  ok (Fs.mkdir fs ~user:"alice" "/docs/sub");
  ok (Fs.create fs ~user:"alice" "/docs/a.txt");
  ok (Fs.create fs ~user:"alice" "/docs/b.txt");
  let names = List.sort compare (ok (Fs.readdir fs ~user:"alice" "/docs")) in
  Alcotest.(check (list string)) "listing" [ "a.txt"; "b.txt"; "sub" ] names;
  expect_err "rmdir non-empty" (Fs.unlink fs ~user:"alice" "/docs");
  ok (Fs.unlink fs ~user:"alice" "/docs/a.txt");
  ok (Fs.unlink fs ~user:"alice" "/docs/b.txt");
  ok (Fs.unlink fs ~user:"alice" "/docs/sub");
  ok (Fs.unlink fs ~user:"alice" "/docs");
  Alcotest.(check bool) "gone" false (Fs.exists fs "/docs")

let test_unlink_frees_space () =
  let fs, _ = mkfs () in
  let before = Fs.free_blocks fs in
  ok (Fs.create fs ~user:"alice" "/f");
  ok (Fs.write fs ~user:"alice" "/f" ~off:0 (String.make 20000 'x'));
  Alcotest.(check bool) "space consumed" true (Fs.free_blocks fs < before);
  ok (Fs.unlink fs ~user:"alice" "/f");
  Alcotest.(check int) "space restored" before (Fs.free_blocks fs)

let test_truncate () =
  let fs, _ = mkfs () in
  ok (Fs.create fs ~user:"alice" "/f");
  ok (Fs.write fs ~user:"alice" "/f" ~off:0 (String.make 10000 'x'));
  ok (Fs.truncate fs ~user:"alice" "/f" ~len:100);
  Alcotest.(check int) "shrunk" 100 (ok (Fs.file_size fs "/f"));
  Alcotest.(check string) "data intact" (String.make 100 'x')
    (ok (Fs.read fs ~user:"alice" "/f" ~off:0 ~len:200));
  ok (Fs.truncate fs ~user:"alice" "/f" ~len:0);
  Alcotest.(check int) "empty" 0 (ok (Fs.file_size fs "/f"));
  (* Grow-truncate produces zeroes. *)
  ok (Fs.truncate fs ~user:"alice" "/f" ~len:50);
  Alcotest.(check string) "zeros" (String.make 50 '\000')
    (ok (Fs.read fs ~user:"alice" "/f" ~off:0 ~len:50))

let test_exists_and_duplicate () =
  let fs, _ = mkfs () in
  ok (Fs.create fs ~user:"alice" "/f");
  expect_err "duplicate create" (Fs.create fs ~user:"alice" "/f");
  expect_err "missing parent" (Fs.create fs ~user:"alice" "/no/such/f")

let test_rename_same_dir () =
  let fs, _ = mkfs () in
  ok (Fs.create fs ~user:"u" "/a");
  ok (Fs.write fs ~user:"u" "/a" ~off:0 "payload");
  ok (Fs.rename fs ~user:"u" "/a" "/b");
  Alcotest.(check bool) "old gone" false (Fs.exists fs "/a");
  Alcotest.(check string) "data moved" "payload"
    (ok (Fs.read fs ~user:"u" "/b" ~off:0 ~len:7));
  ignore (check_clean "after same-dir rename" fs)

let test_rename_across_dirs () =
  let fs, _ = mkfs () in
  ok (Fs.mkdir fs ~user:"u" "/src");
  ok (Fs.mkdir fs ~user:"u" "/dst");
  ok (Fs.create fs ~user:"u" "/src/f");
  ok (Fs.write fs ~user:"u" "/src/f" ~off:0 "x-dir");
  ok (Fs.rename fs ~user:"u" "/src/f" "/dst/g");
  Alcotest.(check (list string)) "src empty" [] (ok (Fs.readdir fs ~user:"u" "/src"));
  Alcotest.(check string) "moved" "x-dir" (ok (Fs.read fs ~user:"u" "/dst/g" ~off:0 ~len:5));
  ignore (check_clean "after cross-dir rename" fs)

let test_rename_replaces_target () =
  let fs, _ = mkfs () in
  let before = Fs.free_blocks fs in
  ok (Fs.create fs ~user:"u" "/new");
  ok (Fs.write fs ~user:"u" "/new" ~off:0 "fresh");
  ok (Fs.create fs ~user:"u" "/old");
  ok (Fs.write fs ~user:"u" "/old" ~off:0 (String.make 10000 'o'));
  ok (Fs.rename fs ~user:"u" "/new" "/old");
  Alcotest.(check string) "target replaced" "fresh"
    (ok (Fs.read fs ~user:"u" "/old" ~off:0 ~len:5));
  Alcotest.(check bool) "source gone" false (Fs.exists fs "/new");
  (* The replaced file's blocks were freed (3 data blocks). *)
  Alcotest.(check bool) "space reclaimed" true (Fs.free_blocks fs >= before - 2);
  ignore (check_clean "after replacing rename" fs)

let test_rename_errors () =
  let fs, _ = mkfs () in
  ok (Fs.create fs ~user:"u" "/f");
  ok (Fs.mkdir fs ~user:"u" "/d");
  expect_err "missing source" (Fs.rename fs ~user:"u" "/ghost" "/x");
  expect_err "onto directory" (Fs.rename fs ~user:"u" "/f" "/d");
  expect_err "missing target parent" (Fs.rename fs ~user:"u" "/f" "/no/where");
  (* Permission: bob cannot move alice's file out of her 0o755 dir. *)
  ok (Fs.mkdir fs ~user:"alice" ~mode:0o755 "/hers");
  ok (Fs.create fs ~user:"alice" "/hers/doc");
  expect_err "no write perm on parent" (Fs.rename fs ~user:"bob" "/hers/doc" "/stolen")

(* --- permissions -------------------------------------------------------------- *)

let test_permissions () =
  let fs, _ = mkfs () in
  ok (Fs.create fs ~user:"alice" ~mode:0o600 "/private");
  ok (Fs.write fs ~user:"alice" "/private" ~off:0 "secret");
  expect_err "other cannot read" (Fs.read fs ~user:"bob" "/private" ~off:0 ~len:6);
  expect_err "other cannot write" (Fs.write fs ~user:"bob" "/private" ~off:0 "x");
  Alcotest.(check string) "owner reads" "secret"
    (ok (Fs.read fs ~user:"alice" "/private" ~off:0 ~len:6));
  Alcotest.(check string) "root reads" "secret"
    (ok (Fs.read fs ~user:"root" "/private" ~off:0 ~len:6))

let test_chmod_chown () =
  let fs, _ = mkfs () in
  ok (Fs.create fs ~user:"alice" ~mode:0o600 "/f");
  expect_err "non-owner chmod" (Fs.chmod fs ~user:"bob" "/f" ~mode:0o666);
  ok (Fs.chmod fs ~user:"alice" "/f" ~mode:0o644);
  Alcotest.(check string) "bob can read now" ""
    (ok (Fs.read fs ~user:"bob" "/f" ~off:0 ~len:0));
  expect_err "non-root chown" (Fs.chown fs ~user:"alice" "/f" ~owner:"bob");
  ok (Fs.chown fs ~user:"root" "/f" ~owner:"bob");
  Alcotest.(check string) "new owner" "bob" (ok (Fs.stat fs "/f")).Fs.owner

let test_dir_write_permission () =
  let fs, _ = mkfs () in
  ok (Fs.mkdir fs ~user:"alice" ~mode:0o755 "/her");
  expect_err "bob cannot create in alice's dir"
    (Fs.create fs ~user:"bob" "/her/file");
  ok (Fs.create fs ~user:"alice" "/her/file")

(* --- persistence ---------------------------------------------------------------- *)

let test_mount_persistence () =
  let fs, ftl = mkfs () in
  ok (Fs.create fs ~user:"alice" "/persist");
  ok (Fs.write fs ~user:"alice" "/persist" ~off:0 "durable data");
  (* Remount from the same flash: everything must still be there. *)
  let fs2 = ok (Fs.mount ftl) in
  Alcotest.(check string) "data survives remount" "durable data"
    (ok (Fs.read fs2 ~user:"alice" "/persist" ~off:0 ~len:12));
  Alcotest.(check string) "owner survives" "alice" (ok (Fs.stat fs2 "/persist")).Fs.owner

let test_mount_rejects_unformatted () =
  let nand =
    Nand.create ~geometry:{ Nand.blocks = 64; pages_per_block = 16; page_size = 4096 } ()
  in
  let ftl = Ftl.create ~nand () in
  match Fs.mount ftl with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "mounted unformatted device"

let test_cache_equivalence () =
  (* The same operation sequence with and without the device cache must
     produce identical observable state. *)
  let run cache =
    let fs, _ = mkfs ~cache () in
    ok (Fs.mkdir fs ~user:"u" "/d");
    ok (Fs.create fs ~user:"u" "/d/f");
    for i = 0 to 20 do
      ok (Fs.write fs ~user:"u" "/d/f" ~off:(i * 1000) (Printf.sprintf "<%d>" i))
    done;
    ok (Fs.truncate fs ~user:"u" "/d/f" ~len:15000);
    ok (Fs.read fs ~user:"u" "/d/f" ~off:0 ~len:15000)
  in
  Alcotest.(check string) "cached = uncached" (run false) (run true)

let test_fsck_clean_after_torture () =
  let fs, ftl = mkfs () in
  (* Torture: creates, writes (direct + indirect), truncates, unlinks,
     nested directories. *)
  ok (Fs.mkdir fs ~user:"u" "/d1");
  ok (Fs.mkdir fs ~user:"u" "/d1/d2");
  for i = 0 to 9 do
    let p = Printf.sprintf "/d1/f%d" i in
    ok (Fs.create fs ~user:"u" p);
    ok (Fs.write fs ~user:"u" p ~off:(i * 3000) (String.make 5000 'x'))
  done;
  (* One big file through the indirect block. *)
  ok (Fs.create fs ~user:"u" "/d1/d2/big");
  for i = 0 to 39 do
    ok (Fs.write fs ~user:"u" "/d1/d2/big" ~off:(i * 4096) (String.make 4096 'b'))
  done;
  ok (Fs.truncate fs ~user:"u" "/d1/d2/big" ~len:10000);
  for i = 0 to 4 do
    ok (Fs.unlink fs ~user:"u" (Printf.sprintf "/d1/f%d" i))
  done;
  let r = check_clean "after torture" fs in
  Alcotest.(check int) "files counted" 6 r.Fs.files;
  Alcotest.(check int) "dirs counted (incl root)" 3 r.Fs.directories;
  (* Remounting sees the same healthy image. *)
  let fs2 = ok (Fs.mount ftl) in
  ignore (check_clean "after remount" fs2)

let test_fsck_counts_usage () =
  let fs, _ = mkfs () in
  let before = (check_clean "empty" fs).Fs.used_blocks in
  ok (Fs.create fs ~user:"u" "/f");
  ok (Fs.write fs ~user:"u" "/f" ~off:0 (String.make 8192 'x'));
  let after = (check_clean "with file" fs).Fs.used_blocks in
  (* 2 data blocks + 1 root-dir data block appeared (root dir grew). *)
  Alcotest.(check bool) "usage grew by >= 2" true (after - before >= 2)

(* A returned string is never a view of the cached block: a later partial
   write into the same block must not show through it. *)
let test_read_result_unchanged_by_later_write cache () =
  let fs, _ = mkfs ~cache () in
  ok (Fs.create fs ~user:"u" "/f");
  ok (Fs.write fs ~user:"u" "/f" ~off:0 (String.make 100 'a'));
  let first = ok (Fs.read fs ~user:"u" "/f" ~off:0 ~len:100) in
  ok (Fs.write fs ~user:"u" "/f" ~off:10 "BBBB");
  Alcotest.(check string) "earlier read unchanged" (String.make 100 'a') first;
  Alcotest.(check string) "re-read merged"
    (String.make 10 'a' ^ "BBBB" ^ String.make 86 'a')
    (ok (Fs.read fs ~user:"u" "/f" ~off:0 ~len:100))

(* Accounting pin: one fixed sequence on a geometry small enough that GC
   runs. Every FS block access and every NAND operation is simulated cost,
   so these counts must only move with a deliberate model change. *)
let test_accounting_pinned cache () =
  let m = Lastcpu_sim.Metrics.create () in
  let nand =
    Nand.create ~geometry:{ Nand.blocks = 16; pages_per_block = 16; page_size = 4096 } ()
  in
  let ftl = Ftl.create ~nand () in
  let fs = ok (Fs.format ~cache ~metrics:m ftl) in
  ok (Fs.create fs ~user:"u" "/old");
  ok (Fs.write fs ~user:"u" "/old" ~off:0 (String.make 6000 'o'));
  ok (Fs.create fs ~user:"u" "/log");
  (* 1 KiB appends: 150 KiB crosses the 12 direct blocks into the indirect
     one and writes the 256-page chip past full. *)
  for i = 0 to 149 do
    ok
      (Fs.write fs ~user:"u" "/log" ~off:(i * 1024)
         (String.make 1024 (Char.chr (65 + (i mod 26)))))
  done;
  ok (Fs.rename fs ~user:"u" "/log" "/old");
  ok (Fs.unlink fs ~user:"u" "/old");
  let fs_count name = Lastcpu_sim.Metrics.counter_read m ~actor:"fs" ~name in
  Alcotest.(check (list int))
    "block_reads, cache_hits, block_writes, programs, reads, erases, gc_runs"
    (if cache then [ 974; 974; 476; 503; 27; 18; 18 ]
     else [ 974; 0; 476; 503; 1001; 18; 18 ])
    [
      fs_count "block_reads";
      fs_count "cache_hits";
      fs_count "block_writes";
      Nand.programs nand;
      Nand.reads nand;
      Nand.total_erases nand;
      Ftl.gc_runs ftl;
    ]

(* Path lookup reads the same blocks, in the same order, as it did when
   it decoded every inode and parsed every directory: the block_reads and
   cache_hits deltas of a stat (its lookup plus one inode read) were
   measured on that implementation. /big's 21 entries of 206 bytes fill
   two blocks, and its 20th entry straddles the boundary. *)
let test_lookup_reads_pinned cache () =
  let m = Lastcpu_sim.Metrics.create () in
  let nand =
    Nand.create ~geometry:{ Nand.blocks = 64; pages_per_block = 16; page_size = 4096 } ()
  in
  let fs = ok (Fs.format ~cache ~metrics:m (Ftl.create ~nand ())) in
  let big i = Printf.sprintf "/big/%s%02d" (String.make 198 'n') i in
  ok (Fs.mkdir fs ~user:"u" "/a");
  ok (Fs.mkdir fs ~user:"u" "/a/b");
  ok (Fs.create fs ~user:"u" "/a/b/c");
  ok (Fs.create fs ~user:"u" "/a/data.log");
  ok (Fs.mkdir fs ~user:"u" "/big");
  for i = 0 to 20 do
    ok (Fs.create fs ~user:"u" (big i))
  done;
  let count name = Lastcpu_sim.Metrics.counter_read m ~actor:"fs" ~name in
  List.iter
    (fun (path, want, reads) ->
      let r0 = count "block_reads" and h0 = count "cache_hits" in
      let got =
        match Fs.stat fs path with
        | Ok st -> Printf.sprintf "ino %d" st.Fs.ino
        | Error e -> Fs.error_to_string e
      in
      let name = if String.length path > 20 then String.sub path 0 20 else path in
      Alcotest.(check string) (name ^ " result") want got;
      Alcotest.(check (pair int int))
        (name ^ " block_reads, cache_hits")
        (reads, if cache then reads else 0)
        (count "block_reads" - r0, count "cache_hits" - h0))
    [
      ("/a/b/c", "ino 3", 7);
      ("/a/nope", "not found: /a/nope", 4);
      ("/a/data", "not found: /a/data", 4);
      ("/a/data.log", "ino 4", 5);
      ("/a/b/c/x", "not a directory: /a/b/c/x", 7);
      ("/big", "ino 5", 3);
      (big 0, "ino 6", 6);
      (big 19, "ino 25", 6);
      (big 20, "ino 26", 6);
    ]

let fs_model_prop =
  (* Random write/read sequences against a pure byte-array model. *)
  QCheck.Test.make ~name:"fs file contents match byte-array model" ~count:25
    QCheck.(list (pair (int_bound 30_000) (string_of_size Gen.(int_range 1 2000))))
    (fun writes ->
      let fs, _ = mkfs () in
      (match Fs.create fs ~user:"u" "/m" with Ok () -> () | Error _ -> ());
      let model = Bytes.create 40_000 in
      Bytes.fill model 0 40_000 '\000';
      let size = ref 0 in
      List.for_all
        (fun (off, data) ->
          match Fs.write fs ~user:"u" "/m" ~off data with
          | Error _ -> true (* no-space etc.: skip *)
          | Ok () ->
            Bytes.blit_string data 0 model off (String.length data);
            size := max !size (off + String.length data);
            let expect = Bytes.sub_string model 0 !size in
            (match Fs.read fs ~user:"u" "/m" ~off:0 ~len:!size with
            | Ok got -> String.equal got expect
            | Error _ -> false))
        writes)

(* Stale views: block reads hand out views of NAND pages, valid only until
   the next block write, and every write may run GC on this 16x16 chip
   (the accounting pin's), relocating pages and erasing their block. A
   seeded mix of creates, writes across direct and indirect blocks,
   truncates, renames and unlinks is checked after every step against a
   model of file contents, and at one random step the stack goes through
   a checkpoint into a fresh chip. Any view held across a write would
   read another block's bytes. *)
let random_ops_match_model ~cache ~seed =
  let geometry = { Nand.blocks = 16; pages_per_block = 16; page_size = 4096 } in
  let stack () =
    let ftl = Ftl.create ~nand:(Nand.create ~geometry ()) () in
    (ftl, Ftl.nand ftl)
  in
  let ftl, nand = stack () in
  let fs = ref (ok (Fs.format ~cache ftl)) and ftl = ref ftl and nand = ref nand in
  let rng = Random.State.make [| seed; Bool.to_int cache |] in
  let steps = 900 in
  let checkpoint_at = Random.State.int rng steps in
  let model : (string, Bytes.t) Hashtbl.t = Hashtbl.create 8 in
  let names = [| "/a"; "/b"; "/d/c" |] in
  ok (Fs.mkdir !fs ~user:"u" "/d");
  let pick () = names.(Random.State.int rng (Array.length names)) in
  let step () =
    let name = pick () in
    match (Random.State.int rng 100, Hashtbl.find_opt model name) with
    | _, None ->
      ok (Fs.create !fs ~user:"u" name);
      Hashtbl.replace model name Bytes.empty
    | n, Some cur when n < 95 ->
      (* Appends and random writes up to about 280 KiB: deep into the
         indirect block, and three such files nearly fill the chip, so GC
         must relocate live pages (an indirect block's among them) while
         an unlink is still reading its pointers. *)
      let size = Bytes.length cur in
      let off =
        if n < 80 && size < 260_000 then size else Random.State.int rng 260_000
      in
      let data =
        String.init (1 + Random.State.int rng 24_000) (fun _ ->
            Char.chr (97 + Random.State.int rng 26))
      in
      let len = max (Bytes.length cur) (off + String.length data) in
      let next = Bytes.make len '\000' in
      Bytes.blit cur 0 next 0 (Bytes.length cur);
      Bytes.blit_string data 0 next off (String.length data);
      ok (Fs.write !fs ~user:"u" name ~off data);
      Hashtbl.replace model name next
    | (95 | 96), Some cur ->
      let len = Random.State.int rng (Bytes.length cur + 5000) in
      let next = Bytes.make len '\000' in
      Bytes.blit cur 0 next 0 (min len (Bytes.length cur));
      ok (Fs.truncate !fs ~user:"u" name ~len);
      Hashtbl.replace model name next
    | (97 | 98), Some cur ->
      let target = pick () in
      ok (Fs.rename !fs ~user:"u" name target);
      if name <> target then begin
        Hashtbl.remove model name;
        Hashtbl.replace model target cur
      end
    | _, Some _ ->
      ok (Fs.unlink !fs ~user:"u" name);
      Hashtbl.remove model name
  in
  let checkpoint () =
    let w = Lastcpu_sim.Snapshot.W.create () in
    Nand.save w !nand;
    Ftl.save w !ftl;
    Fs.save w !fs;
    let r = Lastcpu_sim.Snapshot.R.of_string (Lastcpu_sim.Snapshot.W.contents w) in
    let ftl', nand' = stack () in
    Nand.restore r nand';
    Ftl.restore r ftl';
    let fs' = ok (Fs.mount ~cache ftl') in
    Fs.restore r fs';
    fs := fs';
    ftl := ftl';
    nand := nand'
  in
  for i = 0 to steps - 1 do
    if i = checkpoint_at then checkpoint ();
    step ();
    Array.iter
      (fun name ->
        match Hashtbl.find_opt model name with
        | None ->
          Alcotest.(check bool) (Printf.sprintf "step %d: %s absent" i name) false
            (Fs.exists !fs name)
        | Some want ->
          Alcotest.(check string)
            (Printf.sprintf "step %d: %s contents" i name)
            (Bytes.to_string want)
            (ok (Fs.read !fs ~user:"u" name ~off:0 ~len:(Bytes.length want + 1))))
      names
  done;
  ignore (check_clean "after random ops" !fs);
  Alcotest.(check bool) "gc ran" true (Ftl.gc_runs !ftl > 0)

let test_random_ops_match_model cache () =
  List.iter (fun seed -> random_ops_match_model ~cache ~seed) [ 1; 2 ]

let () =
  Alcotest.run "fs"
    [
      ( "basics",
        [
          Alcotest.test_case "create/stat" `Quick test_create_stat;
          Alcotest.test_case "write/read" `Quick test_write_read;
          Alcotest.test_case "holes" `Quick test_write_extends_with_holes;
          Alcotest.test_case "indirect blocks" `Quick test_large_file_indirect;
          Alcotest.test_case "directories" `Quick test_directories;
          Alcotest.test_case "unlink frees space" `Quick test_unlink_frees_space;
          Alcotest.test_case "truncate" `Quick test_truncate;
          Alcotest.test_case "duplicates and bad paths" `Quick test_exists_and_duplicate;
          Alcotest.test_case "rename same dir" `Quick test_rename_same_dir;
          Alcotest.test_case "rename across dirs" `Quick test_rename_across_dirs;
          Alcotest.test_case "rename replaces target" `Quick test_rename_replaces_target;
          Alcotest.test_case "rename errors" `Quick test_rename_errors;
        ] );
      ( "permissions",
        [
          Alcotest.test_case "owner/other" `Quick test_permissions;
          Alcotest.test_case "chmod/chown" `Quick test_chmod_chown;
          Alcotest.test_case "directory write" `Quick test_dir_write_permission;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "mount" `Quick test_mount_persistence;
          Alcotest.test_case "rejects unformatted" `Quick test_mount_rejects_unformatted;
          Alcotest.test_case "cache equivalence" `Quick test_cache_equivalence;
          Alcotest.test_case "fsck after torture" `Quick test_fsck_clean_after_torture;
          Alcotest.test_case "fsck usage accounting" `Quick test_fsck_counts_usage;
          Alcotest.test_case "read result unchanged by later write (cache)" `Quick
            (test_read_result_unchanged_by_later_write true);
          Alcotest.test_case "read result unchanged by later write (no cache)" `Quick
            (test_read_result_unchanged_by_later_write false);
          Alcotest.test_case "accounting pinned (cache)" `Quick
            (test_accounting_pinned true);
          Alcotest.test_case "accounting pinned (no cache)" `Quick
            (test_accounting_pinned false);
          Alcotest.test_case "lookup reads pinned (cache)" `Quick
            (test_lookup_reads_pinned true);
          Alcotest.test_case "lookup reads pinned (no cache)" `Quick
            (test_lookup_reads_pinned false);
          QCheck_alcotest.to_alcotest fs_model_prop;
          Alcotest.test_case "random ops match model (cache)" `Quick
            (test_random_ops_match_model true);
          Alcotest.test_case "random ops match model (no cache)" `Quick
            (test_random_ops_match_model false);
        ] );
    ]
