(* Crash-survivable simulation: the snapshot container format (framing,
   CRC rejection, generation fallback), the engine's checkpoint-hook
   registry, the WAL watermark interplay (no double-apply after a
   restore), breaker and crash-window resume semantics, the Checkpoint
   orchestrator's mismatch handling, and the T16 kill-resume contract:
   a killed-and-resumed run is bit-identical to an uninterrupted one. *)

module Engine = Lastcpu_sim.Engine
module Snapshot = Lastcpu_sim.Snapshot
module Faults = Lastcpu_sim.Faults
module Metrics = Lastcpu_sim.Metrics
module Types = Lastcpu_proto.Types
module Message = Lastcpu_proto.Message
module Physmem = Lastcpu_mem.Physmem
module Sysbus = Lastcpu_bus.Sysbus
module Device = Lastcpu_device.Device
module Smart_ssd = Lastcpu_devices.Smart_ssd
module Store = Lastcpu_kv.Store
module Wal = Lastcpu_kv.Wal
module Kv_app = Lastcpu_kv.Kv_app
module Kv_proto = Lastcpu_kv.Kv_proto
module System = Lastcpu_core.System
module Scenario = Lastcpu_core.Scenario_kvs
module Checkpoint = Lastcpu_core.Checkpoint
module Experiments = Lastcpu_core.Experiments
module Iommu = Lastcpu_iommu.Iommu
module Dma = Lastcpu_virtio.Dma
module Vq = Lastcpu_virtio.Virtqueue
module Nand = Lastcpu_flash.Nand
module Ftl = Lastcpu_flash.Ftl
module Fs = Lastcpu_fs.Fs

let temp_snapshot () =
  let path = Filename.temp_file "lastcpu-snap-test" ".snap" in
  Sys.remove path;
  path

let cleanup path =
  List.iter
    (fun p -> try Sys.remove p with Sys_error _ -> ())
    [ path; Snapshot.previous_generation path ]

let ok = function Ok v -> v | Error e -> Alcotest.fail e

(* --- container format --------------------------------------------------- *)

let test_codec_roundtrip () =
  let w = Snapshot.W.create () in
  Snapshot.W.byte w 0xAB;
  Snapshot.W.u32 w 123_456_789;
  Snapshot.W.int64 w (-77L);
  Snapshot.W.varint w 300;
  Snapshot.W.vint w (-42);
  Snapshot.W.bool w true;
  Snapshot.W.float w 2.5;
  Snapshot.W.string w "hello \x00 binary";
  Snapshot.W.list w Snapshot.W.string [ "a"; "bb"; "" ];
  Snapshot.W.array w Snapshot.W.varint [| 1; 0; 9999 |];
  Snapshot.W.option w Snapshot.W.int64 (Some 5L);
  Snapshot.W.option w Snapshot.W.int64 None;
  let r = Snapshot.R.of_string (Snapshot.W.contents w) in
  Alcotest.(check int) "u8" 0xAB (Snapshot.R.byte r);
  Alcotest.(check int) "u32" 123_456_789 (Snapshot.R.u32 r);
  Alcotest.(check int64) "i64" (-77L) (Snapshot.R.int64 r);
  Alcotest.(check int) "varint" 300 (Snapshot.R.varint r);
  Alcotest.(check int) "vint" (-42) (Snapshot.R.vint r);
  Alcotest.(check bool) "bool" true (Snapshot.R.bool r);
  Alcotest.(check (float 0.0)) "float" 2.5 (Snapshot.R.float r);
  Alcotest.(check string) "string" "hello \x00 binary" (Snapshot.R.string r);
  Alcotest.(check (list string)) "list" [ "a"; "bb"; "" ]
    (Snapshot.R.list r Snapshot.R.string);
  Alcotest.(check (array int)) "array" [| 1; 0; 9999 |]
    (Snapshot.R.array r Snapshot.R.varint);
  Alcotest.(check (option int64)) "some" (Some 5L)
    (Snapshot.R.option r Snapshot.R.int64);
  Alcotest.(check (option int64)) "none" None
    (Snapshot.R.option r Snapshot.R.int64);
  Alcotest.(check bool) "eof" true (Snapshot.R.at_end r)

(* A named section whose body is exactly [body]'s bytes. *)
let section name body : Snapshot.section =
  (name, fun w -> String.iter (fun c -> Snapshot.W.byte w (Char.code c)) body)

(* A window's bytes up to its end. *)
let rest r =
  let b = Buffer.create 16 in
  while not (Snapshot.R.at_end r) do
    Buffer.add_char b (Char.chr (Snapshot.R.byte r))
  done;
  Buffer.contents b

let find_body sections name = Option.map rest (Snapshot.find sections name)

let rejects_corrupt what f =
  match f () with
  | exception Snapshot.R.Corrupt _ -> ()
  | _ -> Alcotest.fail (what ^ " accepted")

let sections = [ section "alpha" "aaaa"; section "beta" (String.make 300 'b') ]

let test_encode_decode () =
  let bytes = Snapshot.encode sections in
  match Snapshot.decode bytes with
  | Error e -> Alcotest.fail e
  | Ok decoded ->
    Alcotest.(check (option string)) "alpha" (Some "aaaa")
      (find_body decoded "alpha");
    Alcotest.(check (option string)) "beta"
      (Some (String.make 300 'b'))
      (find_body decoded "beta");
    Alcotest.(check (option string)) "missing" None
      (find_body decoded "gamma")

let test_bit_flip_rejected () =
  let bytes = Bytes.of_string (Snapshot.encode sections) in
  (* Flip one bit in the middle of a section body: the per-section CRC
     must catch it. *)
  let i = Bytes.length bytes / 2 in
  Bytes.set bytes i (Char.chr (Char.code (Bytes.get bytes i) lxor 0x10));
  match Snapshot.decode (Bytes.to_string bytes) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bit flip accepted"

(* The file CRC is combined from the section CRCs, not recomputed over the
   bytes, so a flip where no section CRC reaches — a frame header's name
   or length byte, or the trailer — must still be [Error]. Layout: magic
   and version (8 bytes), then alpha's frame: 'S' at 8, name length at 9,
   name at 10-14, body length at 15. *)
let test_header_and_trailer_flips_rejected () =
  let bytes = Snapshot.encode sections in
  let n = String.length bytes in
  let rejects what i =
    let b = Bytes.of_string bytes in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
    match Snapshot.decode (Bytes.to_string b) with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (what ^ " accepted")
  in
  rejects "name length byte" 9;
  rejects "name byte" 10;
  rejects "body length byte" 15;
  List.iter
    (fun i -> rejects (Printf.sprintf "trailer byte %d" (i - n + 4)) i)
    [ n - 4; n - 3; n - 2; n - 1 ]

(* A restorer's window ends at its section: a count that fits the bytes
   left in the file but not in the section is [Corrupt], and [at_end]
   holds exactly at the section's end. *)
let test_window_ends_at_section () =
  let short w =
    Snapshot.W.varint w 5;
    Snapshot.W.byte w 1;
    Snapshot.W.byte w 2
  in
  match
    Snapshot.decode
      (Snapshot.encode [ ("short", short); section "long" (String.make 100 'z') ])
  with
  | Error e -> Alcotest.fail e
  | Ok s ->
    let window () = Option.get (Snapshot.find s "short") in
    rejects_corrupt "list count past the section" (fun () ->
        Snapshot.R.list (window ()) Snapshot.R.byte);
    rejects_corrupt "string past the section" (fun () ->
        Snapshot.R.string (window ()));
    let r = window () in
    ignore (Snapshot.R.varint r);
    ignore (Snapshot.R.byte r);
    Alcotest.(check bool) "one byte left" false (Snapshot.R.at_end r);
    ignore (Snapshot.R.byte r);
    Alcotest.(check bool) "at the section's end" true (Snapshot.R.at_end r);
    rejects_corrupt "byte past the section" (fun () -> Snapshot.R.byte r)

let test_truncation_rejected () =
  let bytes = Snapshot.encode sections in
  for keep = 0 to min 64 (String.length bytes - 1) do
    match Snapshot.decode (String.sub bytes 0 keep) with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %d-byte prefix" keep)
  done

(* The on-disk format, pinned byte for byte: an encoding change would
   orphan every snapshot already written. *)
let test_format_pinned () =
  let fixed =
    [ section "meta" "\x03tag\x01"; section "0/hook/kv" "0123456789abcdef\xff" ]
  in
  let hex =
    String.concat ""
      (List.map
         (fun c -> Printf.sprintf "%02x" (Char.code c))
         (List.of_seq (String.to_seq (Snapshot.encode fixed))))
  in
  Alcotest.(check string) "encoding"
    "4c43534e0100000053046d65746105e7d6717103746167015309302f686f6f6b2f6b7611e6a5b84030313233343536373839616263646566ff4599b8c1a9"
    hex

(* --- borrowed pieces ------------------------------------------------------ *)

(* A writer script: own fields, and pieces of [page] that a borrowing
   writer appends by reference and a copying one byte by byte ([Raw]) or
   as a [W.bytes] field ([Field]). *)
type item = Own of string | Raw of int * int | Field of int * int

let page = Bytes.init 300 (fun i -> Char.chr ((i * 7) land 0xff))

let write_items ~borrow items w =
  let lend pos len =
    Snapshot.W.borrow w page pos len
      ~crc:(Snapshot.crc32_update 0 (Bytes.to_string page) pos len)
  in
  List.iter
    (function
      | Own s -> Snapshot.W.string w s
      | Raw (pos, len) when borrow -> lend pos len
      | Raw (pos, len) ->
        for i = pos to pos + len - 1 do
          Snapshot.W.byte w (Char.code (Bytes.get page i))
        done
      | Field (pos, len) when borrow ->
        Snapshot.W.varint w len;
        lend pos len
      | Field (pos, len) -> Snapshot.W.bytes w page pos len)
    items

(* A borrow at offset 0, back-to-back borrows, zero-length borrows, and
   borrows between and after own bytes. *)
let scripts =
  [
    [ Raw (0, 300); Own "tail" ];
    [ Own "head"; Field (10, 100); Field (110, 50); Raw (5, 7); Raw (200, 100) ];
    [ Own "a"; Raw (17, 0); Own "b"; Field (0, 0); Raw (299, 1) ];
  ]

let sections_of ~borrow items =
  [ section "alpha" "aaaa"; ("page", write_items ~borrow items) ]

(* A writer holding borrowed pieces reads back, encodes and saves to disk
   exactly as one that copied the same bytes. *)
let test_borrowed_equals_copied () =
  let path = temp_snapshot () in
  Fun.protect
    ~finally:(fun () -> cleanup path)
    (fun () ->
      List.iteri
        (fun i items ->
          let contents ~borrow =
            let w = Snapshot.W.create () in
            write_items ~borrow items w;
            Snapshot.W.contents w
          in
          let what = Printf.sprintf "script %d %s" i in
          Alcotest.(check string) (what "contents") (contents ~borrow:false)
            (contents ~borrow:true);
          let copied = Snapshot.encode (sections_of ~borrow:false items) in
          Alcotest.(check string) (what "encode") copied
            (Snapshot.encode (sections_of ~borrow:true items));
          Snapshot.write ~path (sections_of ~borrow:true items);
          Alcotest.(check string) (what "file") copied
            (In_channel.with_open_bin path In_channel.input_all);
          match Snapshot.decode copied with
          | Ok s ->
            Alcotest.(check (option string)) (what "body")
              (Some (contents ~borrow:false)) (find_body s "page")
          | Error e -> Alcotest.fail e)
        scripts)

(* Nand's page-CRC cache is filled by a save and reused by the next, so a
   cached CRC left stale by a change to the page would put a wrong section
   CRC in the file. After a save, change pages in every way a chip can —
   new programs, GC relocations and erases, and a reprogram of a page whose
   CRC a fault-injected read filled — and the next save must still decode
   and equal the save of chips restored from it, whose caches are cold. *)
let test_page_crc_cache_never_stale () =
  let geometry = { Nand.blocks = 16; pages_per_block = 8; page_size = 512 } in
  let ftl = Ftl.create ~nand:(Nand.create ~geometry ()) () in
  let flips = { Faults.zero with Faults.nand_bit_flip = 1.0 } in
  let faulted =
    Nand.create ~geometry
      ~faults:(Faults.create ~plan:flips ~seed:7L (Metrics.create ()))
      ()
  in
  let encode ftl_nand faulted =
    Snapshot.encode
      [
        ("ftl", fun w -> Nand.save w ftl_nand);
        ("faulted", fun w -> Nand.save w faulted);
      ]
  in
  let logical = Ftl.logical_pages ftl in
  for lpn = 0 to logical - 6 do
    ok (Ftl.write ftl ~lpn (Printf.sprintf "first %d" lpn))
  done;
  ok (Nand.program_page faulted ~block:0 ~page:0 "before");
  (match Nand.read_page faulted ~block:0 ~page:0 with
  | Error "uncorrectable bit error (ECC)" -> ()
  | _ -> Alcotest.fail "the read did not check the page CRC");
  ignore (encode (Ftl.nand ftl) faulted);
  let moved = Ftl.moved_pages ftl in
  let erases = Nand.total_erases (Ftl.nand ftl) in
  for lpn = logical - 5 to logical - 1 do
    ok (Ftl.write ftl ~lpn (Printf.sprintf "new %d" lpn))
  done;
  for round = 1 to 40 do
    for lpn = 2 to 9 do
      ok (Ftl.write ftl ~lpn (Printf.sprintf "round %d" round))
    done
  done;
  Alcotest.(check bool) "gc relocated pages" true (Ftl.moved_pages ftl > moved);
  Alcotest.(check bool) "gc erased blocks" true
    (Nand.total_erases (Ftl.nand ftl) > erases);
  ok (Nand.erase_block faulted ~block:0);
  ok (Nand.program_page faulted ~block:0 ~page:0 "after");
  let second = encode (Ftl.nand ftl) faulted in
  match Snapshot.decode second with
  | Error e -> Alcotest.fail ("second save: " ^ e)
  | Ok s ->
    let cold name faults =
      let nand = Nand.create ~geometry ?faults () in
      Nand.restore (Option.get (Snapshot.find s name)) nand;
      nand
    in
    let fresh_faults = Faults.create ~plan:flips ~seed:7L (Metrics.create ()) in
    Alcotest.(check string) "equals a cold-cache save" second
      (encode (cold "ftl" None) (cold "faulted" (Some fresh_faults)))

(* A torn write is exactly a prefix of the encoding, and never all of it,
   also where the cut lands inside a borrowed page. *)
let test_torn_write_is_prefix () =
  let path = temp_snapshot () in
  Fun.protect
    ~finally:(fun () -> cleanup path)
    (fun () ->
      let tear ~extra written full =
        let n = String.length full in
        List.iter
          (fun k ->
            Snapshot.write_torn ~path ~keep_bytes:k written;
            let on_disk = In_channel.with_open_bin path In_channel.input_all in
            let want = max 0 (min k (n - 1)) in
            Alcotest.(check string)
              (Printf.sprintf "first %d bytes" k)
              (String.sub full 0 want) on_disk)
          ([ -1; 0; 1; 7; 8; 9; 20; n / 2; n - 4; n - 1; n; n + 10 ] @ extra n)
      in
      tear ~extra:(fun _ -> []) sections (Snapshot.encode sections);
      (* The borrowed page is the last body: its 300 bytes end 5 bytes
         before the end of the file (the 'E' frame and the trailer). *)
      let items = [ Own "x"; Raw (0, 300) ] in
      tear
        ~extra:(fun n -> [ n - 305; n - 304; n - 155; n - 6 ])
        (sections_of ~borrow:true items)
        (Snapshot.encode (sections_of ~borrow:false items)))

(* Counts read from an untrusted file become [Corrupt], never an
   allocation failure or an [Invalid_argument] from the stdlib. *)
let test_crafted_counts_rejected () =
  let rejects what bytes read =
    match read (Snapshot.R.of_string bytes) with
    | exception Snapshot.R.Corrupt _ -> ()
    | _ -> Alcotest.fail (what ^ " accepted")
  in
  let varint n =
    let w = Snapshot.W.create () in
    Snapshot.W.varint w n;
    Snapshot.W.contents w
  in
  (* Ten bytes: past 63 bits (it would decode to -1). *)
  let ten = String.make 9 '\xff' ^ "\x01" in
  rejects "10-byte varint" ten Snapshot.R.varint;
  rejects "10-byte string count" ten Snapshot.R.string;
  (* Nine bytes with bit 62 set: a negative count. *)
  let negative = String.make 8 '\x80' ^ "\x40" in
  rejects "negative string count" negative Snapshot.R.string;
  rejects "negative list count" negative (fun r ->
      Snapshot.R.list r Snapshot.R.byte);
  rejects "negative array count" negative (fun r ->
      Snapshot.R.array r Snapshot.R.byte);
  (* Counts larger than the bytes left. *)
  rejects "2^50 array count" (varint (1 lsl 50)) (fun r ->
      Snapshot.R.array r Snapshot.R.byte);
  rejects "2^50 list count" (varint (1 lsl 50)) (fun r ->
      Snapshot.R.list r Snapshot.R.byte);
  rejects "string past the end" (varint 5 ^ "abcd") Snapshot.R.string;
  (* The largest count that fits still decodes. *)
  Alcotest.(check string) "exact-fit string" "abcd"
    (Snapshot.R.string (Snapshot.R.of_string (varint 4 ^ "abcd")))

(* A section length read from the file is a count like any other: one
   near max_int (whose end offset would overflow) or one with bit 62 set
   (negative) must give [Error], and [load] must fall back to the previous
   generation rather than raise. The stored CRCs are 0 and the file CRC is
   correct, so only the length is at fault. *)
let test_crafted_section_length_rejected () =
  let crafted len_bytes =
    let w = Snapshot.W.create () in
    String.iter (fun c -> Snapshot.W.byte w (Char.code c)) "LCSN";
    Snapshot.W.u32 w 1;
    Snapshot.W.byte w (Char.code 'S');
    Snapshot.W.string w "n";
    String.iter (fun c -> Snapshot.W.byte w (Char.code c)) len_bytes;
    Snapshot.W.u32 w 0;
    Snapshot.W.byte w (Char.code 'x');
    Snapshot.W.byte w (Char.code 'E');
    let prefix = Snapshot.W.contents w in
    Snapshot.W.u32 w (Snapshot.crc32 prefix);
    Snapshot.W.contents w
  in
  let max_len =
    let w = Snapshot.W.create () in
    Snapshot.W.varint w max_int;
    Snapshot.W.contents w
  in
  let negative_len = String.make 8 '\x80' ^ "\x40" in
  let path = temp_snapshot () in
  Fun.protect
    ~finally:(fun () -> cleanup path)
    (fun () ->
      List.iter
        (fun (what, len_bytes) ->
          let bytes = crafted len_bytes in
          (match Snapshot.decode bytes with
          | Error _ -> ()
          | Ok _ -> Alcotest.fail (what ^ " accepted by decode"));
          Snapshot.write ~path [ section "n" "good" ];
          Snapshot.write_torn ~path ~keep_bytes:0 [];
          Out_channel.with_open_bin path (fun oc -> output_string oc bytes);
          match Snapshot.load ~path with
          | Ok (Snapshot.Previous, s) ->
            Alcotest.(check (option string)) (what ^ ": fallback")
              (Some "good") (find_body s "n")
          | Ok (Snapshot.Primary, _) -> Alcotest.fail (what ^ " loaded")
          | Error e -> Alcotest.fail e)
        [ ("max_int length", max_len); ("negative length", negative_len) ])

let test_generations_and_fallback () =
  let path = temp_snapshot () in
  Fun.protect
    ~finally:(fun () -> cleanup path)
    (fun () ->
      let gen n = [ section "n" (string_of_int n) ] in
      Snapshot.write ~path (gen 1);
      (match Snapshot.load ~path with
      | Ok (Snapshot.Primary, s) ->
        Alcotest.(check (option string)) "gen 1" (Some "1") (find_body s "n")
      | Ok (Snapshot.Previous, _) -> Alcotest.fail "fresh write read as previous"
      | Error e -> Alcotest.fail e);
      Snapshot.write ~path (gen 2);
      (match Snapshot.load ~path with
      | Ok (Snapshot.Primary, s) ->
        Alcotest.(check (option string)) "gen 2" (Some "2") (find_body s "n")
      | _ -> Alcotest.fail "second write not primary");
      (* A torn third write (killed mid-checkpoint) must fall back to the
         displaced second generation, not the first. *)
      Snapshot.write_torn ~path ~keep_bytes:10 (gen 3);
      (match Snapshot.load ~path with
      | Ok (Snapshot.Previous, s) ->
        Alcotest.(check (option string)) "fallback" (Some "2")
          (find_body s "n")
      | Ok (Snapshot.Primary, _) -> Alcotest.fail "torn primary accepted"
      | Error e -> Alcotest.fail e);
      (* Both generations bad: a combined error, not an exception. *)
      let oc = open_out (Snapshot.previous_generation path) in
      output_string oc "junk";
      close_out oc;
      match Snapshot.load ~path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "two bad generations accepted")

(* --- engine hook registry ------------------------------------------------ *)

let test_hook_registry () =
  let engine = Engine.create () in
  let noop_save _ = () in
  let noop_restore _ = () in
  Engine.register_snapshot engine ~name:"b" ~save:noop_save
    ~restore:noop_restore;
  Engine.register_snapshot engine ~name:"a" ~save:noop_save
    ~restore:noop_restore;
  Alcotest.(check (list string)) "registration order kept" [ "b"; "a" ]
    (List.map (fun (n, _, _) -> n) (Engine.snapshot_hooks engine));
  Alcotest.check_raises "duplicate name"
    (Invalid_argument "Engine.register_snapshot: duplicate hook b") (fun () ->
      Engine.register_snapshot engine ~name:"b" ~save:noop_save
        ~restore:noop_restore)

let test_save_requires_quiescence () =
  let engine = Engine.create () in
  Engine.schedule engine ~delay:10L (fun () -> ());
  Alcotest.check_raises "volatile event queued"
    (Invalid_argument "Engine.save_state: queue has volatile events")
    (fun () -> Engine.save_state engine (Snapshot.W.create ()));
  Engine.run_until_quiescent engine;
  Engine.save_state engine (Snapshot.W.create ())

(* --- WAL watermark: no double-apply after restore (satellite) ----------- *)

let put store key value =
  Store.put store ~key ~value (function
    | Ok () -> ()
    | Error e -> Alcotest.fail e)

let get store key =
  let out = ref None in
  Store.get store key (fun v -> out := v);
  !out

let test_watermark_skips_replayed_prefix () =
  (* Donor store: the state a checkpoint captured — including a key the
     log prefix cannot reproduce (post-compaction reality) — with a
     watermark covering the first 3 log records. *)
  let donor = Store.create (Store.memory_backend ()) in
  put donor "x" "7";
  Store.set_applied_watermark donor 3;
  let w = Snapshot.W.create () in
  Store.save w donor;
  let saved = Snapshot.W.contents w in
  (* The on-disk log: 3 records the snapshot already reflects, one fresh
     record past the watermark, and a torn tail (crash mid-append). *)
  let backend = Store.memory_backend () in
  let logged = ref 0 in
  List.iter
    (fun r ->
      backend.Store.append (Wal.encode r) (function
        | Ok () -> incr logged
        | Error e -> Alcotest.fail e))
    [
      Wal.Put { key = "a"; value = "1" };
      Wal.Put { key = "b"; value = "2" };
      Wal.Del { key = "a" };
      Wal.Put { key = "c"; value = "3" };
    ];
  backend.Store.append "\xff\xff\xfftorn" (fun _ -> ());
  Alcotest.(check int) "log built" 4 !logged;
  (* Restore-then-recover: only the suffix past the watermark replays; the
     restored index is NOT reset, so "x" survives. *)
  let s = Store.create backend in
  Store.restore (Snapshot.R.of_string saved) s;
  Alcotest.(check int) "watermark restored" 3 (Store.applied_watermark s);
  let applied = ref (-1) in
  Store.recover s (function
    | Ok n -> applied := n
    | Error e -> Alcotest.fail e);
  Alcotest.(check int) "only the fresh suffix applied" 1 !applied;
  Alcotest.(check (option string)) "restored key kept" (Some "7") (get s "x");
  Alcotest.(check (option string)) "fresh record applied" (Some "3")
    (get s "c");
  Alcotest.(check (option string)) "pre-watermark records not re-applied" None
    (get s "a");
  Alcotest.(check int) "watermark advanced to log length" 4
    (Store.applied_watermark s);
  (* First-boot semantics unchanged: a fresh store (watermark 0) resets
     and replays everything, torn tail silently discarded. *)
  let fresh = Store.create backend in
  let n = ref (-1) in
  Store.recover fresh (function
    | Ok k -> n := k
    | Error e -> Alcotest.fail e);
  Alcotest.(check int) "full replay" 4 !n;
  Alcotest.(check (option string)) "del replayed" None (get fresh "a");
  Alcotest.(check (option string)) "puts replayed" (Some "2") (get fresh "b");
  Store.set_applied_watermark fresh 0;
  Alcotest.check_raises "negative watermark"
    (Invalid_argument "set_applied_watermark: negative") (fun () ->
      Store.set_applied_watermark fresh (-1))

(* --- breaker resume (satellite) ------------------------------------------ *)

(* The deterministic builder for the breaker rig: a client with an armed
   circuit breaker and a peer that never answers. Checkpoint restore
   overlays state onto a fresh instance of exactly this. *)
let breaker_rig () =
  let engine = Engine.create () in
  let bus = Sysbus.create engine in
  let mem = Physmem.create () in
  let blackhole = Device.create bus ~mem ~name:"blackhole" () in
  Device.start blackhole;
  let client = Device.create bus ~mem ~name:"client" () in
  Device.start client;
  Engine.run engine;
  Device.enable_circuit_breaker client ~threshold:2 ~cooldown_ns:1_000_000L;
  (engine, client, Device.id blackhole)

let test_breaker_resumes_probe_schedule () =
  let path = temp_snapshot () in
  Fun.protect
    ~finally:(fun () -> cleanup path)
    (fun () ->
      let engine_a, client_a, peer_a = breaker_rig () in
      let req engine client peer =
        Device.request client ~timeout:10_000L ~dst:(Types.Device peer)
          (Message.App_message { tag = "ping"; body = "" })
          (fun _ -> ());
        Engine.run engine
      in
      (* Two timeouts: breaker opens (fast-fail until open-time + 1ms). *)
      req engine_a client_a peer_a;
      req engine_a client_a peer_a;
      Alcotest.(check bool) "open before save" true
        (Device.breaker_state client_a ~peer:peer_a = `Open);
      Alcotest.(check bool) "quiescent" true (Engine.quiescent engine_a);
      Checkpoint.save ~path ~tag:"breaker" (Checkpoint.Single engine_a);
      (* Fresh rig, overlay the checkpoint. *)
      let engine_b, client_b, peer_b = breaker_rig () in
      (match
         Checkpoint.restore ~path ~tag:"breaker" (Checkpoint.Single engine_b)
       with
      | Ok Snapshot.Primary -> ()
      | Ok Snapshot.Previous -> Alcotest.fail "unexpected fallback"
      | Error e -> Alcotest.fail e);
      Alcotest.(check bool) "still open after restore" true
        (Device.breaker_state client_b ~peer:peer_b = `Open);
      Alcotest.(check int64) "clock restored" (Engine.now engine_a)
        (Engine.now engine_b);
      Alcotest.(check int) "open count restored" 1
        (Device.breaker_opens client_b);
      (* Inside the cooldown the restored breaker fast-fails locally. *)
      let sent_before = Device.requests_sent client_b in
      req engine_b client_b peer_b;
      Alcotest.(check int) "fast fail, nothing on the wire" sent_before
        (Device.requests_sent client_b);
      Alcotest.(check int) "fast fail counted" 1
        (Device.breaker_fast_fails client_b);
      (* Past the cooldown the next request is the half-open probe: it
         reaches the wire, fails against the dead peer, and reopens —
         the probe schedule survived the restore intact. *)
      Engine.schedule engine_b ~delay:2_000_000L (fun () ->
          req engine_b client_b peer_b);
      Engine.run engine_b;
      Alcotest.(check int) "probe hit the wire" (sent_before + 1)
        (Device.requests_sent client_b);
      Alcotest.(check bool) "probe failure reopened" true
        (Device.breaker_state client_b ~peer:peer_b = `Open);
      Alcotest.(check int) "reopen counted" 2 (Device.breaker_opens client_b))

(* --- crash-window remainder (satellite) ---------------------------------- *)

let crash_rig () =
  let spec =
    {
      System.default_spec with
      System.fault_plan =
        {
          Faults.zero with
          Faults.crashes =
            [ { Faults.device = "ssd0"; at_ns = 1_000_000L; down_ns = 10_000_000L } ];
        };
    }
  in
  let system = System.build ~spec () in
  (match System.boot system with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("boot: " ^ e));
  system

let test_crash_window_survives_restore () =
  let path = temp_snapshot () in
  Fun.protect
    ~finally:(fun () -> cleanup path)
    (fun () ->
      let a = crash_rig () in
      let engine_a = System.engine a in
      let ssd_a = Smart_ssd.id (System.ssd a 0) in
      (* Into the middle of the crash window: the crash static has fired,
         the revive static (absolute time 11ms) is still pending. *)
      Engine.run ~until:5_000_000L engine_a;
      Alcotest.(check bool) "down mid-window" false
        (Sysbus.is_live (System.bus a) ssd_a);
      Alcotest.(check bool) "quiescent mid-window" true
        (Engine.quiescent engine_a);
      Checkpoint.save ~path ~tag:"crash" (Checkpoint.Single engine_a);
      (* Rebuild: the fresh rig re-schedules BOTH statics (crash at 1ms,
         revive at 11ms). The restore's queue filter must drop the
         already-fired crash and keep the revive at its absolute time. *)
      let b = crash_rig () in
      let engine_b = System.engine b in
      let ssd_b = Smart_ssd.id (System.ssd b 0) in
      (match Checkpoint.restore ~path ~tag:"crash" (Checkpoint.Single engine_b)
       with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e);
      Alcotest.(check int64) "clock restored mid-window" 5_000_000L
        (Engine.now engine_b);
      Alcotest.(check bool) "still down after restore" false
        (Sysbus.is_live (System.bus b) ssd_b);
      (* The remainder of the window completes on the original absolute
         schedule: still down just before the 11ms revive, and the
         revive-plus-rejoin sequence lands the restored machine on exactly
         the same clock as an uninterrupted control run. *)
      Engine.run ~until:10_999_999L engine_b;
      Alcotest.(check bool) "still down just before the revive" false
        (Sysbus.is_live (System.bus b) ssd_b);
      Engine.run engine_b;
      Alcotest.(check bool) "revived after the window" true
        (Sysbus.is_live (System.bus b) ssd_b);
      let c = crash_rig () in
      Engine.run (System.engine c);
      Alcotest.(check bool) "control revived" true
        (Sysbus.is_live (System.bus c) (Smart_ssd.id (System.ssd c 0)));
      Alcotest.(check int64) "rejoin schedule identical to uninterrupted run"
        (Engine.now (System.engine c))
        (Engine.now engine_b))

(* --- untrusted indices in restored state ---------------------------------- *)

(* A restored index that later subscripts an array must be rejected at
   restore as [Corrupt], not raise [Invalid_argument] out of the engine
   the first time a request uses it. *)

let test_device_recent_index_rejected () =
  let _, client, _ = breaker_rig () in
  let _, save, restore =
    List.find
      (fun (name, _, _) -> name = "dev:" ^ Device.actor client)
      (Engine.snapshot_hooks (Device.engine client))
  in
  let body =
    let w = Snapshot.W.create () in
    save w;
    Snapshot.W.contents w
  in
  (* Re-encode the header up to the ring index; the rest of the body is
     kept byte for byte. *)
  let r = Snapshot.R.of_string body in
  let counters = List.init 3 (fun _ -> Snapshot.R.varint r) in
  let ring = Snapshot.R.array r Snapshot.R.vint in
  let idx = Snapshot.R.varint r in
  let header idx =
    let w = Snapshot.W.create () in
    List.iter (Snapshot.W.varint w) counters;
    Snapshot.W.array w Snapshot.W.vint ring;
    Snapshot.W.varint w idx;
    Snapshot.W.contents w
  in
  let rest =
    let n = String.length (header idx) in
    String.sub body n (String.length body - n)
  in
  let with_idx i = Snapshot.R.of_string (header i ^ rest) in
  restore (with_idx (Array.length ring - 1));
  List.iter
    (fun i ->
      rejects_corrupt (Printf.sprintf "recent_idx %d" i) (fun () ->
          restore (with_idx i)))
    [ Array.length ring; 1000 ]

let test_virtqueue_driver_indices_rejected () =
  let va = 0x4000_0000L in
  let iommu = Iommu.create () in
  (match
     Iommu.map iommu ~pasid:1 ~va ~pa:0x10_0000L ~bytes:0x4000L
       ~perm:Types.perm_rw
   with
  | Ok () -> ()
  | Error e -> failwith e);
  let dma = Dma.create ~iommu ~pasid:1 ~mem:(Physmem.create ()) in
  let size = 8 in
  let driver = Vq.Driver.create ~dma ~base:va ~size in
  (match
     Vq.Driver.add driver
       [
         { Vq.va = Int64.add va 0x2000L; len = 64; writable = false };
         { Vq.va = Int64.add va 0x3000L; len = 64; writable = true };
       ]
   with
  | Ok _ -> ()
  | Error e -> failwith e);
  let saved =
    let w = Snapshot.W.create () in
    Vq.Driver.save w driver;
    Snapshot.W.contents w
  in
  let r = Snapshot.R.of_string saved in
  let base = Snapshot.R.int64 r in
  let size' = Snapshot.R.varint r in
  let free_head = Snapshot.R.varint r in
  let free_count = Snapshot.R.varint r in
  let next_free = Snapshot.R.array r Snapshot.R.varint in
  let chain_len = Snapshot.R.array r Snapshot.R.varint in
  let tail = List.init 3 (fun _ -> Snapshot.R.varint r) in
  let encode ?(size = size') ?(free_head = free_head) ?(free_count = free_count)
      ?(next_free = next_free) ?(chain_len = chain_len) () =
    let w = Snapshot.W.create () in
    Snapshot.W.int64 w base;
    Snapshot.W.varint w size;
    Snapshot.W.varint w free_head;
    Snapshot.W.varint w free_count;
    Snapshot.W.array w Snapshot.W.varint next_free;
    Snapshot.W.array w Snapshot.W.varint chain_len;
    List.iter (Snapshot.W.varint w) tail;
    Snapshot.W.contents w
  in
  let restore bytes = Vq.Driver.restore (Snapshot.R.of_string bytes) ~dma in
  Alcotest.(check string) "re-encoding is exact" saved (encode ());
  Alcotest.(check int) "untouched state restores" (size - 2)
    (Vq.Driver.num_free (restore (encode ())));
  let set a i v =
    let a = Array.copy a in
    a.(i) <- v;
    a
  in
  List.iter
    (fun (what, bytes) -> rejects_corrupt what (fun () -> restore bytes))
    [
      ("free_head = size", encode ~free_head:size ());
      ("free_head 1000", encode ~free_head:1000 ());
      ("free_count > size", encode ~free_count:(size + 1) ());
      ("next_free entry 1000", encode ~next_free:(set next_free 3 1000) ());
      ("chain_len > size", encode ~chain_len:(set chain_len 5 (size + 1)) ());
      ("descriptor counted twice", encode ~chain_len:(set chain_len 5 1) ());
      ("ring size 6", encode ~size:6 ~next_free:(Array.make 6 0)
         ~chain_len:(Array.make 6 0) ~free_count:6 ());
    ]

(* FTL and FS sections: every index a later write or GC subscripts with is
   checked at restore. The sections are re-encoded field by field from a
   real save, with one field changed per case. *)
let restore_result restore body =
  match restore (Snapshot.R.of_string body) with
  | () -> Ok ()
  | exception Snapshot.R.Corrupt m -> Error m

type ftl_section = {
  logical : int;
  map : int array;
  state : int array;  (* lpn, or -1 free / -2 invalid; -n is tag n *)
  free_in_block : int array;
  invalid_in_block : int array;
  active : int;
  free_list : int list;
  free_count : int;
}

let decode_ftl body =
  let r = Snapshot.R.of_string body in
  let logical = Snapshot.R.varint r in
  let map = Snapshot.R.array r Snapshot.R.vint in
  let state =
    Snapshot.R.array r (fun r ->
        match Snapshot.R.byte r with
        | 0 -> -1
        | 1 -> Snapshot.R.varint r
        | _ -> -2)
  in
  let free_in_block = Snapshot.R.array r Snapshot.R.varint in
  let invalid_in_block = Snapshot.R.array r Snapshot.R.varint in
  let active = Snapshot.R.varint r in
  let free_list = Snapshot.R.list r Snapshot.R.varint in
  let free_count = Snapshot.R.varint r in
  { logical; map; state; free_in_block; invalid_in_block; active; free_list;
    free_count }

let encode_ftl f =
  let w = Snapshot.W.create () in
  Snapshot.W.varint w f.logical;
  Snapshot.W.array w Snapshot.W.vint f.map;
  Snapshot.W.array w
    (fun w s ->
      if s >= 0 then begin
        Snapshot.W.byte w 1;
        Snapshot.W.varint w s
      end
      else Snapshot.W.byte w (if s = -1 then 0 else -s))
    f.state;
  Snapshot.W.array w Snapshot.W.varint f.free_in_block;
  Snapshot.W.array w Snapshot.W.varint f.invalid_in_block;
  Snapshot.W.varint w f.active;
  Snapshot.W.list w Snapshot.W.varint f.free_list;
  Snapshot.W.varint w f.free_count;
  Snapshot.W.contents w

let ftl_save ftl =
  let w = Snapshot.W.create () in
  Ftl.save w ftl;
  Snapshot.W.contents w

let test_ftl_section_rejected () =
  let geometry = { Nand.blocks = 8; pages_per_block = 4; page_size = 64 } in
  let ftl = Ftl.create ~nand:(Nand.create ~geometry ()) () in
  for i = 0 to 9 do
    match Ftl.write ftl ~lpn:(i mod 5) (string_of_int i) with
    | Ok () -> ()
    | Error e -> Alcotest.fail e
  done;
  let body = ftl_save ftl in
  let f = decode_ftl body in
  Alcotest.(check string) "codec mirrors Ftl.save" body (encode_ftl f);
  let set a i v =
    let a = Array.copy a in
    a.(i) <- v;
    a
  in
  let total = Array.length f.state in
  let valid = ref (-1) in
  Array.iteri (fun p lpn -> if lpn >= 0 && !valid < 0 then valid := p) f.state;
  let valid = !valid and lpn = f.state.(!valid) in
  let unmapped = ref (-1) in
  Array.iteri (fun l p -> if p < 0 && !unmapped < 0 then unmapped := l) f.map;
  let unmapped = !unmapped in
  let free_b = List.hd f.free_list in
  let erased = ref (-1) in
  Array.iteri (fun p s -> if s = -1 && !erased < 0 then erased := p) f.state;
  let erased = !erased in
  List.iter
    (fun (what, section) ->
      let target = Ftl.create ~nand:(Nand.create ~geometry ()) () in
      let before = ftl_save target in
      (match restore_result (fun r -> Ftl.restore r target) section with
      | Error _ -> ()
      | Ok () -> Alcotest.fail (what ^ " accepted"));
      Alcotest.(check string) (what ^ ": ftl untouched") before (ftl_save target))
    [
      ("map entry = total pages", encode_ftl { f with map = set f.map lpn total });
      ("map entry -2", encode_ftl { f with map = set f.map lpn (-2) });
      ("valid lpn >= logical",
       encode_ftl { f with state = set f.state valid f.logical });
      ("valid page the map does not name",
       encode_ftl { f with state = set f.state valid unmapped });
      ("map names a free page",
       encode_ftl { f with state = set f.state valid (-1) });
      ("active out of range", encode_ftl { f with active = 8 });
      ("free block out of range",
       encode_ftl { f with free_list = 8 :: List.tl f.free_list });
      ("free list repeats a block",
       encode_ftl { f with free_list = free_b :: f.free_list;
                           free_count = f.free_count + 1 });
      ("active on the free list", encode_ftl { f with active = free_b });
      ("free count disagrees", encode_ftl { f with free_count = f.free_count + 1 });
      ("fill count > pages per block",
       encode_ftl { f with free_in_block = set f.free_in_block 0 5 });
      ("invalid count > pages per block",
       encode_ftl { f with invalid_in_block = set f.invalid_in_block 0 5 });
      ("bad page state tag", encode_ftl { f with state = set f.state erased (-3) });
      ("valid lpn far out of range",
       encode_ftl { f with state = set f.state valid (1 lsl 40) });
      ("map entry far out of range", encode_ftl { f with map = set f.map lpn (1 lsl 40) });
      ("map entry far below -1", encode_ftl { f with map = set f.map lpn (-(1 lsl 40)) });
      ("map one short",
       encode_ftl { f with map = Array.sub f.map 0 (Array.length f.map - 1) });
      ("map one long", encode_ftl { f with map = Array.append f.map [| -1 |] });
      ("state one short",
       encode_ftl { f with state = Array.sub f.state 0 (total - 1) });
      ("state one long", encode_ftl { f with state = Array.append f.state [| -1 |] });
      ("fill counts one short",
       encode_ftl
         { f with
           free_in_block =
             Array.sub f.free_in_block 0 (Array.length f.free_in_block - 1) });
      ("truncated in the map", String.sub body 0 (Array.length f.map / 2));
      ("truncated in the page states", String.sub body 0 (String.length body / 2));
    ];
  let target = Ftl.create ~nand:(Nand.create ~geometry ()) () in
  (match restore_result (fun r -> Ftl.restore r target) body with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("genuine section rejected: " ^ e));
  Alcotest.(check string) "genuine section restores" body (ftl_save target)

let test_fs_cached_ids_rejected () =
  let ftl =
    Ftl.create
      ~nand:
        (Nand.create
           ~geometry:{ Nand.blocks = 16; pages_per_block = 16; page_size = 4096 }
           ())
      ()
  in
  let fs =
    match Fs.format ftl with Ok fs -> fs | Error e -> Alcotest.fail (Fs.error_to_string e)
  in
  let section ids =
    let w = Snapshot.W.create () in
    Snapshot.W.option w (fun w -> Snapshot.W.list w Snapshot.W.varint) (Some ids);
    Snapshot.W.contents w
  in
  let blocks = Ftl.logical_pages ftl in
  (match restore_result (fun r -> Fs.restore r fs) (section [ 0; 3; blocks - 1 ]) with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("genuine ids rejected: " ^ e));
  List.iter
    (fun (what, ids) ->
      match restore_result (fun r -> Fs.restore r fs) (section ids) with
      | Error _ -> ()
      | Ok () -> Alcotest.fail (what ^ " accepted"))
    [
      ("id = block count", [ 0; blocks ]);
      ("repeated id", [ 2; 2 ]);
      ("decreasing ids", [ 3; 1 ]);
    ]

(* --- NAND section: live pages only ----------------------------------------- *)

(* A NAND section as [Nand.save] writes it: the geometry, per block its
   erase count and programmed pages as (index, bytes) — [""] for a
   length-0 page — then the read, program and erase counters. *)
type nand_section = {
  geo : int * int * int;
  blocks : (int * (int * string) list) array;
  counters : int * int * int;
}

let decode_nand body =
  let r = Snapshot.R.of_string body in
  (* Three varints, read in order (a tuple's are evaluated right to left). *)
  let three () =
    let a = Snapshot.R.varint r in
    let b = Snapshot.R.varint r in
    (a, b, Snapshot.R.varint r)
  in
  let geo = three () in
  let blocks =
    let n, _, _ = geo in
    Array.init n (fun _ ->
        let erases = Snapshot.R.varint r in
        let pages =
          Snapshot.R.list r (fun r ->
              let i = Snapshot.R.varint r in
              (i, Snapshot.R.string r))
        in
        (erases, pages))
  in
  let counters = three () in
  { geo; blocks; counters }

let encode_nand n =
  let w = Snapshot.W.create () in
  let v = Snapshot.W.varint w in
  let b, ppb, ps = n.geo in
  v b;
  v ppb;
  v ps;
  Array.iter
    (fun (erases, pages) ->
      v erases;
      Snapshot.W.list w
        (fun w (i, bytes) ->
          Snapshot.W.varint w i;
          Snapshot.W.string w bytes)
        pages)
    n.blocks;
  let r, p, e = n.counters in
  v r;
  v p;
  v e;
  Snapshot.W.contents w

let nand_save nand =
  let w = Snapshot.W.create () in
  Nand.save w nand;
  Snapshot.W.contents w

let view_string nand (v : Nand.view) =
  Bytes.sub_string v.bytes v.off (Nand.geometry nand).Nand.page_size

let page_bytes nand ~block ~page = view_string nand (Nand.peek_page nand ~block ~page)

(* A page the FTL superseded is discarded at once: like a zero-filled
   page it reads as zeroes on the running chip and is saved as its index
   and length 0; restored, both read as zeroes and are still programmed,
   so a program to either fails until an erase, while the live pages keep
   their bytes. *)
let test_stale_and_zero_pages_carry_no_bytes () =
  let geometry = { Nand.blocks = 8; pages_per_block = 4; page_size = 64 } in
  let ftl = Ftl.create ~nand:(Nand.create ~geometry ()) () in
  ok (Ftl.write ftl ~lpn:0 "old");
  ok (Ftl.write ftl ~lpn:0 "new");
  ok (Ftl.write_zeroes ftl ~lpn:1);
  ok (Ftl.write ftl ~lpn:2 "live");
  Alcotest.(check string) "superseded page discarded" (String.make 64 '\000')
    (page_bytes (Ftl.nand ftl) ~block:0 ~page:0);
  let body = nand_save (Ftl.nand ftl) in
  let f = decode_nand body in
  Alcotest.(check string) "codec mirrors Nand.save" body (encode_nand f);
  Alcotest.(check (list (pair int int))) "block 0 page lengths"
    [ (0, 0); (1, 64); (2, 0); (3, 64) ]
    (List.map (fun (i, b) -> (i, String.length b)) (snd f.blocks.(0)));
  let nand = Nand.create ~geometry () in
  let restored = Ftl.create ~nand () in
  let r = Snapshot.R.of_string (body ^ ftl_save ftl) in
  Nand.restore r nand;
  Ftl.restore r restored;
  let zero = String.make 64 '\000' in
  List.iter
    (fun (what, page) ->
      Alcotest.(check string) (what ^ " reads zeroes") zero
        (page_bytes nand ~block:0 ~page);
      Alcotest.(check bool) (what ^ " is programmed") true
        (Nand.page_state nand ~block:0 ~page = Nand.Programmed);
      Alcotest.(check (result unit string)) (what ^ " refuses a program")
        (Error "page not erased")
        (Nand.program_page nand ~block:0 ~page "x"))
    [ ("stale page", 0); ("zero page", 2) ];
  List.iter
    (fun (lpn, want) ->
      Alcotest.(check string) (Printf.sprintf "lpn %d" lpn) want
        (String.sub (view_string nand (Ftl.peek restored ~lpn)) 0 (String.length want)))
    [ (0, "new"); (1, zero); (2, "live") ];
  Alcotest.(check string) "restored chip saves the same bytes" body
    (nand_save nand)

(* Rewriting one lpn 50 times leaves 49 stale pages: each adds its index
   and a zero length to the NAND section, never its bytes. *)
let test_rewrites_add_no_page_bytes () =
  let geometry = { Nand.blocks = 8; pages_per_block = 64; page_size = 4096 } in
  let ftl = Ftl.create ~nand:(Nand.create ~geometry ()) () in
  let size () = String.length (nand_save (Ftl.nand ftl)) in
  ok (Ftl.write ftl ~lpn:7 "write 1");
  let once = size () in
  for i = 2 to 50 do
    ok (Ftl.write ftl ~lpn:7 (Printf.sprintf "write %d" i))
  done;
  Alcotest.(check int) "50 writes: 49 two-byte page records more" (once + (49 * 2))
    (size ())

(* Every crafted NAND section is [Corrupt] and leaves the chip as it was:
   the whole section is checked before any block is overwritten. *)
let test_nand_section_rejected () =
  let geometry = { Nand.blocks = 4; pages_per_block = 4; page_size = 64 } in
  let source = Nand.create ~geometry () in
  ok (Nand.program_page source ~block:0 ~page:0 "after");
  ok (Nand.program_zeroes source ~block:0 ~page:1);
  ok (Nand.program_page source ~block:3 ~page:2 "last");
  let body = nand_save source in
  let f = decode_nand body in
  Alcotest.(check string) "codec mirrors Nand.save" body (encode_nand f);
  let with_block b pages =
    let blocks = Array.copy f.blocks in
    blocks.(b) <- (fst blocks.(b), pages);
    encode_nand { f with blocks }
  in
  List.iter
    (fun (what, section) ->
      let target = Nand.create ~geometry () in
      ok (Nand.program_page target ~block:0 ~page:0 "before");
      let before = nand_save target in
      (match restore_result (fun r -> Nand.restore r target) section with
      | Error _ -> ()
      | Ok () -> Alcotest.fail (what ^ " accepted"));
      Alcotest.(check string) (what ^ ": earlier page untouched")
        ("before" ^ String.make 58 '\xff')
        (page_bytes target ~block:0 ~page:0);
      Alcotest.(check string) (what ^ ": chip untouched") before (nand_save target))
    [
      ("page length 1", with_block 0 [ (0, "x") ]);
      ("page length one short", with_block 0 [ (0, String.make 63 'x') ]);
      ("page length one long", with_block 0 [ (0, String.make 65 'x') ]);
      ("last block: page index = pages per block", with_block 3 [ (4, "") ]);
      ("last block: page length 1", with_block 3 [ (2, "x") ]);
      ("truncated in the counters", String.sub body 0 (String.length body - 1));
    ];
  let target = Nand.create ~geometry () in
  (match restore_result (fun r -> Nand.restore r target) body with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("genuine section rejected: " ^ e));
  Alcotest.(check string) "genuine section restores" body (nand_save target)

(* --- checkpoint orchestrator mismatches ---------------------------------- *)

let test_checkpoint_mismatches () =
  let path = temp_snapshot () in
  Fun.protect
    ~finally:(fun () -> cleanup path)
    (fun () ->
      let engine = Engine.create () in
      Checkpoint.save ~path ~tag:"exp-a" (Checkpoint.Single engine);
      let fresh = Engine.create () in
      (match
         Checkpoint.restore ~path ~tag:"exp-b" (Checkpoint.Single fresh)
       with
      | Error e ->
        let contains hay needle =
          let nh = String.length hay and nn = String.length needle in
          let rec go i =
            i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
          in
          go 0
        in
        Alcotest.(check bool) "tag named in error" true (contains e "exp-a")
      | Ok _ -> Alcotest.fail "tag mismatch accepted");
      (* A topology with an extra hook the snapshot has no section for.
         The engine and an earlier hook do have sections, but the restore
         must fail before either is applied. *)
      let saved = Engine.create () in
      Engine.register_snapshot saved ~name:"early"
        ~save:(fun w -> Snapshot.W.string w "state")
        ~restore:(fun _ -> ());
      Engine.schedule saved ~delay:500L (fun () -> ());
      Engine.run_until_quiescent saved;
      Checkpoint.save ~path ~tag:"exp-a" (Checkpoint.Single saved);
      let extra = Engine.create () in
      let early_restored = ref false in
      Engine.register_snapshot extra ~name:"early"
        ~save:(fun _ -> ())
        ~restore:(fun _ -> early_restored := true);
      Engine.register_snapshot extra ~name:"late-subsystem"
        ~save:(fun _ -> ())
        ~restore:(fun _ -> ());
      Engine.schedule_static_at extra ~time:200L (fun () -> ());
      (match
         Checkpoint.restore ~path ~tag:"exp-a" (Checkpoint.Single extra)
       with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "hook without a section accepted");
      Alcotest.(check bool) "earlier hook untouched" false !early_restored;
      Alcotest.(check int64) "clock untouched" 0L (Engine.now extra);
      Alcotest.(check int) "executed untouched" 0 (Engine.events_executed extra);
      Alcotest.(check int) "static still queued" 1 (Engine.pending extra))

(* The same window rule through the orchestrator: a hook's list count that
   runs into the next section is a corrupt section, and [restore] says
   so with [Error]. *)
let test_checkpoint_window_overrun () =
  let path = temp_snapshot () in
  Fun.protect
    ~finally:(fun () -> cleanup path)
    (fun () ->
      let rig () =
        let e = Engine.create () in
        Engine.register_snapshot e ~name:"short"
          ~save:(fun w ->
            Snapshot.W.varint w 5;
            Snapshot.W.byte w 1;
            Snapshot.W.byte w 2)
          ~restore:(fun r -> ignore (Snapshot.R.list r Snapshot.R.byte));
        Engine.register_snapshot e ~name:"long"
          ~save:(fun w -> Snapshot.W.string w (String.make 100 'z'))
          ~restore:(fun r -> ignore (Snapshot.R.string r));
        e
      in
      Checkpoint.save ~path ~tag:"overrun" (Checkpoint.Single (rig ()));
      match Checkpoint.restore ~path ~tag:"overrun" (Checkpoint.Single (rig ())) with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "list count past its section accepted")

(* A save that fails leaves the disk as it was: quiescence is checked
   before any file is opened, and a hook that raises mid-save (after
   writing some bytes) removes the temp file before anything rotates. *)
let test_failed_save_touches_nothing () =
  let path = temp_snapshot () in
  let tmp = path ^ ".tmp" in
  Fun.protect
    ~finally:(fun () ->
      cleanup path;
      try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      let engine = Engine.create () in
      let saves = ref 0 and die = ref false in
      Engine.register_snapshot engine ~name:"flaky"
        ~save:(fun w ->
          incr saves;
          Snapshot.W.varint w !saves;
          Snapshot.W.string w (String.make 10_000 'q');
          if !die then failwith "hook died mid-save")
        ~restore:(fun _ -> ());
      let save ?torn_keep_bytes () =
        Checkpoint.save ?torn_keep_bytes ~path ~tag:"t" (Checkpoint.Single engine)
      in
      save ();
      save ();
      let read p = In_channel.with_open_bin p In_channel.input_all in
      let before = (read path, read (Snapshot.previous_generation path)) in
      let unchanged what =
        Alcotest.(check bool) (what ^ ": no temp file") false (Sys.file_exists tmp);
        Alcotest.(check bool) (what ^ ": generations unchanged") true
          ((read path, read (Snapshot.previous_generation path)) = before)
      in
      Engine.schedule engine ~delay:10L (fun () -> ());
      List.iter
        (fun torn_keep_bytes ->
          Alcotest.check_raises "non-quiescent engine"
            (Invalid_argument "Checkpoint.save: target is not quiescent")
            (fun () -> save ?torn_keep_bytes ());
          unchanged "non-quiescent engine")
        [ None; Some 12 ];
      Engine.run_until_quiescent engine;
      die := true;
      List.iter
        (fun torn_keep_bytes ->
          Alcotest.check_raises "hook raised" (Failure "hook died mid-save")
            (fun () -> save ?torn_keep_bytes ());
          unchanged "hook raised")
        [ None; Some 12 ])

(* --- whole-machine round trip -------------------------------------------- *)

(* Full-coverage builder: auth + console + accelerator alongside the KVS,
   so every registered subsystem hook is exercised by the round trip. *)
let full_spec =
  {
    System.default_spec with
    System.with_auth = true;
    users = [ ("kvs", "kvs-secret") ];
    with_console = true;
    accel_count = 1;
  }

let full_rig () =
  match Scenario.run ~spec:full_spec ~smoke_ops:0 () with
  | Error e -> Alcotest.fail ("scenario: " ^ e)
  | Ok outcome -> (outcome.Scenario.system, outcome.Scenario.app)

let drive system app ~tag ~ops =
  for i = 1 to ops do
    let key = Printf.sprintf "%s-%03d" tag i in
    Kv_app.local_op app (Kv_proto.Put (key, "v" ^ key)) (fun r ->
        if r <> Kv_proto.Done then Alcotest.fail "put failed");
    System.run_until_quiescent system;
    Kv_app.local_op app (Kv_proto.Get key) (fun r ->
        match r with
        | Kv_proto.Value (Some _) -> ()
        | _ -> Alcotest.fail "get failed")
  done;
  System.run_until_quiescent system

let digest_of system = Metrics.digest (Engine.metrics (System.engine system))

let test_full_system_roundtrip () =
  let path = temp_snapshot () in
  Fun.protect
    ~finally:(fun () -> cleanup path)
    (fun () ->
      let sys_a, app_a = full_rig () in
      drive sys_a app_a ~tag:"pre" ~ops:20;
      Alcotest.(check bool) "quiescent" true
        (Engine.quiescent (System.engine sys_a));
      Checkpoint.save ~path ~tag:"full" (Checkpoint.Single (System.engine sys_a));
      let sys_b, app_b = full_rig () in
      (match
         Checkpoint.restore ~path ~tag:"full"
           (Checkpoint.Single (System.engine sys_b))
       with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e);
      (* State equality at the restore point... *)
      Alcotest.(check int64) "digest equal after restore" (digest_of sys_a)
        (digest_of sys_b);
      Alcotest.(check int64) "clock equal" (Engine.now (System.engine sys_a))
        (Engine.now (System.engine sys_b));
      (* ...and behavioral equivalence past it: the same continued
         workload produces the same observable state on both machines. *)
      drive sys_a app_a ~tag:"post" ~ops:20;
      drive sys_b app_b ~tag:"post" ~ops:20;
      Alcotest.(check int64) "digest equal after continuation"
        (digest_of sys_a) (digest_of sys_b);
      Alcotest.(check int) "events equal after continuation"
        (Engine.events_executed (System.engine sys_a))
        (Engine.events_executed (System.engine sys_b)))

(* --- T16: kill-resume soak ----------------------------------------------- *)

let journal_of (r : Experiments.t16_result) =
  List.concat_map
    (fun system -> Engine.sanitizer_journal (System.engine system))
    (Array.to_list r.Experiments.t16_systems)

(* One seed-42 kill-resume run, shared by the t16 tests: an uninterrupted
   leg that writes no checkpoints (the reference), the resumed leg, and
   the two checkpoint files (primary, previous generation) that the
   resumed leg and an uninterrupted checkpointing leg each left on disk. *)
type t16_run = {
  full : Experiments.t16_result;
  killed_segments : int;
  resumed : Experiments.t16_result;
  full_files : string * string;
  resumed_files : string * string;
}

let t16_run =
  lazy
    (let full_path = temp_snapshot () and path = temp_snapshot () in
     Fun.protect
       ~finally:(fun () -> cleanup full_path; cleanup path)
       (fun () ->
         let seed = 42L in
         let files path =
           let read p = In_channel.with_open_bin p In_channel.input_all in
           (read path, read (Snapshot.previous_generation path))
         in
         let full = Experiments.t16_soak ~sanitize:true ~seed () in
         ignore
           (Experiments.t16_soak ~sanitize:true ~seed ~snapshot_path:full_path ());
         let killed =
           Experiments.t16_soak ~sanitize:true ~seed ~snapshot_path:path
             ~stop_after:Experiments.t16_kill_boundary ~torn_final:true ()
         in
         let resumed =
           Experiments.t16_soak ~sanitize:true ~seed ~snapshot_path:path
             ~resume:true ()
         in
         {
           full;
           killed_segments = killed.Experiments.t16_segments_run;
           resumed;
           full_files = files full_path;
           resumed_files = files path;
         }))

let test_t16_kill_resume_bit_identical () =
  let { full; killed_segments; resumed; _ } = Lazy.force t16_run in
  Alcotest.(check int) "killed after boundary 3" Experiments.t16_kill_boundary
    killed_segments;
  (match resumed.Experiments.t16_restored with
  | Some Snapshot.Previous -> ()
  | Some Snapshot.Primary ->
    Alcotest.fail "torn primary restored instead of rejected"
  | None -> Alcotest.fail "resume leg did not restore");
  Alcotest.(check int64) "digest bit-identical"
    full.Experiments.t16_digest resumed.Experiments.t16_digest;
  Alcotest.(check int) "event count identical" full.Experiments.t16_events
    resumed.Experiments.t16_events;
  Alcotest.(check int64) "virtual clock identical"
    full.Experiments.t16_elapsed resumed.Experiments.t16_elapsed;
  (* The sanitizer journal — every multi-event tick's observable-state
     hash, restored from the snapshot and extended by the re-run — must
     be bit-identical too, not just the end state. *)
  Alcotest.(check int) "journal length identical"
    (List.length (journal_of full))
    (List.length (journal_of resumed));
  Alcotest.(check bool) "journal bit-identical" true
    (journal_of full = journal_of resumed);
  (* The breaker actually exercised its crash window along the way. *)
  let nic_dev system = Lastcpu_devices.Smart_nic.device (System.nic system 0) in
  Alcotest.(check bool) "breaker opened during the soak" true
    (Device.breaker_opens (nic_dev resumed.Experiments.t16_systems.(0)) > 0)

(* The resumed leg restored discarded NAND pages as zero pages from the
   previous generation and saved again: both files it leaves must equal
   an uninterrupted checkpointing leg's byte for byte. *)
let test_t16_resumed_files_identical () =
  let { full_files = full, full_prev; resumed_files = resumed, resumed_prev; _ } =
    Lazy.force t16_run
  in
  Alcotest.(check bool) "primary byte-identical" true (String.equal full resumed);
  Alcotest.(check bool) "previous generation byte-identical" true
    (String.equal full_prev resumed_prev)

(* A real checkpoint, pinned: the seed-42 T16 soak's final snapshot file,
   as `lastcpu experiment t16 --snapshot-path` writes it. Any change to
   what a subsystem saves, or to the container, moves its size or CRC.
   It was 11,354,742 B (CRC 0x7e131d30) while the NAND section carried
   every programmed page's bytes; since stale and zero pages are saved
   as their index and length 0, it holds live flash only. *)
let test_t16_checkpoint_pinned () =
  let path = temp_snapshot () in
  Fun.protect
    ~finally:(fun () -> cleanup path)
    (fun () ->
      ignore (Experiments.t16_soak ~seed:42L ~snapshot_path:path ());
      let data = In_channel.with_open_bin path In_channel.input_all in
      let n = String.length data in
      Alcotest.(check int) "file bytes" 473_106 n;
      Alcotest.(check int) "file CRC trailer" 0x71b74815
        (Snapshot.R.u32 (Snapshot.R.of_string (String.sub data (n - 4) 4))))

let () =
  Alcotest.run "snapshot"
    [
      ( "format",
        [
          Alcotest.test_case "codec roundtrip" `Quick test_codec_roundtrip;
          Alcotest.test_case "encode/decode" `Quick test_encode_decode;
          Alcotest.test_case "bit flip rejected" `Quick test_bit_flip_rejected;
          Alcotest.test_case "header and trailer flips rejected" `Quick
            test_header_and_trailer_flips_rejected;
          Alcotest.test_case "window ends at its section" `Quick
            test_window_ends_at_section;
          Alcotest.test_case "truncation rejected" `Quick
            test_truncation_rejected;
          Alcotest.test_case "format pinned" `Quick test_format_pinned;
          Alcotest.test_case "torn write is a prefix" `Quick
            test_torn_write_is_prefix;
          Alcotest.test_case "crafted counts rejected" `Quick
            test_crafted_counts_rejected;
          Alcotest.test_case "crafted section length rejected" `Quick
            test_crafted_section_length_rejected;
          Alcotest.test_case "generations and fallback" `Quick
            test_generations_and_fallback;
        ] );
      ( "borrowed pages",
        [
          Alcotest.test_case "borrowed writer equals copied" `Quick
            test_borrowed_equals_copied;
          Alcotest.test_case "page-CRC cache never stale" `Quick
            test_page_crc_cache_never_stale;
        ] );
      ( "engine hooks",
        [
          Alcotest.test_case "registry" `Quick test_hook_registry;
          Alcotest.test_case "save requires quiescence" `Quick
            test_save_requires_quiescence;
        ] );
      ( "wal watermark",
        [
          Alcotest.test_case "no double-apply after restore" `Quick
            test_watermark_skips_replayed_prefix;
        ] );
      ( "resume semantics",
        [
          Alcotest.test_case "breaker probe schedule" `Quick
            test_breaker_resumes_probe_schedule;
          Alcotest.test_case "crash-window remainder" `Quick
            test_crash_window_survives_restore;
          Alcotest.test_case "orchestrator mismatches" `Quick
            test_checkpoint_mismatches;
          Alcotest.test_case "window overrun is an error" `Quick
            test_checkpoint_window_overrun;
          Alcotest.test_case "failed save touches nothing" `Quick
            test_failed_save_touches_nothing;
        ] );
      ( "untrusted indices",
        [
          Alcotest.test_case "device recent-ring index" `Quick
            test_device_recent_index_rejected;
          Alcotest.test_case "virtqueue driver tables" `Quick
            test_virtqueue_driver_indices_rejected;
          Alcotest.test_case "ftl section" `Quick test_ftl_section_rejected;
          Alcotest.test_case "fs cached block ids" `Quick
            test_fs_cached_ids_rejected;
          Alcotest.test_case "nand section" `Quick test_nand_section_rejected;
        ] );
      ( "live pages",
        [
          Alcotest.test_case "stale and zero pages carry no bytes" `Quick
            test_stale_and_zero_pages_carry_no_bytes;
          Alcotest.test_case "rewrites add no page bytes" `Quick
            test_rewrites_add_no_page_bytes;
        ] );
      ( "whole machine",
        [
          Alcotest.test_case "full-system roundtrip" `Quick
            test_full_system_roundtrip;
        ] );
      ( "t16",
        [
          Alcotest.test_case "kill-resume bit-identical" `Slow
            test_t16_kill_resume_bit_identical;
          Alcotest.test_case "resumed files byte-identical" `Slow
            test_t16_resumed_files_identical;
          Alcotest.test_case "seed-42 checkpoint pinned" `Quick
            test_t16_checkpoint_pinned;
        ] );
    ]
