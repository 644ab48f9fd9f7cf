(* Tests for the NAND model and the FTL. *)

module Nand = Lastcpu_flash.Nand
module Ftl = Lastcpu_flash.Ftl

let small_geometry = { Nand.blocks = 16; pages_per_block = 8; page_size = 512 }

(* Reads copied out of their page views, for comparison. *)
let str (v : Nand.view) = Bytes.sub_string v.bytes v.off small_geometry.page_size
let read_page n ~block ~page = Result.map str (Nand.read_page n ~block ~page)
let ftl_read ftl ~lpn = Result.map str (Ftl.read ftl ~lpn)

(* --- Nand ----------------------------------------------------------------- *)

let test_nand_erased_reads_ff () =
  let n = Nand.create ~geometry:small_geometry () in
  match read_page n ~block:0 ~page:0 with
  | Ok data ->
    Alcotest.(check int) "size" 512 (String.length data);
    Alcotest.(check char) "0xff" '\xff' data.[0]
  | Error e -> Alcotest.fail e

let test_nand_program_read () =
  let n = Nand.create ~geometry:small_geometry () in
  (match Nand.program_page n ~block:1 ~page:2 "hello" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  match read_page n ~block:1 ~page:2 with
  | Ok data ->
    Alcotest.(check string) "data" "hello" (String.sub data 0 5);
    Alcotest.(check char) "padding is ff" '\xff' data.[5]
  | Error e -> Alcotest.fail e

let test_nand_no_overwrite () =
  let n = Nand.create ~geometry:small_geometry () in
  (match Nand.program_page n ~block:0 ~page:0 "a" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  match Nand.program_page n ~block:0 ~page:0 "b" with
  | Error "page not erased" -> ()
  | Ok () -> Alcotest.fail "overwrite accepted"
  | Error e -> Alcotest.fail ("unexpected: " ^ e)

let test_nand_erase_cycle () =
  let n = Nand.create ~geometry:small_geometry () in
  (match Nand.program_page n ~block:0 ~page:0 "a" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match Nand.erase_block n ~block:0 with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "erase count" 1 (Nand.erase_count n ~block:0);
  Alcotest.(check bool) "page erased" true
    (Nand.page_state n ~block:0 ~page:0 = Nand.Erased);
  match Nand.program_page n ~block:0 ~page:0 "b" with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("reprogram after erase: " ^ e)

let test_nand_bounds () =
  let n = Nand.create ~geometry:small_geometry () in
  (match read_page n ~block:99 ~page:0 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oob block accepted");
  (match read_page n ~block:0 ~page:99 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oob page accepted");
  match Nand.program_page n ~block:0 ~page:0 (String.make 1000 'x') with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "oversized program accepted"

(* --- Ftl -------------------------------------------------------------------- *)

let test_ftl_read_unwritten_zero () =
  let ftl = Ftl.create ~nand:(Nand.create ~geometry:small_geometry ()) () in
  match ftl_read ftl ~lpn:0 with
  | Ok data -> Alcotest.(check char) "zero" '\000' data.[0]
  | Error e -> Alcotest.fail e

let test_ftl_write_read_roundtrip () =
  let ftl = Ftl.create ~nand:(Nand.create ~geometry:small_geometry ()) () in
  (match Ftl.write ftl ~lpn:5 "payload" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  match ftl_read ftl ~lpn:5 with
  | Ok data -> Alcotest.(check string) "data" "payload" (String.sub data 0 7)
  | Error e -> Alcotest.fail e

let test_ftl_overwrite_updates () =
  let ftl = Ftl.create ~nand:(Nand.create ~geometry:small_geometry ()) () in
  (match Ftl.write ftl ~lpn:3 "one" with Ok () -> () | Error e -> Alcotest.fail e);
  (match Ftl.write ftl ~lpn:3 "two" with Ok () -> () | Error e -> Alcotest.fail e);
  match ftl_read ftl ~lpn:3 with
  | Ok data -> Alcotest.(check string) "latest wins" "two" (String.sub data 0 3)
  | Error e -> Alcotest.fail e

let test_ftl_gc_under_churn () =
  let ftl = Ftl.create ~nand:(Nand.create ~geometry:small_geometry ()) () in
  let logical = Ftl.logical_pages ftl in
  (* Overwrite a small working set many times: forces GC. *)
  for round = 1 to 40 do
    for lpn = 0 to min 9 (logical - 1) do
      match Ftl.write ftl ~lpn (Printf.sprintf "r%d-l%d" round lpn) with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Printf.sprintf "round %d: %s" round e)
    done
  done;
  Alcotest.(check bool) "gc ran" true (Ftl.gc_runs ftl > 0);
  Alcotest.(check bool) "write amp sane" true (Ftl.write_amplification ftl >= 1.0);
  (* Data still correct after GC. *)
  for lpn = 0 to min 9 (logical - 1) do
    match ftl_read ftl ~lpn with
    | Ok data ->
      let expect = Printf.sprintf "r40-l%d" lpn in
      Alcotest.(check string) "survives gc" expect
        (String.sub data 0 (String.length expect))
    | Error e -> Alcotest.fail e
  done

let test_ftl_trim () =
  let ftl = Ftl.create ~nand:(Nand.create ~geometry:small_geometry ()) () in
  (match Ftl.write ftl ~lpn:1 "data" with Ok () -> () | Error e -> Alcotest.fail e);
  Ftl.trim ftl ~lpn:1;
  match ftl_read ftl ~lpn:1 with
  | Ok data -> Alcotest.(check char) "trimmed reads zero" '\000' data.[0]
  | Error e -> Alcotest.fail e

let test_ftl_full_capacity () =
  let ftl = Ftl.create ~nand:(Nand.create ~geometry:small_geometry ()) () in
  let logical = Ftl.logical_pages ftl in
  for lpn = 0 to logical - 1 do
    match Ftl.write ftl ~lpn (Printf.sprintf "p%d" lpn) with
    | Ok () -> ()
    | Error e -> Alcotest.fail (Printf.sprintf "lpn %d: %s" lpn e)
  done;
  for lpn = 0 to logical - 1 do
    match ftl_read ftl ~lpn with
    | Ok data ->
      let expect = Printf.sprintf "p%d" lpn in
      Alcotest.(check string) "full device intact" expect
        (String.sub data 0 (String.length expect))
    | Error e -> Alcotest.fail e
  done

let test_ftl_bounds () =
  let ftl = Ftl.create ~nand:(Nand.create ~geometry:small_geometry ()) () in
  (match Ftl.write ftl ~lpn:(-1) "x" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "negative lpn accepted");
  match Ftl.write ftl ~lpn:(Ftl.logical_pages ftl) "x" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "oob lpn accepted"

let ok = function Ok v -> v | Error e -> Alcotest.fail e

(* A chip whose logical pages from 10 up hold static data, so churning
   the low ones makes GC relocate live pages. *)
let full_ftl () =
  let ftl = Ftl.create ~nand:(Nand.create ~geometry:small_geometry ()) () in
  for lpn = 10 to Ftl.logical_pages ftl - 1 do
    ok (Ftl.write ftl ~lpn "static")
  done;
  ftl

(* An update starts from the page's current bytes, wherever GC has moved
   them since the last write. *)
let test_ftl_update_edits_current_page () =
  let ftl = full_ftl () in
  ok (Ftl.write ftl ~lpn:2 "abcdef");
  for round = 1 to 40 do
    for lpn = 3 to 9 do
      ok (Ftl.write ftl ~lpn (string_of_int round))
    done;
    if round mod 10 = 0 then
      ok
        (Ftl.update ftl ~lpn:2 (fun b off ->
             Bytes.set b (off + 1) (Char.chr (65 + (round mod 26)))))
  done;
  Alcotest.(check bool) "gc moved pages" true (Ftl.moved_pages ftl > 0);
  Alcotest.(check string) "edits kept, rest intact" "aOcdef"
    (String.sub (ok (ftl_read ftl ~lpn:2)) 0 6)

(* Zero-filled pages share one zero page: they read as zeroes, take an
   update like any page, and survive GC and a checkpoint. *)
let test_zero_pages () =
  let ftl = full_ftl () in
  ok (Ftl.write ftl ~lpn:0 "x");
  ok (Ftl.write_zeroes ftl ~lpn:0);
  ok (Ftl.write_zeroes ftl ~lpn:1);
  ok (Ftl.update ftl ~lpn:1 (fun b off -> Bytes.set b (off + 3) 'z'));
  for round = 1 to 40 do
    for lpn = 2 to 9 do
      ok (Ftl.write ftl ~lpn (string_of_int round))
    done
  done;
  let zero = String.make small_geometry.page_size '\000' in
  let one = String.mapi (fun i c -> if i = 3 then 'z' else c) zero in
  let save ftl =
    let w = Lastcpu_sim.Snapshot.W.create () in
    Nand.save w (Ftl.nand ftl);
    Ftl.save w ftl;
    Lastcpu_sim.Snapshot.W.contents w
  in
  let saved = save ftl in
  let restored = Ftl.create ~nand:(Nand.create ~geometry:small_geometry ()) () in
  let r = Lastcpu_sim.Snapshot.R.of_string saved in
  Nand.restore r (Ftl.nand restored);
  Ftl.restore r restored;
  List.iter
    (fun (lpn, want) ->
      Alcotest.(check string) (Printf.sprintf "lpn %d" lpn) want
        (ok (ftl_read ftl ~lpn));
      Alcotest.(check string) (Printf.sprintf "restored lpn %d" lpn) want
        (str (Ftl.peek restored ~lpn)))
    [ (0, zero); (1, one) ];
  Alcotest.(check bool) "gc moved pages" true (Ftl.moved_pages ftl > 0);
  Alcotest.(check string) "restored stack saves the same bytes" saved
    (save restored)

(* A rewrite moves the source page's bytes to the new page and edits
   them there: one program, no read, and the source is left programmed as
   a zero page, which a checkpoint carries without bytes. *)
let test_nand_rewrite () =
  let n = Nand.create ~geometry:small_geometry () in
  let ps = small_geometry.page_size in
  let zero = String.make ps '\000' in
  ok (Nand.program_page n ~block:1 ~page:2 "hello");
  let programs = Nand.programs n and reads = Nand.reads n in
  ok
    (Nand.rewrite n ~block:3 ~page:0 ~src_block:1 ~src_page:2 (fun b off ->
         Bytes.set b (off + 1) 'E'));
  Alcotest.(check (pair int int))
    "one program, no read" (programs + 1, reads)
    (Nand.programs n, Nand.reads n);
  Alcotest.(check string) "moved and edited"
    ("hEllo" ^ String.make (ps - 5) '\xff')
    (str (Nand.peek_page n ~block:3 ~page:0));
  Alcotest.(check string) "source reads zeroes" zero
    (ok (read_page n ~block:1 ~page:2));
  Alcotest.(check bool) "source still programmed" true
    (Nand.page_state n ~block:1 ~page:2 = Nand.Programmed);
  (match Nand.program_page n ~block:1 ~page:2 "again" with
  | Error "page not erased" -> ()
  | Ok () -> Alcotest.fail "program of the source accepted"
  | Error e -> Alcotest.fail ("unexpected: " ^ e));
  (* A zero source gives zeroes to edit; an erased one is refused. *)
  ok (Nand.program_zeroes n ~block:4 ~page:0);
  ok
    (Nand.rewrite n ~block:4 ~page:1 ~src_block:4 ~src_page:0 (fun b off ->
         Bytes.set b off 'z'));
  Alcotest.(check string) "from a zero page"
    ("z" ^ String.sub zero 1 (ps - 1))
    (str (Nand.peek_page n ~block:4 ~page:1));
  (match
     Nand.rewrite n ~block:4 ~page:2 ~src_block:5 ~src_page:0 (fun _ _ -> ())
   with
  | Error "source page not programmed" -> ()
  | Ok () -> Alcotest.fail "rewrite of an erased page accepted"
  | Error e -> Alcotest.fail ("unexpected: " ^ e));
  let save n =
    let w = Lastcpu_sim.Snapshot.W.create () in
    Nand.save w n;
    Lastcpu_sim.Snapshot.W.contents w
  in
  let saved = save n in
  let restored = Nand.create ~geometry:small_geometry () in
  Nand.restore (Lastcpu_sim.Snapshot.R.of_string saved) restored;
  Alcotest.(check string) "save, restore, save" saved (save restored);
  Alcotest.(check string) "restored source reads zeroes" zero
    (str (Nand.peek_page restored ~block:1 ~page:2))

(* A GC whose second read fails (an injected transient failure; with
   seed 5 the first GC's does) has moved one live page of its victim and
   stops. The moved page must be invalid in the victim: the FTL still
   saves and restores, and a later write of that lpn outlives the
   victim's next GC instead of being rolled back to the moved copy. *)
let test_partial_gc () =
  let faults =
    Lastcpu_sim.Faults.create
      ~plan:{ Lastcpu_sim.Faults.zero with nand_read_fail = 0.5 }
      ~seed:5L
      (Lastcpu_sim.Metrics.create ())
  in
  let geometry = { small_geometry with Nand.blocks = 6; pages_per_block = 4 } in
  let nand = Nand.create ~geometry ~faults () in
  let ftl = Ftl.create ~nand () in
  let model = Array.make (Ftl.logical_pages ftl) "" in
  let write lpn data =
    ok (Ftl.write ftl ~lpn data);
    model.(lpn) <- data
  in
  (* Block 0 takes lpns 0-3 and lpn 0 is rewritten at once, so block 0 is
     the only victim when the fifth of the six blocks fills. *)
  List.iter
    (fun lpn -> write lpn (Printf.sprintf "v1 %d" lpn))
    ([ 0; 1; 2; 3; 0 ] @ List.init 12 (fun i -> 4 + i));
  let reads = Nand.reads nand and moved = Ftl.moved_pages ftl in
  write 0 "v2 0";
  Alcotest.(check (pair int int))
    "gc read twice, moved once" (2, 1)
    (Nand.reads nand - reads, Ftl.moved_pages ftl - moved);
  let w = Lastcpu_sim.Snapshot.W.create () in
  Ftl.save w ftl;
  (match
     Ftl.restore
       (Lastcpu_sim.Snapshot.R.of_string (Lastcpu_sim.Snapshot.W.contents w))
       (Ftl.create ~nand:(Nand.create ~geometry ()) ())
   with
  | () -> ()
  | exception Lastcpu_sim.Snapshot.R.Corrupt m -> Alcotest.fail m);
  (* Rewrite every lpn block 0 held, so it is the best victim, then churn
     the others until it is erased. A write whose GC fails with no free
     block left is refused and changes nothing, so it is retried. *)
  let rec put tries lpn data =
    match Ftl.write ftl ~lpn data with
    | Ok () -> model.(lpn) <- data
    | Error _ when tries > 0 -> put (tries - 1) lpn data
    | Error e -> Alcotest.fail e
  in
  List.iter (fun lpn -> put 10 lpn (Printf.sprintf "v2 %d" lpn)) [ 1; 2; 3 ];
  let round = ref 0 in
  while Nand.erase_count nand ~block:0 = 0 && !round < 200 do
    put 10 (4 + (!round mod 12)) (Printf.sprintf "r%d" !round);
    incr round
  done;
  Alcotest.(check bool) "victim erased" true (Nand.erase_count nand ~block:0 > 0);
  Array.iteri
    (fun lpn want ->
      if want <> "" then
        Alcotest.(check string) (Printf.sprintf "lpn %d" lpn) want
          (String.sub (str (Ftl.peek ftl ~lpn)) 0 (String.length want)))
    model

let ftl_model_prop =
  QCheck.Test.make ~name:"ftl matches a simple map model under churn" ~count:30
    QCheck.(list (pair (int_bound 19) (string_of_size (Gen.return 8))))
    (fun script ->
      let ftl = Ftl.create ~nand:(Nand.create ~geometry:small_geometry ()) () in
      let model = Hashtbl.create 16 in
      List.for_all
        (fun (lpn, data) ->
          match Ftl.write ftl ~lpn data with
          | Error _ -> false
          | Ok () ->
            Hashtbl.replace model lpn data;
            Hashtbl.fold
              (fun lpn expect acc ->
                acc
                &&
                match ftl_read ftl ~lpn with
                | Ok got -> String.sub got 0 (String.length expect) = expect
                | Error _ -> false)
              model true)
        script)

let test_ftl_wear_leveling_bounded_skew () =
  let ftl = Ftl.create ~nand:(Nand.create ~geometry:small_geometry ()) () in
  for round = 1 to 100 do
    for lpn = 0 to 9 do
      match Ftl.write ftl ~lpn (Printf.sprintf "%d" round) with
      | Ok () -> ()
      | Error e -> Alcotest.fail e
    done
  done;
  (* With tie-breaking on erase count, skew should stay well below the
     total erase count. *)
  let skew = Ftl.max_erase_skew ftl in
  let n = Ftl.nand ftl in
  Alcotest.(check bool)
    (Printf.sprintf "skew %d bounded vs %d total erases" skew (Nand.total_erases n))
    true
    (skew <= Nand.total_erases n / 2)

let () =
  Alcotest.run "flash"
    [
      ( "nand",
        [
          Alcotest.test_case "erased reads ff" `Quick test_nand_erased_reads_ff;
          Alcotest.test_case "program/read" `Quick test_nand_program_read;
          Alcotest.test_case "no overwrite" `Quick test_nand_no_overwrite;
          Alcotest.test_case "erase cycle" `Quick test_nand_erase_cycle;
          Alcotest.test_case "bounds" `Quick test_nand_bounds;
          Alcotest.test_case "rewrite moves the page" `Quick test_nand_rewrite;
        ] );
      ( "ftl",
        [
          Alcotest.test_case "unwritten reads zero" `Quick test_ftl_read_unwritten_zero;
          Alcotest.test_case "write/read roundtrip" `Quick test_ftl_write_read_roundtrip;
          Alcotest.test_case "overwrite updates" `Quick test_ftl_overwrite_updates;
          Alcotest.test_case "gc under churn" `Quick test_ftl_gc_under_churn;
          Alcotest.test_case "trim" `Quick test_ftl_trim;
          Alcotest.test_case "full capacity" `Quick test_ftl_full_capacity;
          Alcotest.test_case "bounds" `Quick test_ftl_bounds;
          Alcotest.test_case "wear leveling" `Quick test_ftl_wear_leveling_bounded_skew;
          Alcotest.test_case "update edits current page" `Quick
            test_ftl_update_edits_current_page;
          Alcotest.test_case "zero pages" `Quick test_zero_pages;
          Alcotest.test_case "partial gc" `Quick test_partial_gc;
          QCheck_alcotest.to_alcotest ftl_model_prop;
        ] );
    ]
