(* Shape-regression tests over the experiment harness: cheap experiments
   run end to end and their *shapes* (who wins, monotonicity, crossovers)
   are asserted, so a refactor that silently breaks a result fails here
   rather than in EXPERIMENTS.md. *)

module E = Lastcpu_core.Experiments

let run id =
  match E.by_id id with
  | Some table -> table ()
  | None -> Alcotest.fail ("missing experiment " ^ id)

let cell table r c =
  match List.nth_opt table.E.rows r with
  | Some row -> (
    match List.nth_opt row c with
    | Some cell -> cell
    | None -> Alcotest.fail (Printf.sprintf "%s: no column %d" table.E.id c))
  | None -> Alcotest.fail (Printf.sprintf "%s: no row %d" table.E.id r)

let float_cell table r c =
  let s = cell table r c in
  (* Strip trailing units like "x" or "%". *)
  let s =
    String.concat ""
      (List.filter (fun c -> c <> "") (String.split_on_char ',' s))
  in
  let rec prefix i =
    if
      i < String.length s
      && (s.[i] = '.' || s.[i] = '-' || (s.[i] >= '0' && s.[i] <= '9'))
    then prefix (i + 1)
    else i
  in
  let n = prefix 0 in
  if n = 0 then Alcotest.fail (Printf.sprintf "%s: cell %S not numeric" table.E.id s)
  else float_of_string (String.sub s 0 n)

let test_f2_complete () =
  let t = run "f2" in
  Alcotest.(check int) "seven steps" 7 (List.length t.E.rows);
  (* Timestamps strictly increase down the table. *)
  let times = List.init 7 (fun i -> float_cell t i 1) in
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "monotonic" true (increasing times)

let test_t5_tlb_monotone () =
  let t = run "t5" in
  Alcotest.(check int) "four configs" 4 (List.length t.E.rows);
  (* Hit rate rises, cost falls, as the TLB grows. *)
  let hit i = float_cell t i 1 in
  let cost i = float_cell t i 3 in
  for i = 0 to 2 do
    Alcotest.(check bool) "hit rate nondecreasing" true (hit (i + 1) >= hit i);
    Alcotest.(check bool) "cost nonincreasing" true (cost (i + 1) <= cost i)
  done;
  Alcotest.(check bool) "no-TLB is worst" true (cost 0 > 10. *. cost 3)

let test_t9_scaling_shape () =
  let t = run "t9" in
  (* Boot grows mildly; broadcast deliveries grow quadratically: last row
     has 16 NICs -> 512 deliveries. *)
  let boot i = float_cell t i 1 in
  Alcotest.(check bool) "boot grows" true (boot 4 > boot 0);
  Alcotest.(check string) "O(N^2) broadcasts" "512" (cell t 4 4);
  List.iteri
    (fun i row ->
      ignore i;
      let answered = List.nth row 3 in
      match String.split_on_char '/' answered with
      | [ a; b ] -> Alcotest.(check string) "all answered" b a
      | _ -> Alcotest.fail "bad answered cell")
    t.E.rows

let test_t10_wa_vs_op () =
  let t = run "t10" in
  let wa i = float_cell t i 2 in
  (* More over-provisioning -> less write amplification. *)
  Alcotest.(check bool) "WA falls with OP" true (wa 3 < wa 0);
  List.iteri
    (fun i _ -> Alcotest.(check bool) "WA >= 1" true (wa i >= 1.0))
    t.E.rows

let test_t11_crossover () =
  let t = run "t11" in
  let speedup i = float_cell t i 3 in
  let n = List.length t.E.rows in
  (* Offload loses at the smallest size, wins at the largest, and the
     advantage grows monotonically with bytes. *)
  Alcotest.(check bool) "loses small" true (speedup 0 < 1.0);
  Alcotest.(check bool) "wins large" true (speedup (n - 1) > 10.0);
  for i = 0 to n - 2 do
    Alcotest.(check bool) "monotone" true (speedup (i + 1) >= speedup i)
  done

let test_t1_same_order_of_magnitude () =
  let t = run "t1" in
  List.iter
    (fun row ->
      match row with
      | [ op; d; c; _ ] ->
        let d = float_of_string d and c = float_of_string c in
        Alcotest.(check bool)
          (Printf.sprintf "%s within 10x" op)
          true
          (d /. c < 10. && c /. d < 10.)
      | _ -> Alcotest.fail "bad t1 row")
    t.E.rows

let test_registry_complete () =
  List.iter
    (fun id ->
      match E.by_id id with
      | Some _ -> ()
      | None -> Alcotest.fail ("missing experiment " ^ id))
    [ "f1"; "f2"; "t1"; "t1-notokens"; "t2"; "t3"; "t4"; "t5"; "t6"; "t7";
      "t8"; "t9"; "t10"; "t11"; "t12" ];
  Alcotest.(check (option Alcotest.reject)) "unknown id" None
    (Option.map (fun _ -> ()) (E.by_id "t99"))

let () =
  Alcotest.run "experiments"
    [
      ( "shapes",
        [
          Alcotest.test_case "f2 complete" `Quick test_f2_complete;
          Alcotest.test_case "t1 order of magnitude" `Quick
            test_t1_same_order_of_magnitude;
          Alcotest.test_case "t5 tlb monotone" `Quick test_t5_tlb_monotone;
          Alcotest.test_case "t9 scaling" `Quick test_t9_scaling_shape;
          Alcotest.test_case "t10 wa vs op" `Quick test_t10_wa_vs_op;
          Alcotest.test_case "t11 crossover" `Quick test_t11_crossover;
        ] );
      ("registry", [ Alcotest.test_case "complete" `Quick test_registry_complete ]);
    ]
