(* Same-tick ordering sanitizer: a deliberately racy pair of same-timestamp
   events (non-commutative updates to probed state) must be flagged as a
   divergence under a perturbed tie-break, a commutative pair must not,
   single-event ticks must not be journalled, and the real T1 experiment
   must sanitize clean under both perturbations. *)

module Engine = Lastcpu_sim.Engine
module Sanitizer = Lastcpu_sim.Sanitizer
module Experiments = Lastcpu_core.Experiments

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* Run two same-timestamp events over a probed accumulator and return the
   sanitizer journal. [f] and [g] are applied to the accumulator in the
   order the tie-break dictates. *)
let journal_of ~tie f g =
  let engine = Engine.create ~tie ~sanitize:true () in
  let x = ref 1 in
  Engine.register_probe engine (fun () -> Int64.of_int !x);
  Engine.schedule_at ~label:(fun () -> "first") engine ~time:100L (fun () -> x := f !x);
  Engine.schedule_at ~label:(fun () -> "second") engine ~time:100L (fun () -> x := g !x);
  Engine.run engine;
  Engine.sanitizer_journal engine

(* --- the racy scenario is detected ------------------------------------------- *)

let test_racy_pair_flagged () =
  (* double-then-add vs add-then-double observably differ: 1*2+3=5 but
     (1+3)*2=8. FIFO is the reference order; LIFO swaps the pair. *)
  let reference = journal_of ~tie:Engine.Fifo (fun v -> v * 2) (fun v -> v + 3) in
  let perturbed = journal_of ~tie:Engine.Lifo (fun v -> v * 2) (fun v -> v + 3) in
  check "reference journalled one multi-event tick" 1 (List.length reference);
  check "perturbed journalled one multi-event tick" 1 (List.length perturbed);
  match Sanitizer.compare_journals ~reference ~perturbed with
  | None -> Alcotest.fail "ordering race not detected"
  | Some d ->
    check "at the first journal entry" 0 d.Sanitizer.index;
    (match (d.Sanitizer.reference, d.Sanitizer.perturbed) with
    | Some r, Some p ->
      checkb "hashes differ" true (r.Sanitizer.state_hash <> p.Sanitizer.state_hash);
      Alcotest.(check (list string))
        "colliding labels reported" [ "first"; "second" ] r.Sanitizer.labels
    | _ -> Alcotest.fail "both sides of the divergence should be present")

let test_commutative_pair_clean () =
  (* Both orders land on 1+3+5: no observable dependence on tie order. *)
  let reference = journal_of ~tie:Engine.Fifo (fun v -> v + 3) (fun v -> v + 5) in
  let perturbed = journal_of ~tie:Engine.Lifo (fun v -> v + 3) (fun v -> v + 5) in
  checkb "no divergence" true
    (Sanitizer.compare_journals ~reference ~perturbed = None)

let test_salted_perturbation_detects () =
  (* The seed-salted tie-break must also be able to expose the race for
     some salt; salt 1 swaps this pair (empirically stable: the salted
     key is a pure function of salt and insertion sequence). *)
  let reference = journal_of ~tie:Engine.Fifo (fun v -> v * 2) (fun v -> v + 3) in
  let flagged =
    List.exists
      (fun salt ->
        let perturbed =
          journal_of ~tie:(Engine.Salted salt) (fun v -> v * 2) (fun v -> v + 3)
        in
        Sanitizer.compare_journals ~reference ~perturbed <> None)
      [ 1L; 2L; 3L; 4L ]
  in
  checkb "some salt swaps the pair" true flagged

(* --- journal hygiene --------------------------------------------------------- *)

let test_single_event_ticks_not_journalled () =
  let engine = Engine.create ~sanitize:true () in
  let x = ref 0 in
  Engine.register_probe engine (fun () -> Int64.of_int !x);
  Engine.schedule_at engine ~time:10L (fun () -> incr x);
  Engine.schedule_at engine ~time:20L (fun () -> incr x);
  Engine.run engine;
  check "no multi-event ticks" 0 (List.length (Engine.sanitizer_journal engine))

let test_not_sanitizing_by_default () =
  let engine = Engine.create () in
  checkb "off by default" false (Engine.sanitizing engine);
  check "journal empty" 0 (List.length (Engine.sanitizer_journal engine))

(* --- hash utilities ----------------------------------------------------------- *)

let test_hash_utilities () =
  checkb "mix64 separates neighbours" true
    (Sanitizer.mix64 1L <> Sanitizer.mix64 2L);
  checkb "hash_string keyed by seed" true
    (Sanitizer.hash_string 1L "abc" <> Sanitizer.hash_string 2L "abc");
  checkb "combine is order-sensitive" true
    (Sanitizer.combine (Sanitizer.combine 0L 1L) 2L
    <> Sanitizer.combine (Sanitizer.combine 0L 2L) 1L)

(* --- the real experiments sanitize clean -------------------------------------- *)

let sanitizes_clean exp () =
  let reports = Experiments.sanitize ~exp () in
  check "lifo and salted" 2 (List.length reports);
  List.iter
    (fun (r : Experiments.sanitize_report) ->
      checkb
        (Printf.sprintf "%s vs %s clean" exp r.Experiments.san_perturbation)
        true
        (r.Experiments.san_divergence = None);
      checkb "exercised multi-event ticks" true
        (r.Experiments.san_multi_event_ticks > 0))
    reports

let test_unknown_experiment_rejected () =
  Alcotest.check_raises "unknown id"
    (Invalid_argument "sanitize: unknown experiment t99")
    (fun () -> ignore (Experiments.sanitize ~exp:"t99" ()))

let () =
  Alcotest.run "sanitizer"
    [
      ( "races",
        [
          Alcotest.test_case "racy pair flagged" `Quick test_racy_pair_flagged;
          Alcotest.test_case "commutative pair clean" `Quick
            test_commutative_pair_clean;
          Alcotest.test_case "salted perturbation" `Quick
            test_salted_perturbation_detects;
        ] );
      ( "journal",
        [
          Alcotest.test_case "single-event ticks skipped" `Quick
            test_single_event_ticks_not_journalled;
          Alcotest.test_case "off by default" `Quick test_not_sanitizing_by_default;
        ] );
      ( "hashing", [ Alcotest.test_case "utilities" `Quick test_hash_utilities ] );
      ( "experiments",
        [
          Alcotest.test_case "t1 clean" `Quick (sanitizes_clean "t1");
          (* The seed-42 crash lands mid-workload; a perturbed tie that
             reordered one device's same-tick frames to the bus shifted
             the timeline and the crash met a different in-flight set. *)
          Alcotest.test_case "t13 clean" `Quick (sanitizes_clean "t13");
          Alcotest.test_case "unknown id" `Quick test_unknown_experiment_rejected;
        ] );
    ]
