(* lastcpu-lint golden tests: each fixture under lint_fixtures/ seeds one
   rule's violations; the scanner must report exactly those findings
   (rule, line, enclosing binding), the clean fixture must report none,
   and suppressions must silence findings site-by-site while a
   suppression matching nothing is surfaced as stale. *)

let fixture name = Filename.concat "lint_fixtures" name

(* The fixtures live outside the real scan roots, so the tests carry
   their own config putting lint_fixtures/ in scope for every rule. *)
let config =
  Lint_core.parse_rules
    "D001 scope=lint_fixtures\n\
     D002 scope=lint_fixtures\n\
     D003 scope=lint_fixtures\n\
     D004 scope=lint_fixtures\n\
     D005 scope=lint_fixtures\n\
     D006 scope=lint_fixtures\n\
     D009 scope=lint_fixtures\n"

let scan name =
  let path = fixture name in
  match Lint_core.scan_string config ~path (Lint_core.read_file path) with
  | Ok findings ->
    List.map
      (fun f -> (f.Lint_core.rule, f.Lint_core.line, f.Lint_core.binding))
      findings
  | Error msg -> Alcotest.failf "fixture %s failed to scan: %s" name msg

let finding = Alcotest.(list (triple string int string))

(* --- golden findings per rule ------------------------------------------------ *)

let test_d001 () =
  Alcotest.check finding "d001_hashtbl.ml"
    [ ("D001", 2, "tally"); ("D001", 3, "total") ]
    (scan "d001_hashtbl.ml")

let test_d002 () =
  (* Line 3 spells it Stdlib.Random.bool: the leading Stdlib must not
     hide the hazard. *)
  Alcotest.check finding "d002_random.ml"
    [ ("D002", 2, "jitter"); ("D002", 3, "coin") ]
    (scan "d002_random.ml")

let test_d003 () =
  Alcotest.check finding "d003_wallclock.ml"
    [ ("D003", 2, "stamp"); ("D003", 3, "shard") ]
    (scan "d003_wallclock.ml")

let test_d004 () =
  Alcotest.check finding "d004_physeq.ml"
    [ ("D004", 2, "snapshot"); ("D004", 3, "same"); ("D004", 4, "diff") ]
    (scan "d004_physeq.ml")

let test_d005 () =
  Alcotest.check finding "d005_print.ml"
    [ ("D005", 2, "report"); ("D005", 3, "shout") ]
    (scan "d005_print.ml")

let test_d006 () =
  Alcotest.check finding "d006_station.ml"
    [ ("D006", 2, "rush"); ("D006", 3, "sneak") ]
    (scan "d006_station.ml")

let test_d009 () =
  Alcotest.check finding "d009_copypath.ml"
    [ ("D009", 2, "slurp"); ("D009", 3, "stuff") ]
    (scan "d009_copypath.ml")

let test_clean () = Alcotest.check finding "clean.ml" [] (scan "clean.ml")

(* --- D010: unreferenced exports ------------------------------------------------ *)

(* A small tree in memory: two libraries' interfaces and their callers.
   Only values some other file reaches survive; a use inside the
   module's own implementation does not count. *)
let d010_tree =
  [
    ( "lib/a/alpha.mli",
      "val used : int\n\
       val dead : int\n\
       val self_only : int\n\
       module Sub : sig\n\
      \  val deep : int\n\
      \  val gone : int\n\
       end\n\
       val via_open : int\n\
       val via_alias : int\n" );
    ("lib/a/alpha.ml", "let self_only = 3\nlet dead = self_only\n");
    ("lib/a/gamma.mli", "module Al = Alpha\n");
    ("lib/b/beta.mli", "val x : int\nmodule Inner : sig val y : int end\n");
    ( "bin/main.ml",
      "module A = Lastcpu_a.Alpha\n\
       module S = A.Sub\n\
       let () = ignore (A.used + S.deep)\n" );
    ("test/t.ml", "let () = Lastcpu_a.Alpha.(ignore via_open)\n");
    ("test/u.ml", "let () = ignore Lastcpu_a.Gamma.Al.via_alias\n");
    ("examples/e.ml", "module M = F (Lastcpu_b.Beta)\n");
    ("bin/tool.mli", "val unscoped : int\n");
  ]

let test_d010 () =
  let config = Lint_core.parse_rules "D010 scope=lib\n" in
  Alcotest.check finding "unreferenced exports"
    [
      ("D010", 2, "dead"); ("D010", 3, "self_only"); ("D010", 6, "Sub.gone");
    ]
    (List.map
       (fun f -> (f.Lint_core.rule, f.Lint_core.line, f.Lint_core.binding))
       (Lint_core.unreferenced_exports config d010_tree))

(* --- scope and exemptions ---------------------------------------------------- *)

let test_out_of_scope () =
  (* Same hazardous source under a path no rule covers: no findings. *)
  let src = Lint_core.read_file (fixture "d001_hashtbl.ml") in
  match Lint_core.scan_string config ~path:"elsewhere/d001.ml" src with
  | Ok [] -> ()
  | Ok fs -> Alcotest.failf "expected no findings, got %d" (List.length fs)
  | Error e -> Alcotest.fail e

let test_exempt () =
  (* An exempt= entry silences the whole file for that rule, the way
     lib/sim/detmap.ml is the blessed home of Hashtbl iteration. *)
  let config =
    Lint_core.parse_rules
      "D001 scope=lint_fixtures exempt=lint_fixtures/d001_hashtbl.ml\n"
  in
  let path = fixture "d001_hashtbl.ml" in
  match Lint_core.scan_string config ~path (Lint_core.read_file path) with
  | Ok [] -> ()
  | Ok fs -> Alcotest.failf "expected exemption, got %d findings" (List.length fs)
  | Error e -> Alcotest.fail e

(* --- suppressions ------------------------------------------------------------ *)

let scan_raw name =
  let path = fixture name in
  match Lint_core.scan_string config ~path (Lint_core.read_file path) with
  | Ok findings -> findings
  | Error msg -> Alcotest.failf "fixture %s failed to scan: %s" name msg

let test_suppressions_silence () =
  let findings = scan_raw "d001_hashtbl.ml" @ scan_raw "d005_print.ml" in
  let suppressions =
    Lint_core.parse_suppressions
      "D001 lint_fixtures/d001_hashtbl.ml tally -- fixture\n\
       D001 lint_fixtures/d001_hashtbl.ml total -- fixture\n\
       D005 lint_fixtures/d005_print.ml report -- fixture\n\
       D005 lint_fixtures/d005_print.ml shout -- fixture\n"
  in
  let unsuppressed, stale = Lint_core.apply_suppressions suppressions findings in
  Alcotest.(check int) "all silenced" 0 (List.length unsuppressed);
  Alcotest.(check int) "none stale" 0 (List.length stale)

let test_suppression_is_site_specific () =
  (* Suppressing `tally' must not silence `total' in the same file. *)
  let findings = scan_raw "d001_hashtbl.ml" in
  let suppressions =
    Lint_core.parse_suppressions
      "D001 lint_fixtures/d001_hashtbl.ml tally -- fixture\n"
  in
  let unsuppressed, stale = Lint_core.apply_suppressions suppressions findings in
  Alcotest.(check int) "one left" 1 (List.length unsuppressed);
  Alcotest.(check string) "the other binding" "total"
    (List.hd unsuppressed).Lint_core.binding;
  Alcotest.(check int) "none stale" 0 (List.length stale)

let test_stale_suppression () =
  let findings = scan_raw "clean.ml" in
  let suppressions =
    Lint_core.parse_suppressions
      "D002 lint_fixtures/clean.ml add -- obsolete\n"
  in
  let unsuppressed, stale = Lint_core.apply_suppressions suppressions findings in
  Alcotest.(check int) "nothing to report" 0 (List.length unsuppressed);
  Alcotest.(check int) "stale surfaced" 1 (List.length stale);
  Alcotest.(check string) "which one" "obsolete"
    (List.hd stale).Lint_core.s_reason

let test_suppression_requires_reason () =
  Alcotest.check_raises "missing justification"
    (Failure
       "lint.suppressions:1: missing justification (use ' -- why')")
    (fun () ->
      ignore (Lint_core.parse_suppressions "D001 some/file.ml binding\n"))

(* --- config parsing ---------------------------------------------------------- *)

let test_rules_parse () =
  match
    Lint_core.parse_rules
      "# comment\nD001 scope=lib,bin exempt=lib/sim/detmap.ml # trailing\n"
  with
  | [ r ] ->
    Alcotest.(check string) "id" "D001" r.Lint_core.id;
    Alcotest.(check (list string)) "scopes" [ "lib"; "bin" ] r.Lint_core.scopes;
    Alcotest.(check (list string))
      "exempt" [ "lib/sim/detmap.ml" ] r.Lint_core.exempt
  | rs -> Alcotest.failf "expected one rule, got %d" (List.length rs)

let test_parse_error_reported () =
  match Lint_core.scan_string config ~path:"lint_fixtures/broken.ml" "let = (" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected a parse error"

let () =
  Alcotest.run "lint"
    [
      ( "golden",
        [
          Alcotest.test_case "d001" `Quick test_d001;
          Alcotest.test_case "d002" `Quick test_d002;
          Alcotest.test_case "d003" `Quick test_d003;
          Alcotest.test_case "d004" `Quick test_d004;
          Alcotest.test_case "d005" `Quick test_d005;
          Alcotest.test_case "d006" `Quick test_d006;
          Alcotest.test_case "d009" `Quick test_d009;
          Alcotest.test_case "d010" `Quick test_d010;
          Alcotest.test_case "clean" `Quick test_clean;
        ] );
      ( "scoping",
        [
          Alcotest.test_case "out of scope" `Quick test_out_of_scope;
          Alcotest.test_case "exempt file" `Quick test_exempt;
        ] );
      ( "suppressions",
        [
          Alcotest.test_case "silence findings" `Quick test_suppressions_silence;
          Alcotest.test_case "site specific" `Quick
            test_suppression_is_site_specific;
          Alcotest.test_case "stale is an error" `Quick test_stale_suppression;
          Alcotest.test_case "reason required" `Quick
            test_suppression_requires_reason;
        ] );
      ( "config",
        [
          Alcotest.test_case "rules parse" `Quick test_rules_parse;
          Alcotest.test_case "parse error" `Quick test_parse_error_reported;
        ] );
    ]
