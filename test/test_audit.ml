(* lastcpu-audit tests.

   Golden fixtures under audit_fixtures/ are typechecked in-process
   (against the compiler's stdlib; local stubs stand in for repo modules,
   which the suffix-based path matching treats identically) and fed
   through the same inventory + findings pipeline audit_main runs over
   .cmt files. Alongside the static goldens: the shared-suppressions
   contract between the two drivers, the grouped rule-line grammar, the
   dynamic ownership sanitizer, and a round-trip regression pinning a
   source fix the first audit run forced (the fuzz mutator's
   stream-position savers). *)

module Engine = Lastcpu_sim.Engine
module Temporal = Lastcpu_sim.Temporal
module Ownership = Lastcpu_sim.Ownership
module Snapshot = Lastcpu_sim.Snapshot
module Fuzz = Lastcpu_sim.Fuzz

let fixture name = Filename.concat "audit_fixtures" name
let modname name = String.capitalize_ascii (Filename.remove_extension name)

let inv name =
  let path = fixture name in
  match
    Audit_core.inventory_of_string ~path ~modname:(modname name)
      (Lint_core.read_file path)
  with
  | Ok i -> i
  | Error e -> Alcotest.fail e

(* Grouped rule line: one line configures both audit rules (and pins the
   comma-separated grammar lint.rules itself now uses). *)
let both_config = Lint_core.parse_rules "D007,D008 scope=audit_fixtures\n"
let d007_config = Lint_core.parse_rules "D007 scope=audit_fixtures\n"

let keys fs =
  List.map
    (fun f -> (f.Lint_core.rule, f.Lint_core.line, f.Lint_core.binding))
    fs

let finding = Alcotest.(list (triple string int string))

let audit ?(config = both_config) names =
  Audit_core.findings ~config (List.map inv names)

(* --- golden fixtures --------------------------------------------------------- *)

let test_racy () =
  (* table/counter flag on their type; next_id's type is a bare arrow, so
     only the hidden-state walk of its initialiser can catch it. *)
  Alcotest.check finding "racy_global.ml"
    [ ("D007", 4, "table"); ("D007", 5, "counter"); ("D007", 7, "next_id") ]
    (keys (audit [ "racy_global.ml" ]))

let test_per_shard_clean () =
  Alcotest.check finding "per_shard.ml" []
    (keys (audit ~config:d007_config [ "per_shard.ml" ]))

let test_unregistered () =
  (* Inner.t is directly mutable; the wrapper t reaches it through a
     field, so the whole-program fixpoint must flag both. *)
  Alcotest.check finding "unregistered.ml"
    [ ("D008", 5, "Inner.t"); ("D008", 8, "t") ]
    (keys (audit [ "unregistered.ml" ]))

let test_hooked_clean () =
  Alcotest.check finding "hooked.ml" [] (keys (audit [ "hooked.ml" ]))

(* --- suppressions ------------------------------------------------------------ *)

let test_suppression_honored () =
  let supp =
    Lint_core.parse_suppressions
      "D007 audit_fixtures/racy_global.ml table -- fixture waiver\n"
  in
  let un, stale =
    Lint_core.apply_suppressions ~known_rules:Audit_core.audit_rules supp
      (audit [ "racy_global.ml" ])
  in
  Alcotest.check finding "others still reported"
    [ ("D007", 5, "counter"); ("D007", 7, "next_id") ]
    (keys un);
  Alcotest.(check int) "no stale" 0 (List.length stale)

let test_suppression_stale () =
  let supp =
    Lint_core.parse_suppressions
      "D008 audit_fixtures/per_shard.ml t -- matches nothing\n"
  in
  let _, stale =
    Lint_core.apply_suppressions ~known_rules:Audit_core.audit_rules supp
      (audit [ "racy_global.ml" ])
  in
  Alcotest.(check int) "stale audit entry is an error" 1 (List.length stale)

let test_cross_driver_staleness () =
  (* The drivers share one suppressions file: an unmatched D004 entry is
     lint_main's business, so the audit pass must NOT call it stale — but
     a driver given no known_rules judges every entry. *)
  let supp =
    Lint_core.parse_suppressions "D004 lib/x.ml y -- lint-owned entry\n"
  in
  let _, stale_audit =
    Lint_core.apply_suppressions ~known_rules:Audit_core.audit_rules supp []
  in
  Alcotest.(check int) "foreign entry ignored" 0 (List.length stale_audit);
  let supp = Lint_core.parse_suppressions "D004 lib/x.ml y -- entry\n" in
  let _, stale_all = Lint_core.apply_suppressions supp [] in
  Alcotest.(check int) "unfiltered judges all" 1 (List.length stale_all)

(* --- config grammar ----------------------------------------------------------- *)

let test_grouped_rule_line () =
  let config = Lint_core.parse_rules "D001,D004 scope=x,y exempt=x/a.ml\n" in
  Alcotest.(check (list string))
    "group expands to one config per id" [ "D001"; "D004" ]
    (List.map (fun r -> r.Lint_core.id) config);
  List.iter
    (fun r ->
      Alcotest.(check (list string)) "shared scopes" [ "x"; "y" ] r.Lint_core.scopes;
      Alcotest.(check (list string))
        "shared exempt" [ "x/a.ml" ] r.Lint_core.exempt)
    config

(* --- dynamic ownership sanitizer ---------------------------------------------- *)

let test_ownership_violation () =
  let e0 = Engine.create () and e1 = Engine.create () in
  let _t = Temporal.create ~lookahead:100L [| e0; e1 |] in
  Ownership.enable ();
  Fun.protect ~finally:Ownership.disable @@ fun () ->
  let before = Ownership.checks () in
  (* Scheduling onto your own shard's engine is the contract... *)
  Ownership.with_shard 0 (fun () ->
      Engine.schedule_at e0 ~time:(Int64.add (Engine.now e0) 1L) (fun () -> ()));
  Alcotest.(check bool) "guarded access counted" true
    (Ownership.checks () > before);
  (* ...scheduling onto another shard's engine from a parallel window is
     the race the sanitizer exists to catch. *)
  match
    Ownership.with_shard 1 (fun () ->
        Engine.schedule_at e0 ~time:(Int64.add (Engine.now e0) 1L) (fun () -> ()))
  with
  | () -> Alcotest.fail "cross-shard schedule must raise Violation"
  | exception Ownership.Violation _ -> ()

let test_ownership_clean_run () =
  (* Two shards trading boundary messages through the blessed path
     (Temporal.post, flushed at quantum edges) run violation-free under
     checking, and the run exercises the guards (checks advance). *)
  let e0 = Engine.create () and e1 = Engine.create () in
  let t = Temporal.create ~lookahead:50L [| e0; e1 |] in
  let hits = ref 0 in
  let rec ping e n =
    Engine.schedule e ~delay:10L (fun () ->
        incr hits;
        if n > 0 then begin
          ping e (n - 1);
          let src = if e == e0 then 0 else 1 in
          Temporal.post t ~src ~dst:(1 - src) (fun () -> incr hits)
        end)
  in
  ping e0 5;
  ping e1 5;
  Ownership.enable ();
  Fun.protect ~finally:Ownership.disable (fun () -> Temporal.run t);
  Alcotest.(check int) "all events fired" 22 !hits;
  Alcotest.(check bool) "guards exercised" true (Ownership.checks () > 0)

(* --- regressions for the audit-forced fixes ----------------------------------- *)

(* D008 fix: a restored fuzz mutator continues the exact mutant sequence
   of the uninterrupted campaign. *)
let test_fuzz_save_restore () =
  let a = Fuzz.create ~seed:7L in
  let _ = Fuzz.mutate_int a 5 in
  let _ = Fuzz.mutate_string a "frame" in
  let w = Snapshot.W.create () in
  Fuzz.save w a;
  let tail_a = List.init 32 (fun _ -> Fuzz.mutate_int64 a 0x1234L) in
  let b = Fuzz.create ~seed:999L in
  let r = Snapshot.R.of_string (Snapshot.W.contents w) in
  Fuzz.restore r b;
  let tail_b = List.init 32 (fun _ -> Fuzz.mutate_int64 b 0x1234L) in
  Alcotest.(check (list int64)) "resumed campaign continues the sequence"
    tail_a tail_b

let () =
  Alcotest.run "audit"
    [
      ( "golden",
        [
          Alcotest.test_case "racy global flagged" `Quick test_racy;
          Alcotest.test_case "per-shard clone clean" `Quick test_per_shard_clean;
          Alcotest.test_case "unregistered state flagged" `Quick
            test_unregistered;
          Alcotest.test_case "hooked subsystem clean" `Quick test_hooked_clean;
        ] );
      ( "suppressions",
        [
          Alcotest.test_case "honored site-by-site" `Quick
            test_suppression_honored;
          Alcotest.test_case "stale is an error" `Quick test_suppression_stale;
          Alcotest.test_case "cross-driver ownership" `Quick
            test_cross_driver_staleness;
        ] );
      ( "config",
        [ Alcotest.test_case "grouped rule line" `Quick test_grouped_rule_line ] );
      ( "ownership",
        [
          Alcotest.test_case "cross-shard access raises" `Quick
            test_ownership_violation;
          Alcotest.test_case "blessed paths run clean" `Quick
            test_ownership_clean_run;
        ] );
      ( "fixes",
        [
          Alcotest.test_case "fuzz campaign resume" `Quick
            test_fuzz_save_restore;
        ] );
    ]
