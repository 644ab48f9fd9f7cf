(* Tests for the benchmark's own code: seeded generators, layer charging
   and the correctness gate. *)

open Perfbench
module Engine = Lastcpu_sim.Engine
module Nand = Lastcpu_flash.Nand
module Kv_proto = Lastcpu_kv.Kv_proto

let kv_ops_deterministic () =
  List.iter
    (fun (shape : Workloads.kv_shape) ->
      let a = Gen.kv_ops shape.mix ~seed:7 in
      let b = Gen.kv_ops shape.mix ~seed:7 in
      let c = Gen.kv_ops shape.mix ~seed:8 in
      Alcotest.(check bool) "same seed, same ops" true (a = b);
      Alcotest.(check bool) "other seed, other ops" false (a = c))
    [ Workloads.kv_read; Workloads.kv_write ];
  let mix = Workloads.kv_read.mix in
  Alcotest.(check bool) "preload is seed-free" true (Gen.preload mix = Gen.preload mix)

let churn_and_spec_deterministic () =
  Alcotest.(check bool) "churn apps" true
    (Gen.churn_apps ~apps:8 ~seed:3 = Gen.churn_apps ~apps:8 ~seed:3);
  Alcotest.(check bool) "churn apps differ by seed" false
    (Gen.churn_apps ~apps:8 ~seed:3 = Gen.churn_apps ~apps:8 ~seed:4);
  Alcotest.(check int64) "spec seed"
    (Gen.spec_seed ~seed:3 ~salt:1)
    (Gen.spec_seed ~seed:3 ~salt:1)

let values_embed_keys () =
  let mix = Workloads.kv_write.mix in
  Array.iter
    (Array.iter (function
      | Kv_proto.Put (k, v) ->
        Alcotest.(check (option string)) "key in value" (Some k) (Gen.key_of_value v);
        Alcotest.(check int) "value size" mix.Gen.value_bytes (String.length v)
      | _ -> ()))
    (Gen.kv_ops mix ~seed:1)

(* One engine event that programs a NAND page and also delivers a "net
   frame": the step must be charged to flash, the deepest layer moved. *)
let nand_step_charged_to_flash () =
  let engine = Engine.create () in
  let nand = Nand.create () in
  let frames = ref 0 in
  let probe =
    Layers.probe [ (Layers.Flash, (fun () -> Nand.programs nand)); (Layers.Net, fun () -> !frames) ]
  in
  let tr =
    {
      Workloads.probe;
      spans = Spans.create ();
      self_ns = Array.make (Array.length Layers.layers) 0;
      last = Spans.now_ns ();
    }
  in
  Engine.schedule engine ~delay:10L (fun () ->
      incr frames;
      match Nand.program_page nand ~block:0 ~page:0 (String.make 16 'x') with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
  Engine.schedule engine ~delay:20L (fun () -> incr frames);
  Engine.schedule engine ~delay:30L (fun () -> ());
  Workloads.settle (Workloads.Traced tr) engine;
  Alcotest.(check int) "three steps" 3 (Spans.step_count tr.spans);
  let layer i = Layers.layers.(Spans.Ibuf.get tr.spans.Spans.steps i 2) in
  Alcotest.(check string) "nand step" "flash" (Layers.name (layer 0));
  Alcotest.(check string) "frame step" "net" (Layers.name (layer 1));
  Alcotest.(check string) "idle step" "engine_only" (Layers.name (layer 2));
  let total = Array.fold_left ( + ) 0 tr.self_ns in
  let spans_total = ref 0 in
  for i = 0 to 2 do
    spans_total := !spans_total + Spans.Ibuf.get tr.spans.Spans.steps i 1
  done;
  Alcotest.(check int) "self times sum to the stepped time" !spans_total total

let gate_corrupted_get () =
  let good = Gen.value ~key:"k00001" ~version:3 ~bytes:64 in
  let other = Gen.value ~key:"k00002" ~version:3 ~bytes:64 in
  let get = Kv_proto.Get "k00001" in
  Alcotest.(check bool) "good get" true
    (Result.is_ok (Gate.check_reply get (Kv_proto.Value (Some good))));
  Alcotest.(check bool) "value of another key" true
    (Result.is_error (Gate.check_reply get (Kv_proto.Value (Some other))));
  Alcotest.(check bool) "garbage value" true
    (Result.is_error (Gate.check_reply get (Kv_proto.Value (Some "garbage"))));
  Alcotest.(check bool) "missing key" true
    (Result.is_error (Gate.check_reply get (Kv_proto.Value None)));
  Alcotest.(check bool) "failed put" true
    (Result.is_error (Gate.check_reply (Kv_proto.Put ("k", good)) (Kv_proto.Failed "x")))

(* Self times must cover the measured phase, read on its own clock, all
   but the final quiescence check. *)
let gate_self_times () =
  let tr =
    {
      Workloads.probe = Layers.probe [];
      spans = Spans.create ();
      self_ns = [| 3_000_000; 0; 0; 0; 0; 0; 0; 2_000_000 |];
      last = 0L;
    }
  in
  let mark host = { Workloads.host; minor = 0.; major = 0 } in
  let covers phase_ns =
    let gate = Gate.create () in
    Workloads.self_times_cover ~gate tr ~before:(mark 0L) ~after:(mark phase_ns);
    Gate.ok gate
  in
  Alcotest.(check bool) "exact" true (covers 5_000_000L);
  Alcotest.(check bool) "short tail" true (covers 5_400_000L);
  Alcotest.(check bool) "time outside the steps" false (covers 50_000_000L);
  Alcotest.(check bool) "more than the phase" false (covers 4_000_000L)

let gate_ring_digest () =
  Alcotest.(check bool) "equal digests" true
    (Result.is_ok (Gate.check_ring ~seed:1 ~uninterrupted:5L ~resumed:5L));
  Alcotest.(check bool) "resumed differs" true
    (Result.is_error (Gate.check_ring ~seed:1 ~uninterrupted:5L ~resumed:6L));
  Alcotest.(check bool) "seed 42 pinned" true
    (Result.is_error (Gate.check_ring ~seed:42 ~uninterrupted:5L ~resumed:5L));
  Alcotest.(check bool) "seed 42 golden" true
    (Result.is_ok
       (Gate.check_ring ~seed:42 ~uninterrupted:Gate.ring_digest_seed42
          ~resumed:Gate.ring_digest_seed42))

let () =
  Alcotest.run "perfbench"
    [
      ( "generators",
        [
          Alcotest.test_case "kv ops per seed" `Quick kv_ops_deterministic;
          Alcotest.test_case "churn and spec seeds" `Quick churn_and_spec_deterministic;
          Alcotest.test_case "values embed keys" `Quick values_embed_keys;
        ] );
      ("layers", [ Alcotest.test_case "nand step -> flash" `Quick nand_step_charged_to_flash ]);
      ( "gate",
        [
          Alcotest.test_case "corrupted get" `Quick gate_corrupted_get;
          Alcotest.test_case "self times cover the phase" `Quick gate_self_times;
          Alcotest.test_case "ring digest" `Quick gate_ring_digest;
        ] );
    ]
