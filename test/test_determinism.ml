(* Determinism-equivalence goldens.

   The simulation's observable behaviour is pinned to exact 64-bit values:
   the metrics digest of a full run and a hash of the complete sanitizer
   journal (times, event labels and per-tick state hashes) for the three
   soak experiments, all at the default seed. Hot-path work — lazy event
   labels, heap tuning, queue pre-sizing, streaming frame hashes — must
   keep every value bit-identical; a mismatch here means an "optimisation"
   changed what the simulation computes, not just how fast.

   The goldens were captured before the hot-path rewrite, so they also
   prove the rewrite itself preserved behaviour.

   The second half pins the streaming-hash contract: hashing a frame's
   bytes incrementally (the Sanitizer fnv fold) must equal hashing the formatted
   description string, for both the digest seed and the fault-key seed —
   that equivalence is what lets the hot path skip formatting entirely. *)

module Engine = Lastcpu_sim.Engine
module Sanitizer = Lastcpu_sim.Sanitizer
module Faults = Lastcpu_sim.Faults
module Types = Lastcpu_proto.Types
module Message = Lastcpu_proto.Message
module Token = Lastcpu_proto.Token
module Sysbus = Lastcpu_bus.Sysbus
module Experiments = Lastcpu_core.Experiments

(* --- golden digests and journals --------------------------------------- *)

(* One value per journal: fold times, labels and state hashes in order.
   Labels are folded through [hash_string], so a renamed or reordered
   event label changes the journal hash even if state digests agree. *)
let journal_hash j =
  List.fold_left
    (fun acc (t : Sanitizer.tick) ->
      let acc = Sanitizer.combine acc t.time in
      let acc =
        List.fold_left
          (fun a l -> Sanitizer.combine a (Sanitizer.hash_string 0L l))
          acc t.labels
      in
      Sanitizer.combine acc t.state_hash)
    0x6a6f75726e616cL (* "journal" *) j

(* Captured at seed 42 from the pre-optimisation engine; t13's were
   re-captured once its bring-up stopped draining into the fault plan's
   crash window, so the crash lands mid-workload. *)
let goldens =
  [
    ("t1", 0xde0dcbcf04df9998L, 202, 0x4bdb7734e7ce6b01L);
    ("t13", 0x3e794447ffb45e52L, 421, 0xe60189a8b5931106L);
    ("t14", 0xd41705e6968ba68aL, 210, 0x6e6cd61ce412f0a2L);
  ]

let test_metrics_digest exp expected () =
  Alcotest.(check int64)
    (exp ^ " metrics digest") expected
    (Experiments.metrics_digest ~exp ~seed:42L)

let test_journal exp expected_len expected_hash () =
  let j = Experiments.sanitize_journal ~exp ~seed:42L ~tie:Engine.Fifo in
  Alcotest.(check int) (exp ^ " journal length") expected_len (List.length j);
  Alcotest.(check int64) (exp ^ " journal hash") expected_hash (journal_hash j)

(* Distinct seeds must not collide on the digest (guards against the
   digest degenerating into a constant). T13 is the seeded chaos soak, so
   its digest must move with the seed; T1 uses no randomness and is
   legitimately seed-independent. *)
let test_seed_sensitivity () =
  Alcotest.(check bool)
    "different seeds give different digests" true
    (Experiments.metrics_digest ~exp:"t13" ~seed:42L
    <> Experiments.metrics_digest ~exp:"t13" ~seed:43L)

(* --- streaming-hash contract ------------------------------------------- *)

let sample_token =
  Token.mint ~key:0xFEEDL ~issuer:1 ~subject:2 ~pasid:3 ~resource:"dram"
    ~base:0x1000L ~length:65536L ~perm:Types.perm_rw ~nonce:9L ()

let sample_messages =
  [
    Message.make ~src:1 ~dst:Types.Bus ~corr:0 Message.Heartbeat;
    Message.make ~src:12 ~dst:(Types.Device 3) ~corr:7
      (Message.Error_msg { code = Types.E_busy; detail = "lane full" });
    Message.make ~src:255 ~dst:Types.Broadcast ~corr:1
      (Message.Device_alive { services = [] });
    Message.make ~src:1 ~dst:Types.Bus ~corr:42
      (Message.Map_directive
         {
           device = 2;
           pasid = 3;
           va = 0x4000_0000L;
           pa = 0x1000_0000L;
           bytes = 65536L;
           perm = Types.perm_rw;
           auth = sample_token;
         });
  ]

let test_frame_hash_equivalence () =
  List.iter
    (fun msg ->
      let desc = Sysbus.frame_desc msg in
      Alcotest.(check int64)
        ("frame_hash = hash_string(frame_desc) for " ^ desc)
        (Sanitizer.hash_string Sysbus.frame_digest_seed desc)
        (Sysbus.frame_hash msg);
      Alcotest.(check int64)
        ("frame_key = Faults.key_of_string(frame_desc) for " ^ desc)
        (Faults.key_of_string desc) (Sysbus.frame_key msg))
    sample_messages

(* [fnv_int] renders the decimal digits of its argument; it must agree
   with formatting via %d for every shape of int, including min_int. *)
let test_fnv_int_equivalence () =
  List.iter
    (fun n ->
      Alcotest.(check int64)
        (Printf.sprintf "fnv_int %d = fnv_string %S" n (string_of_int n))
        (Sanitizer.fnv_string (Sanitizer.fnv_init 0L) (string_of_int n))
        (Sanitizer.fnv_int (Sanitizer.fnv_init 0L) n))
    [ 0; 1; 9; 10; 42; 4095; max_int; -1; -10; -4096; min_int ]

let test_streaming_split_equivalence () =
  let s = "bus:12>dev3:error" in
  let streamed =
    Sanitizer.fnv_finish
      (Sanitizer.fnv_string
         (Sanitizer.fnv_char
            (Sanitizer.fnv_string (Sanitizer.fnv_init 5L) "bus:12")
            '>')
         "dev3:error")
  in
  Alcotest.(check int64)
    "piecewise streaming equals whole-string hash"
    (Sanitizer.hash_string 5L s) streamed

let () =
  Alcotest.run "determinism"
    [
      ( "goldens",
        List.concat_map
          (fun (exp, digest, len, jhash) ->
            [
              Alcotest.test_case (exp ^ " digest") `Slow
                (test_metrics_digest exp digest);
              Alcotest.test_case (exp ^ " journal") `Slow
                (test_journal exp len jhash);
            ])
          goldens
        @ [ Alcotest.test_case "seed sensitivity" `Slow test_seed_sensitivity ]
      );
      ( "streaming-hash",
        [
          Alcotest.test_case "frame hash/key" `Quick test_frame_hash_equivalence;
          Alcotest.test_case "fnv_int" `Quick test_fnv_int_equivalence;
          Alcotest.test_case "piecewise fold" `Quick
            test_streaming_split_equivalence;
        ] );
    ]
