(* Tests for the centralized comparator: kernel queueing and the
   syscall-mediated storage path. *)

module Engine = Lastcpu_sim.Engine
module Costs = Lastcpu_sim.Costs
module Kernel = Lastcpu_baseline.Kernel
module Central = Lastcpu_baseline.Central
module Fs = Lastcpu_fs.Fs
module Store = Lastcpu_kv.Store

let test_syscall_cost_model () =
  let engine = Engine.create () in
  let kern = Kernel.create engine () in
  let finished = ref 0L in
  Kernel.syscall kern (fun () -> finished := Engine.now engine);
  Engine.run engine;
  Alcotest.(check int64) "syscall + kernel_op"
    (Int64.add Costs.syscall_ns Costs.kernel_op_ns)
    !finished;
  Alcotest.(check int) "counted" 1 (Kernel.syscalls kern)

let test_kernel_serializes_on_one_core () =
  let engine = Engine.create () in
  let kern = Kernel.create engine ~cores:1 () in
  let finishes = ref [] in
  for _ = 1 to 3 do
    Kernel.syscall kern (fun () -> finishes := Engine.now engine :: !finishes)
  done;
  Engine.run engine;
  let per = Int64.add Costs.syscall_ns Costs.kernel_op_ns in
  Alcotest.(check (list int64)) "back to back"
    [ per; Int64.mul 2L per; Int64.mul 3L per ]
    (List.rev !finishes)

let test_multicore_parallelism () =
  let engine = Engine.create () in
  let kern = Kernel.create engine ~cores:2 () in
  let finishes = ref [] in
  for _ = 1 to 2 do
    Kernel.syscall kern (fun () -> finishes := Engine.now engine :: !finishes)
  done;
  Engine.run engine;
  match !finishes with
  | [ a; b ] -> Alcotest.(check int64) "parallel completion" a b
  | _ -> Alcotest.fail "expected two completions"

let test_interrupt_cost () =
  let engine = Engine.create () in
  let kern = Kernel.create engine () in
  let finished = ref 0L in
  Kernel.interrupt kern (fun () -> finished := Engine.now engine);
  Engine.run engine;
  Alcotest.(check int64) "interrupt + kernel_op"
    (Int64.add Costs.interrupt_ns Costs.kernel_op_ns)
    !finished

let test_central_file_io () =
  let engine = Engine.create () in
  let central = Central.create engine () in
  let done1 = ref None in
  Central.file_create central ~path:"/f" ~user:"u" (fun r -> done1 := Some r);
  Engine.run engine;
  (match !done1 with
  | Some (Ok ()) -> ()
  | _ -> Alcotest.fail "create failed");
  let wrote = ref None in
  Central.file_write central ~path:"/f" ~user:"u" ~off:0 ~data:"central data"
    (fun r -> wrote := Some r);
  Engine.run engine;
  (match !wrote with Some (Ok ()) -> () | _ -> Alcotest.fail "write failed");
  let got = ref None in
  Central.file_read central ~path:"/f" ~user:"u" ~off:0 ~len:12 (fun r ->
      got := Some r);
  Engine.run engine;
  (match !got with
  | Some (Ok data) -> Alcotest.(check string) "data" "central data" data
  | _ -> Alcotest.fail "read failed");
  (* Each mediated op = 1 syscall + 1 completion interrupt. *)
  Alcotest.(check int) "syscalls" 3 (Kernel.syscalls (Central.kernel central));
  Alcotest.(check int) "interrupts" 3 (Kernel.interrupts (Central.kernel central))

let test_central_io_charges_flash_time () =
  let engine = Engine.create () in
  let central = Central.create engine () in
  let t_done = ref 0L in
  Central.file_create central ~path:"/f" ~user:"u" (fun _ -> ());
  Engine.run engine;
  let t0 = Engine.now engine in
  Central.file_write central ~path:"/f" ~user:"u" ~off:0 ~data:"x" (fun _ ->
      t_done := Engine.now engine);
  Engine.run engine;
  Alcotest.(check bool) "write pays NAND program time" true
    (Int64.sub !t_done t0 >= Costs.flash_write_page_ns)

let test_central_store_backend_recovery () =
  let engine = Engine.create () in
  let central = Central.create engine () in
  let backend = Central.store_backend central ~path:"/kv.log" ~user:"kvs" in
  let store = Store.create backend in
  let pending = ref 0 in
  for i = 1 to 10 do
    incr pending;
    Store.put store ~key:(Printf.sprintf "k%d" i) ~value:"v" (fun _ -> decr pending)
  done;
  Engine.run engine;
  Alcotest.(check int) "all applied" 0 !pending;
  let store2 = Store.create backend in
  let n = ref None in
  Store.recover store2 (fun r -> n := Some r);
  Engine.run engine;
  (match !n with
  | Some (Ok records) -> Alcotest.(check int) "recovered" 10 records
  | _ -> Alcotest.fail "recover failed");
  Alcotest.(check int) "index size" 10 (Store.size store2)

let test_central_same_fs_semantics () =
  (* The baseline uses the same FS implementation: permissions etc. hold. *)
  let engine = Engine.create () in
  let central = Central.create engine () in
  let fs = Central.fs central in
  (match Fs.create fs ~user:"alice" ~mode:0o600 "/secret" with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Fs.error_to_string e));
  match Fs.read fs ~user:"bob" "/secret" ~off:0 ~len:1 with
  | Error (Fs.Permission _) -> ()
  | _ -> Alcotest.fail "baseline lost permission semantics"

let test_kernel_run_queue_eagain () =
  let engine = Engine.create () in
  let kern = Kernel.create engine ~cores:1 ~run_queue_capacity:2 () in
  let ran = ref 0 in
  let submit () = Kernel.try_syscall kern (fun () -> incr ran) in
  (match submit () with
  | `Ok -> ()
  | `Eagain _ -> Alcotest.fail "first refused");
  (match submit () with
  | `Ok -> ()
  | `Eagain _ -> Alcotest.fail "second refused");
  (match submit () with
  | `Ok -> Alcotest.fail "over-capacity work admitted"
  | `Eagain hint ->
    Alcotest.(check bool) "positive drain hint" true (hint > 0L));
  Alcotest.(check int) "eagain counted" 1 (Kernel.eagains kern);
  Engine.run engine;
  Alcotest.(check int) "admitted work ran" 2 !ran;
  Alcotest.(check int) "only admitted work counted" 2 (Kernel.syscalls kern);
  (* Drained: the queue admits again (interrupt path shares the bound). *)
  (match Kernel.try_interrupt kern (fun () -> incr ran) with
  | `Ok -> ()
  | `Eagain _ -> Alcotest.fail "refused after drain");
  Engine.run engine;
  Alcotest.(check int) "post-drain work ran" 3 !ran

(* [syscall]/[interrupt] share [try_syscall]'s body but skip the bound:
   the kernel's own completions must never be refused. *)
let test_unconditional_entries_skip_bound () =
  let engine = Engine.create () in
  let kern = Kernel.create engine ~cores:1 ~run_queue_capacity:1 () in
  let ran = ref 0 in
  (match Kernel.try_syscall kern (fun () -> incr ran) with
  | `Ok -> ()
  | `Eagain _ -> Alcotest.fail "first refused");
  (match Kernel.try_syscall kern (fun () -> incr ran) with
  | `Ok -> Alcotest.fail "over-capacity work admitted"
  | `Eagain _ -> ());
  Kernel.syscall kern (fun () -> incr ran);
  Kernel.interrupt kern (fun () -> incr ran);
  Engine.run engine;
  Alcotest.(check int) "queued past the bound and ran" 3 !ran;
  Alcotest.(check int) "syscalls" 2 (Kernel.syscalls kern);
  Alcotest.(check int) "interrupts" 1 (Kernel.interrupts kern);
  Alcotest.(check int) "one refusal" 1 (Kernel.eagains kern)

let test_central_rx_refused_when_saturated () =
  let engine = Engine.create () in
  let central = Central.create engine ~cores:1 ~run_queue_capacity:1 () in
  (* Occupy the single core's whole run queue. *)
  (match
     Kernel.try_syscall (Central.kernel central) (fun () -> ())
   with
  | `Ok -> ()
  | `Eagain _ -> Alcotest.fail "hog refused");
  let busy_hint = ref None in
  let completed = ref false in
  Central.try_kv_network_op central
    (fun tx -> tx ())
    ~on_busy:(fun ~retry_after_ns -> busy_hint := Some retry_after_ns)
    (fun () -> completed := true);
  (match !busy_hint with
  | Some hint -> Alcotest.(check bool) "hint positive" true (hint > 0L)
  | None -> Alcotest.fail "rx admitted on a full run queue");
  Engine.run engine;
  Alcotest.(check bool) "refused op never completed" false !completed;
  Alcotest.(check int) "refusal counted" 1
    (Kernel.eagains (Central.kernel central));
  (* Idle again: the same op is now admitted and completes. *)
  Central.try_kv_network_op central
    (fun tx -> tx ())
    ~on_busy:(fun ~retry_after_ns:_ -> Alcotest.fail "refused when idle")
    (fun () -> completed := true);
  Engine.run engine;
  Alcotest.(check bool) "admitted op completed" true !completed

let () =
  Alcotest.run "baseline"
    [
      ( "kernel",
        [
          Alcotest.test_case "syscall cost" `Quick test_syscall_cost_model;
          Alcotest.test_case "serialization" `Quick test_kernel_serializes_on_one_core;
          Alcotest.test_case "multicore" `Quick test_multicore_parallelism;
          Alcotest.test_case "interrupt cost" `Quick test_interrupt_cost;
          Alcotest.test_case "run queue eagain" `Quick test_kernel_run_queue_eagain;
          Alcotest.test_case "unconditional entries skip bound" `Quick
            test_unconditional_entries_skip_bound;
        ] );
      ( "central",
        [
          Alcotest.test_case "file io" `Quick test_central_file_io;
          Alcotest.test_case "flash time charged" `Quick test_central_io_charges_flash_time;
          Alcotest.test_case "store backend recovery" `Quick
            test_central_store_backend_recovery;
          Alcotest.test_case "same fs semantics" `Quick test_central_same_fs_semantics;
          Alcotest.test_case "rx refused when saturated" `Quick
            test_central_rx_refused_when_saturated;
        ] );
    ]
