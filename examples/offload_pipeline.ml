(* Offload pipeline: the paper's opening claim in action. An application on
   the smart NIC stages data in shared memory, grants it to a programmable
   accelerator, and offloads computation — comparing against running the
   same kernels on the NIC's own embedded (wimpy) core. The crossover is
   exactly the economics §1 describes.

   Run with:  dune exec examples/offload_pipeline.exe *)

module System = Lastcpu_core.System
module Engine = Lastcpu_sim.Engine
module Types = Lastcpu_proto.Types
module Device = Lastcpu_device.Device
module Smart_nic = Lastcpu_devices.Smart_nic
module Memctl = Lastcpu_devices.Memctl
module Accel_dev = Lastcpu_devices.Accel_dev
module Accel_proto = Lastcpu_devices.Accel_proto
module Dma = Lastcpu_virtio.Dma
module Rng = Lastcpu_sim.Rng

let () =
  print_endline "== offload_pipeline: NIC-resident app + accelerator ==";
  let spec = { System.default_spec with System.accel_count = 1 } in
  let system = System.build ~spec () in
  (match System.boot system with Ok () -> () | Error e -> failwith e);
  let engine = System.engine system in
  let dev = Smart_nic.device (System.nic system 0) in
  let mc = Memctl.id (System.memctl system) in
  let accel = System.accel system 0 in
  let pasid = System.fresh_pasid system in

  (* Discover the compute service like any other resource (§2.2). *)
  let provider = ref None in
  Device.discover dev ~kind:Types.Compute_service ~query:"" (fun r ->
      provider := Option.map fst r);
  System.run_until_quiescent system;
  (match !provider with
  | Some id when id = Accel_dev.id accel ->
    Printf.printf "discovered compute service at dev%d\n" id
  | _ -> failwith "compute service not found");

  (* Stage 1 MiB of data in shared memory. *)
  let bytes = 1 lsl 20 in
  let va = 0x4000_0000L in
  let token = ref None in
  Device.alloc dev ~memctl:mc ~pasid ~va ~bytes:(Int64.of_int bytes)
    ~perm:Types.perm_rw (fun r -> token := Result.to_option r);
  System.run_until_quiescent system;
  let token = match !token with Some t -> t | None -> failwith "alloc failed" in
  let dma = Device.dma dev ~pasid in
  let rng = Rng.create ~seed:7L in
  let chunk = 4096 in
  let words = [| "lorem"; "ipsum"; "dolor"; "sit"; "amet"; "accelerator" |] in
  let buf = Buffer.create chunk in
  let rec fill off =
    if off < bytes then begin
      Buffer.clear buf;
      while Buffer.length buf < chunk do
        Buffer.add_string buf words.(Rng.int rng (Array.length words));
        Buffer.add_char buf ' '
      done;
      Dma.write_bytes dma (Int64.add va (Int64.of_int off))
        (String.sub (Buffer.contents buf) 0 (min chunk (bytes - off)));
      fill (off + chunk)
    end
  in
  fill 0;
  Printf.printf "staged %d bytes at 0x%Lx (pasid %d)\n" bytes va pasid;

  (* Grant the accelerator read/write access (Fig. 2 step 7, but the
     grantee is a compute device). *)
  let granted = ref false in
  Device.grant dev ~to_device:(Accel_dev.id accel) ~pasid ~va
    ~bytes:(Int64.of_int bytes) ~perm:Types.perm_rw ~auth:token (fun r ->
      granted := Result.is_ok r);
  System.run_until_quiescent system;
  if not !granted then failwith "grant failed";
  print_endline "granted the region to the accelerator via the bus";

  (* Offload vs local, for a sweep of sizes: find the crossover. *)
  print_endline "\nword-count: offloaded vs on-NIC embedded core";
  Printf.printf "  %-12s %-16s %-16s %-10s %s\n" "bytes" "offload (ns)"
    "local (ns)" "speedup" "answers match";
  List.iter
    (fun size ->
      let job = Accel_proto.Word_count { va; len = size } in
      let t0 = Engine.now engine in
      let offload_result = ref None and offload_ns = ref 0L in
      Accel_dev.submit dev ~accel:(Accel_dev.id accel) ~pasid job (fun o ->
          offload_result := Some o;
          offload_ns := Int64.sub (Engine.now engine) t0);
      System.run_until_quiescent system;
      let t1 = Engine.now engine in
      let local_result = ref None and local_ns = ref 0L in
      Accel_dev.run_locally dev ~pasid job (fun o ->
          local_result := Some o;
          local_ns := Int64.sub (Engine.now engine) t1);
      System.run_until_quiescent system;
      let matches =
        match (!offload_result, !local_result) with
        | Some (Accel_proto.Value a), Some (Accel_proto.Value b) -> a = b
        | _ -> false
      in
      Printf.printf "  %-12d %-16Ld %-16Ld %-10.2f %b\n" size !offload_ns
        !local_ns
        (Int64.to_float !local_ns /. Int64.to_float !offload_ns)
        matches)
    [ 256; 1024; 4096; 16384; 65536; 262144; 1048576 ];

  (* A histogram job writing results back into shared memory. *)
  let hist_dst = Int64.add va (Int64.of_int (bytes - 4096)) in
  let done_ = ref false in
  Accel_dev.submit dev ~accel:(Accel_dev.id accel) ~pasid
    (Accel_proto.Histogram { va; len = 65536; dst = hist_dst })
    (fun o ->
      (match o with
      | Accel_proto.Written n -> Printf.printf "\nhistogram: %d bytes written\n" n
      | _ -> print_endline "\nhistogram failed");
      done_ := true);
  System.run_until_quiescent system;
  assert !done_;
  let spaces = Dma.read_field64 dma (Int64.to_int hist_dst + (8 * 32)) in
  Printf.printf "space (0x20) count read back by the NIC: %Ld\n" spaces;

  (* Fault containment: a job over never-granted memory faults on the
     accelerator and comes back as a job fault; nothing else breaks. *)
  let fault = ref None in
  Accel_dev.submit dev ~accel:(Accel_dev.id accel) ~pasid
    (Accel_proto.Checksum { va = 0x9999_0000L; len = 64 })
    (fun o -> fault := Some o);
  System.run_until_quiescent system;
  (match !fault with
  | Some (Accel_proto.Fault m) -> Printf.printf "rogue job: contained (%s)\n" m
  | _ -> print_endline "rogue job: NOT contained (BUG)");
  Printf.printf "accelerator totals: %d jobs, %d bytes, %d faults\n"
    (Accel_dev.jobs_run accel)
    (Accel_dev.bytes_processed accel)
    (Accel_dev.job_faults accel)
