(* Multi-tenancy on shared devices: two applications with separate address
   spaces (PASIDs) and separate users share the same NIC and SSD. The IOMMU
   keeps their memory apart; the SSD's file service keeps their files apart;
   a deliberate cross-tenant access attempt faults on the device.

   Run with:  dune exec examples/multi_tenant.exe *)

module System = Lastcpu_core.System
module Sysbus = Lastcpu_bus.Sysbus
module Device = Lastcpu_device.Device
module Smart_nic = Lastcpu_devices.Smart_nic
module Smart_ssd = Lastcpu_devices.Smart_ssd
module Memctl = Lastcpu_devices.Memctl
module File_client = Lastcpu_devices.File_client
module Fs = Lastcpu_fs.Fs
module Dma = Lastcpu_virtio.Dma
module Iommu = Lastcpu_iommu.Iommu
module Types = Lastcpu_proto.Types

let () =
  print_endline "== multi_tenant: two applications, one set of devices ==";
  let system = System.build () in
  let fs = Smart_ssd.fs (System.ssd system 0) in
  (* Provision per-tenant directories (deployment step). *)
  List.iter
    (fun (dir, owner) ->
      (match Fs.mkdir fs ~user:"root" ~mode:0o755 dir with
      | Ok () -> ()
      | Error e -> failwith (Fs.error_to_string e));
      match Fs.chown fs ~user:"root" dir ~owner with
      | Ok () -> ()
      | Error e -> failwith (Fs.error_to_string e))
    [ ("/tenant-a", "alice"); ("/tenant-b", "bob") ];
  (match System.boot system with
  | Ok () -> ()
  | Error e -> failwith e);
  print_endline "booted; tenants alice and bob share nic0 + ssd0";

  let dev = Smart_nic.device (System.nic system 0) in
  let mc = Memctl.id (System.memctl system) in
  let pasid_a = System.fresh_pasid system in
  let pasid_b = System.fresh_pasid system in

  (* Each tenant brings up its own file-service connection (its own
     Figure-2 sequence, its own shared memory, its own VIRTIO queue). *)
  let fc_a = ref None and fc_b = ref None in
  File_client.connect dev ~memctl:mc ~pasid:pasid_a ~shm_va:0x4000_0000L
    ~user:"alice" ~path_hint:"/tenant-a/data" (fun r -> fc_a := Result.to_option r);
  File_client.connect dev ~memctl:mc ~pasid:pasid_b ~shm_va:0x5000_0000L
    ~user:"bob" ~path_hint:"/tenant-b/data" (fun r -> fc_b := Result.to_option r);
  System.run_until_quiescent system;
  let a = Option.get !fc_a and b = Option.get !fc_b in
  Printf.printf "alice: connection %d, pasid %d\n" (File_client.connection a) pasid_a;
  Printf.printf "bob:   connection %d, pasid %d\n" (File_client.connection b) pasid_b;

  (* Tenants work independently through the data plane. *)
  File_client.create a "/tenant-a/data" (fun _ -> ());
  File_client.create b "/tenant-b/data" (fun _ -> ());
  System.run_until_quiescent system;
  File_client.write a "/tenant-a/data" ~off:0 "alice's ledger" (fun _ -> ());
  File_client.write b "/tenant-b/data" ~off:0 "bob's ledger" (fun _ -> ());
  System.run_until_quiescent system;

  (* 1. File isolation: bob cannot read alice's file (mode 0644 but the
     directory is 0755 owned by alice; tighten the file itself). *)
  (match Fs.chmod fs ~user:"root" "/tenant-a/data" ~mode:0o600 with
  | Ok () -> ()
  | Error e -> failwith (Fs.error_to_string e));
  let steal = ref None in
  File_client.read b "/tenant-a/data" ~off:0 ~len:16 (fun r -> steal := Some r);
  System.run_until_quiescent system;
  (match !steal with
  | Some (Error e) -> Printf.printf "bob reads alice's file: DENIED (%s)\n" e
  | Some (Ok _) -> print_endline "bob reads alice's file: ALLOWED (BUG)"
  | None -> print_endline "no answer (BUG)");

  (* 2. Memory isolation: bob's PASID has no mapping for alice's shared
     memory; the IOMMU faults the access on the device. *)
  let dma_b = Device.dma dev ~pasid:pasid_b in
  (match Dma.read_field dma_b 0x4000_0000 1 with
  | _ -> print_endline "bob reads alice's shm: ALLOWED (BUG)"
  | exception Dma.Dma_fault f ->
    Printf.printf "bob reads alice's shm: IOMMU FAULT (pasid=%d va=0x%Lx %s)\n"
      f.Iommu.pasid f.Iommu.va
      (match f.Iommu.reason with
      | Iommu.Not_mapped -> "not-mapped"
      | Iommu.Protection -> "protection"));

  (* 3. And both tenants still work fine afterwards. *)
  let ra = ref None and rb = ref None in
  File_client.read a "/tenant-a/data" ~off:0 ~len:14 (fun r -> ra := Result.to_option r);
  File_client.read b "/tenant-b/data" ~off:0 ~len:12 (fun r -> rb := Result.to_option r);
  System.run_until_quiescent system;
  Printf.printf "alice still reads her data: %S\n" (Option.value !ra ~default:"FAIL");
  Printf.printf "bob still reads his data:   %S\n" (Option.value !rb ~default:"FAIL");

  (* Teardown: close both connections; the memory controller reclaims. *)
  let closed = ref 0 in
  File_client.close a (fun () -> incr closed);
  File_client.close b (fun () -> incr closed);
  System.run_until_quiescent system;
  Printf.printf "connections closed: %d; DRAM pages in use: %d\n" !closed
    (Memctl.used_pages (System.memctl system));
  print_endline "done: isolation held on both the memory and the file axis."
