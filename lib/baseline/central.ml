module Engine = Lastcpu_sim.Engine
module Costs = Lastcpu_sim.Costs
module Faults = Lastcpu_sim.Faults
module Nand = Lastcpu_flash.Nand
module Ftl = Lastcpu_flash.Ftl
module Fs = Lastcpu_fs.Fs
module Store = Lastcpu_kv.Store

type t = {
  engine : Engine.t;
  kern : Kernel.t;
  ftl : Ftl.t;
  filesystem : Fs.t;
  mutable storage_down : bool;
}

let create engine ?cores ?run_queue_capacity () =
  let faults = Engine.faults engine in
  let nand = Nand.create ~faults () in
  let ftl = Ftl.create ~nand () in
  let filesystem =
    match Fs.format ftl with
    | Ok fs -> fs
    | Error e -> invalid_arg ("Central.create: " ^ Fs.error_to_string e)
  in
  let t =
    {
      engine;
      kern = Kernel.create engine ?cores ?run_queue_capacity ();
      ftl;
      filesystem;
      storage_down = false;
    }
  in
  (* The fault plan's crash windows apply here too: while the (single)
     storage device is down, mediated I/O fails; at the revive edge the
     kernel runs a reset-device pass before I/O resumes — the centralized
     counterpart of the bus's crash→reset→reannounce sequence. *)
  List.iter
    (fun { Faults.at_ns; down_ns; _ } ->
      Engine.schedule_at engine ~time:at_ns (fun () ->
          Faults.note_crash faults;
          t.storage_down <- true);
      Engine.schedule_at engine ~time:(Int64.add at_ns down_ns) (fun () ->
          Faults.note_revive faults;
          Kernel.syscall t.kern (fun () -> t.storage_down <- false)))
    (Faults.crashes faults);
  t

let kernel t = t.kern
let fs t = t.filesystem

let nand_busy_ns t = Nand.busy_ns (Ftl.nand t.ftl)

(* Control plane ------------------------------------------------------------ *)

let discover t ~query k =
  ignore query;
  Kernel.syscall t.kern k

let open_file t ~path ~user k =
  Kernel.syscall t.kern (fun () ->
      let result =
        match Fs.stat t.filesystem path with
        | Ok _ -> Ok ()
        | Error e -> Error (Fs.error_to_string e)
      in
      ignore user;
      (* Device round trip to validate/open on the storage controller. *)
      Kernel.interrupt t.kern (fun () -> k result))

let setup_shared t ~bytes k =
  ignore bytes;
  (* mmap: kernel allocates frames and programs both devices' IOMMUs
     itself (extra PTE-writing time on the CPU), then a grant syscall. *)
  Kernel.syscall t.kern ~extra:(Int64.mul 4L Costs.iommu_program_ns) (fun () ->
      Kernel.syscall t.kern ~extra:(Int64.mul 2L Costs.iommu_program_ns) k)

let teardown_shared t k =
  Kernel.syscall t.kern k

(* Data plane ---------------------------------------------------------------- *)

(* Kernel-mediated file operation: submission syscall, NAND time off-CPU,
   completion interrupt. *)
let mediated_io t ~(run : unit -> ('a, string) result)
    (k : ('a, string) result -> unit) =
  Kernel.syscall t.kern (fun () ->
      if t.storage_down then
        (* The submit syscall returns EIO immediately: the device node is
           gone until the reset-device pass completes. *)
        k (Error "storage device down")
      else begin
        let nand_before = nand_busy_ns t in
        let result = run () in
        let flash = Int64.sub (nand_busy_ns t) nand_before in
        Engine.schedule t.engine ~delay:flash (fun () ->
            Kernel.interrupt t.kern (fun () -> k result))
      end)

let lift fs_result =
  match fs_result with Ok v -> Ok v | Error e -> Error (Fs.error_to_string e)

let file_read t ~path ~user ~off ~len k =
  mediated_io t
    ~run:(fun () -> lift (Fs.read t.filesystem ~user path ~off ~len))
    k

let file_write t ~path ~user ~off ~data k =
  mediated_io t
    ~run:(fun () -> lift (Fs.write t.filesystem ~user path ~off data))
    k

let file_create t ~path ~user k =
  mediated_io t ~run:(fun () -> lift (Fs.create t.filesystem ~user path)) k

let file_truncate t ~path ~user ~len k =
  mediated_io t
    ~run:(fun () -> lift (Fs.truncate t.filesystem ~user path ~len))
    k

(* Store backend -------------------------------------------------------------- *)

let store_backend t ~path ~user =
  let log_end = ref 0 in
  (match Fs.stat t.filesystem path with
  | Ok s -> log_end := s.Fs.size
  | Error _ -> (
    match Fs.create t.filesystem ~user path with
    | Ok () -> ()
    | Error e ->
      invalid_arg ("Central.store_backend: " ^ Fs.error_to_string e)));
  {
    Store.append =
      (fun data k ->
        let off = !log_end in
        log_end := off + String.length data;
        file_write t ~path ~user ~off ~data k);
    Store.read_log =
      (fun k ->
        let size = !log_end in
        file_read t ~path ~user ~off:0 ~len:size k);
    Store.reset_log =
      (fun k ->
        log_end := 0;
        file_truncate t ~path ~user ~len:0 k);
    Store.replace_log =
      (fun data k ->
        (* Same sidecar-and-rename discipline, through the kernel. *)
        let sidecar = path ^ ".new" in
        let write_then_rename () =
          file_write t ~path:sidecar ~user ~off:0 ~data (fun res ->
              match res with
              | Error _ as e -> k e
              | Ok () ->
                mediated_io t
                  ~run:(fun () -> lift (Fs.rename t.filesystem ~user sidecar path))
                  (fun res ->
                    match res with
                    | Error _ as e -> k e
                    | Ok () ->
                      log_end := String.length data;
                      k (Ok ())))
        in
        match Fs.create t.filesystem ~user sidecar with
        | Ok () | Error (Fs.Exists _) -> (
          match Fs.truncate t.filesystem ~user sidecar ~len:0 with
          | Ok () -> write_then_rename ()
          | Error e -> k (Error (Fs.error_to_string e)))
        | Error e -> k (Error (Fs.error_to_string e)));
  }

(* Network path ---------------------------------------------------------------- *)

let try_kv_network_op t work ~on_busy k =
  (* Guarded ingress: the rx interrupt is refused EAGAIN-style when the
     cores' run queues are full — the NIC would drop or NAK the frame
     instead of interrupt-storming a saturated CPU. The tx completion stays
     unconditional: finishing admitted work sheds load, refusing it would
     only hold memory longer. *)
  match Kernel.try_interrupt t.kern (fun () ->
            work (fun () -> Kernel.syscall t.kern k))
  with
  | `Ok -> ()
  | `Eagain retry_after_ns -> on_busy ~retry_after_ns
