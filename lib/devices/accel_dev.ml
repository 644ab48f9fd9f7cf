module Types = Lastcpu_proto.Types
module Message = Lastcpu_proto.Message
module Device = Lastcpu_device.Device
module Engine = Lastcpu_sim.Engine
module Costs = Lastcpu_sim.Costs
module Dma = Lastcpu_virtio.Dma

type t = {
  dev : Device.t;
  mutable jobs : int;
  mutable bytes : int;
  mutable faults : int;
}

(* The kernels themselves; shared by the accelerator and by [run_locally]
   so both paths compute identical answers and differ only in cost. *)

let fnv1a data =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001B3L)
    data;
  !h

let word_count data =
  let in_word = ref false in
  let count = ref 0 in
  String.iter
    (fun c ->
      let is_space = c = ' ' || c = '\t' || c = '\n' || c = '\r' in
      if is_space then in_word := false
      else if not !in_word then begin
        in_word := true;
        incr count
      end)
    data;
  Int64.of_int !count

let execute dma (job : Accel_proto.job) : Accel_proto.outcome =
  match job with
  | Accel_proto.Checksum { va; len } ->
    Accel_proto.Value (fnv1a (Dma.read_bytes dma va len))
  | Accel_proto.Word_count { va; len } ->
    Accel_proto.Value (word_count (Dma.read_bytes dma va len))
  | Accel_proto.Upper { src; dst; len } ->
    let data = Dma.read_bytes dma src len in
    Dma.write_bytes dma dst (String.uppercase_ascii data);
    Accel_proto.Written len
  | Accel_proto.Histogram { va; len; dst } ->
    let data = Dma.read_bytes dma va len in
    let counts = Array.make 256 0L in
    String.iter
      (fun c ->
        let i = Char.code c in
        counts.(i) <- Int64.add counts.(i) 1L)
      data;
    let dst = Int64.to_int dst in
    Array.iteri (fun i v -> Dma.write_field64 dma (dst + (8 * i)) v) counts;
    Accel_proto.Written (256 * 8)

let run_with_cost engine ~per_byte ~setup dma job k =
  let outcome =
    match execute dma job with
    | outcome -> outcome
    | exception Dma.Dma_fault f ->
      Accel_proto.Fault
        (Printf.sprintf "iommu fault pasid=%d va=0x%Lx" f.Lastcpu_iommu.Iommu.pasid
           f.Lastcpu_iommu.Iommu.va)
  in
  let cost =
    Int64.add setup
      (Int64.mul per_byte (Int64.of_int (Accel_proto.job_bytes job)))
  in
  Engine.schedule engine ~delay:cost (fun () -> k outcome)

let create sysbus ~mem ~name () =
  let dev = Device.create sysbus ~mem ~name () in
  let t = { dev; jobs = 0; bytes = 0; faults = 0 } in
  Device.add_service dev
    {
      desc = { Message.kind = Types.Compute_service; name = name ^ ".compute"; version = 1 };
      can_serve = (fun ~query:_ -> true);
      on_open =
        (fun ~client:_ ~pasid:_ ~auth:_ ~params:_ ->
          Ok { Device.connection = Device.fresh_connection dev; shm_bytes = 0L });
      on_close = (fun ~connection:_ -> ());
    };
  Device.set_app_handler dev (fun msg ->
      match msg.Message.payload with
      | Message.App_message { tag = "job-submit"; body } -> (
        (* Envelope: varint pasid | encoded job. *)
        let respond outcome =
          Device.reply dev ~to_:msg.Message.src ~corr:msg.Message.corr
            (Message.App_message
               { tag = "job-done"; body = Accel_proto.encode_outcome outcome })
        in
        let module Wire = Lastcpu_proto.Wire in
        match
          Wire.decode
            (fun r ->
              let pasid = Wire.Reader.varint r in
              (pasid, Wire.Reader.string r))
            body
        with
        | Error m -> respond (Accel_proto.Fault ("malformed envelope: " ^ m))
        | Ok (pasid, job_bytes) -> (
          match Accel_proto.decode_job job_bytes with
          | Error m -> respond (Accel_proto.Fault ("malformed job: " ^ m))
          | Ok job ->
            t.jobs <- t.jobs + 1;
            t.bytes <- t.bytes + Accel_proto.job_bytes job;
            let engine = Device.engine dev in
            let dma = Device.dma dev ~pasid in
            run_with_cost engine ~per_byte:Costs.accel_byte_ns
              ~setup:Costs.accel_setup_ns dma job (fun outcome ->
                (match outcome with
                | Accel_proto.Fault _ -> t.faults <- t.faults + 1
                | Accel_proto.Value _ | Accel_proto.Written _ -> ());
                respond outcome)))
      | _ -> ());
  (* Checkpoint: job accounting only — the accelerator is stateless between
     jobs, and an in-flight job is volatile (blocks quiescence). *)
  let module Snapshot = Lastcpu_sim.Snapshot in
  Engine.register_snapshot (Device.engine dev) ~name:(Device.actor dev)
    ~save:(fun w ->
      Snapshot.W.varint w t.jobs;
      Snapshot.W.varint w t.bytes;
      Snapshot.W.varint w t.faults)
    ~restore:(fun r ->
      t.jobs <- Snapshot.R.varint r;
      t.bytes <- Snapshot.R.varint r;
      t.faults <- Snapshot.R.varint r);
  Device.start dev;
  t

let device t = t.dev
let id t = Device.id t.dev
let jobs_run t = t.jobs
let bytes_processed t = t.bytes
let job_faults t = t.faults

(* --- client side ------------------------------------------------------------- *)

let submit client ~accel ~pasid job k =
  let w = Lastcpu_proto.Wire.Writer.create () in
  Lastcpu_proto.Wire.Writer.varint w pasid;
  Lastcpu_proto.Wire.Writer.string w (Accel_proto.encode_job job);
  Device.request client ~dst:(Types.Device accel)
    (Message.App_message
       { tag = "job-submit"; body = Lastcpu_proto.Wire.Writer.contents w })
    (fun payload ->
      match payload with
      | Message.App_message { tag = "job-done"; body } -> (
        match Accel_proto.decode_outcome body with
        | Ok outcome -> k outcome
        | Error m -> k (Accel_proto.Fault ("malformed outcome: " ^ m)))
      | Message.Error_msg { detail; _ } -> k (Accel_proto.Fault detail)
      | _ -> k (Accel_proto.Fault "unexpected reply"))

let run_locally client ~pasid job k =
  let engine = Device.engine client in
  let dma = Device.dma client ~pasid in
  run_with_cost engine ~per_byte:Costs.wimpy_byte_ns ~setup:0L dma job k
