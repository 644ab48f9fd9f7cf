module Types = Lastcpu_proto.Types
module Message = Lastcpu_proto.Message
module Token = Lastcpu_proto.Token
module Wire = Lastcpu_proto.Wire
module Device = Lastcpu_device.Device
module Sysbus = Lastcpu_bus.Sysbus
module Engine = Lastcpu_sim.Engine
module Costs = Lastcpu_sim.Costs
module Nand = Lastcpu_flash.Nand
module Ftl = Lastcpu_flash.Ftl
module Fs = Lastcpu_fs.Fs
module Vq = Lastcpu_virtio.Virtqueue
module Dma = Lastcpu_virtio.Dma

type block_handle = { backing : string; block_size : int }

type queue_state = {
  vq : Vq.Device.t;
  client : Types.device_id;
  user : string;
  q_pasid : int;
  (* Per-connection block-device contexts: handles are only valid on the
     queue that opened them (isolation between instances, §2.1). *)
  handles : (int, block_handle) Hashtbl.t;
  mutable next_handle : int;
}

module Metrics = Lastcpu_sim.Metrics

type t = {
  dev : Device.t;
  ftl : Ftl.t;
  filesystem : Fs.t;
  auth_key : Token.key option;
  queues : (int, queue_state) Hashtbl.t;
  m_served : Metrics.counter;
}

(* vq-attach body codec ---------------------------------------------------- *)

let encode_vq_attach ~queue ~base ~size ~pasid ~user =
  let w = Wire.Writer.create () in
  Wire.Writer.varint w queue;
  Wire.Writer.int64 w base;
  Wire.Writer.varint w size;
  Wire.Writer.varint w pasid;
  Wire.Writer.string w user;
  Wire.Writer.contents w

let decode_vq_attach =
  Wire.decode (fun r ->
      let queue = Wire.Reader.varint r in
      let base = Wire.Reader.int64 r in
      let size = Wire.Reader.varint r in
      let pasid = Wire.Reader.varint r in
      let user = Wire.Reader.string r in
      (queue, base, size, pasid, user))

(* NAND cost accounting ----------------------------------------------------- *)

let nand_busy_ns t = Nand.busy_ns (Ftl.nand t.ftl)

(* Request execution -------------------------------------------------------- *)

let exec_request t ~(qs : queue_state) (req : Ssd_proto.request) :
    Ssd_proto.response =
  let user = qs.user in
  let fs = t.filesystem in
  let wrap = function
    | Ok () -> Ssd_proto.Ok_unit
    | Error e -> Ssd_proto.Err (Fs.error_to_string e)
  in
  match req with
  | Ssd_proto.Create { path; mode } -> wrap (Fs.create fs ~user ~mode path)
  | Ssd_proto.Unlink { path } -> wrap (Fs.unlink fs ~user path)
  | Ssd_proto.Mkdir { path; mode } -> wrap (Fs.mkdir fs ~user ~mode path)
  | Ssd_proto.Read { path; off; len } -> (
    match Fs.read fs ~user path ~off ~len with
    | Ok data -> Ssd_proto.Ok_data data
    | Error e -> Ssd_proto.Err (Fs.error_to_string e))
  | Ssd_proto.Write { path; off; data } -> wrap (Fs.write fs ~user path ~off data)
  | Ssd_proto.Stat { path } -> (
    match Fs.stat fs path with
    | Ok s ->
      Ssd_proto.Ok_stat
        {
          size = s.Fs.size;
          kind_dir = s.Fs.kind = Fs.Directory;
          owner = s.Fs.owner;
          mode = s.Fs.mode;
        }
    | Error e -> Ssd_proto.Err (Fs.error_to_string e))
  | Ssd_proto.Readdir { path } -> (
    match Fs.readdir fs ~user path with
    | Ok names -> Ssd_proto.Ok_names names
    | Error e -> Ssd_proto.Err (Fs.error_to_string e))
  | Ssd_proto.Truncate { path; len } -> wrap (Fs.truncate fs ~user path ~len)
  | Ssd_proto.Fsync { path } ->
    (* All writes are synchronous through the FTL already. *)
    ignore path;
    Ssd_proto.Ok_unit
  | Ssd_proto.Rename { from_path; to_path } ->
    wrap (Fs.rename fs ~user from_path to_path)
  | Ssd_proto.Bopen { path; block_size } ->
    if block_size <= 0 || block_size > 65536 then Ssd_proto.Err "bad block size"
    else begin
      (* The backing file must exist and be accessible to this user. *)
      let probe =
        match Fs.stat fs path with
        | Error (Fs.Not_found_e _) -> Fs.create fs ~user path
        | Error e -> Error e
        | Ok s when s.Fs.kind = Fs.Directory -> Error (Fs.Is_a_directory path)
        | Ok _ -> Ok ()
      in
      match probe with
      | Error e -> Ssd_proto.Err (Fs.error_to_string e)
      | Ok () -> (
        (* Verify access now so Bread/Bwrite fail early. *)
        match Fs.read fs ~user path ~off:0 ~len:0 with
        | Error e -> Ssd_proto.Err (Fs.error_to_string e)
        | Ok _ ->
          let h = qs.next_handle in
          qs.next_handle <- h + 1;
          Hashtbl.replace qs.handles h { backing = path; block_size };
          Ssd_proto.Ok_handle h)
    end
  | Ssd_proto.Bread { handle; lba; count } -> (
    match Hashtbl.find_opt qs.handles handle with
    | None -> Ssd_proto.Err "bad handle"
    | Some { backing; block_size } ->
      if lba < 0 || count <= 0 then Ssd_proto.Err "bad lba/count"
      else begin
        match
          Fs.read fs ~user backing ~off:(lba * block_size)
            ~len:(count * block_size)
        with
        | Ok data ->
          (* Short reads at the end of the device are zero-padded to whole
             blocks, as a real block device would return. *)
          let want = count * block_size in
          let data =
            if String.length data < want then
              data ^ String.make (want - String.length data) '\000'
            else data
          in
          Ssd_proto.Ok_data data
        | Error e -> Ssd_proto.Err (Fs.error_to_string e)
      end)
  | Ssd_proto.Bwrite { handle; lba; data } -> (
    match Hashtbl.find_opt qs.handles handle with
    | None -> Ssd_proto.Err "bad handle"
    | Some { backing; block_size } ->
      if lba < 0 || String.length data mod block_size <> 0 then
        Ssd_proto.Err "write must be whole blocks"
      else begin
        match Fs.write fs ~user backing ~off:(lba * block_size) data with
        | Ok () -> Ssd_proto.Ok_unit
        | Error e -> Ssd_proto.Err (Fs.error_to_string e)
      end)
  | Ssd_proto.Bclose { handle } ->
    if Hashtbl.mem qs.handles handle then begin
      Hashtbl.remove qs.handles handle;
      Ssd_proto.Ok_unit
    end
    else Ssd_proto.Err "bad handle"

(* Chain helpers ------------------------------------------------------------ *)

module Iommu = Lastcpu_iommu.Iommu

let read_chain_out dma (buffers : Vq.buffer list) =
  let buf = Buffer.create 256 in
  List.iter
    (fun (b : Vq.buffer) ->
      if not b.Vq.writable then
        Buffer.add_string buf (Dma.read_bytes dma b.Vq.va b.Vq.len))
    buffers;
  Buffer.contents buf

(* Zero-copy request parse: the common chain shape is one device-readable
   segment inside one page, where a direct grant costs exactly the
   translation the copying path would have spent and the decoder runs
   straight over DRAM. Anything else falls back to the gather-and-copy
   path. *)
let decode_chain_request dma (buffers : Vq.buffer list) =
  match List.filter (fun (b : Vq.buffer) -> not b.Vq.writable) buffers with
  | [ b ] -> (
    match Dma.map_single dma ~va:b.Vq.va ~len:b.Vq.len ~perm:Iommu.Read with
    | Some v -> Ssd_proto.decode_request_view v
    | None -> Ssd_proto.decode_request (Dma.read_bytes dma b.Vq.va b.Vq.len))
  | _ -> Ssd_proto.decode_request (read_chain_out dma buffers)

let write_chain_in dma (buffers : Vq.buffer list) data =
  (* Scatter the response across device-writable segments; returns bytes
     written or an error when capacity is insufficient. *)
  let len = String.length data in
  let rec go pos = function
    | [] -> if pos >= len then Ok len else Error "response exceeds buffer space"
    | (b : Vq.buffer) :: rest ->
      if not b.Vq.writable || pos >= len then go pos rest
      else begin
        let chunk = min b.Vq.len (len - pos) in
        Dma.write_bytes dma b.Vq.va (String.sub data pos chunk);
        go (pos + chunk) rest
      end
  in
  go 0 buffers

(* Zero-copy response emit: when the sized response fits the (single)
   writable segment and sits in one page, encode straight into the
   granted view — same translated range as the copying path writing the
   same bytes, no intermediate string. *)
let write_chain_response dma (buffers : Vq.buffer list) resp =
  match List.filter (fun (b : Vq.buffer) -> b.Vq.writable) buffers with
  | [ b ] when Ssd_proto.response_size resp <= b.Vq.len -> (
    let size = Ssd_proto.response_size resp in
    match Dma.map_single dma ~va:b.Vq.va ~len:size ~perm:Iommu.Write with
    | Some v -> Ok (Ssd_proto.encode_response_into resp v ~pos:0)
    | None -> write_chain_in dma buffers (Ssd_proto.encode_response resp))
  | _ -> write_chain_in dma buffers (Ssd_proto.encode_response resp)

(* Doorbell service --------------------------------------------------------- *)

(* One chain: decode the request, run it, write the response; the bytes
   written into the chain. A chain with a bad descriptor link pops with
   no buffers: its empty request is malformed and its error reply fits
   nowhere, so nothing is written. *)
let serve_chain t qs dma buffers =
  let response =
    match decode_chain_request dma buffers with
    | Error m -> Ssd_proto.Err ("malformed request: " ^ m)
    | Ok req ->
      Metrics.incr t.m_served;
      exec_request t ~qs req
  in
  match write_chain_response dma buffers response with
  | Ok n -> n
  | Error m -> (
    match write_chain_response dma buffers (Ssd_proto.Err m) with
    | Ok n -> n
    | Error _ -> 0)

let process_queue t ~queue =
  match Hashtbl.find_opt t.queues queue with
  | None -> ()
  | Some qs ->
    let dma = Device.dma t.dev ~pasid:qs.q_pasid in
    let total_cost = ref 0L in
    let completions =
      Vq.Device.drain_deferred qs.vq ~f:(fun { Vq.Device.buffers; _ } ->
          let nand_before = nand_busy_ns t in
          let written =
            (* Buffer addresses are peer-written: one outside this PASID's
               mapping faults that chain alone, which completes with
               nothing written while the next chain is still served. *)
            match serve_chain t qs dma buffers with
            | n -> n
            | exception Dma.Dma_fault _ -> 0
          in
          total_cost :=
            Int64.add !total_cost (Int64.sub (nand_busy_ns t) nand_before);
          written)
    in
    (match completions with
    | [] -> ()
    | completions ->
      (* Completions surface after the flash work is done. *)
      Engine.schedule (Device.engine t.dev) ~delay:!total_cost (fun () ->
          Vq.Device.publish_used qs.vq completions;
          Device.doorbell t.dev ~dst:qs.client ~queue))

(* Control plane ------------------------------------------------------------ *)

let verify_session t ~user auth =
  match t.auth_key with
  | None -> true
  | Some key -> (
    match auth with
    | None -> false
    | Some token ->
      Token.verify ~key token
      && String.equal token.Token.resource ("session:" ^ user))

let handle_vq_attach t (msg : Message.t) body =
  let respond tag body' =
    Device.reply t.dev ~to_:msg.Message.src ~corr:msg.Message.corr
      (Message.App_message { tag; body = body' })
  in
  match decode_vq_attach body with
  | Error m -> respond "vq-err" m
  | Ok (queue, base, size, pasid, user) ->
    if Hashtbl.mem t.queues queue then respond "vq-err" "queue id in use"
    else begin
      match
        Vq.Device.create ~dma:(Device.dma t.dev ~pasid) ~base ~size
      with
      | vq ->
        Hashtbl.replace t.queues queue
          {
            vq;
            client = msg.Message.src;
            user;
            q_pasid = pasid;
            handles = Hashtbl.create 4;
            next_handle = 1;
          };
        Device.on_doorbell t.dev ~queue (fun () -> process_queue t ~queue);
        respond "vq-ok" ""
      | exception Invalid_argument m -> respond "vq-err" m
    end

let handle_vq_detach t (msg : Message.t) body =
  (match int_of_string_opt body with
  | Some queue ->
    Hashtbl.remove t.queues queue;
    Device.clear_doorbell t.dev ~queue
  | None -> ());
  Device.reply t.dev ~to_:msg.Message.src ~corr:msg.Message.corr
    (Message.App_message { tag = "vq-ok"; body = "" })

(* Checkpointing: the full storage stack this device owns — NAND image
   (only live pages carry bytes), FTL maps, FS block cache — plus every
   attached virtqueue's device-side state and open block handles. Queues
   are re-wired to their doorbells on restore; the rings themselves live
   in DRAM and come back with the memory image. *)
module Snapshot = Lastcpu_sim.Snapshot
module Detmap = Lastcpu_sim.Detmap

let save_state t w =
  Nand.save w (Ftl.nand t.ftl);
  Ftl.save w t.ftl;
  Fs.save w t.filesystem;
  Snapshot.W.list w
    (fun w (queue, (qs : queue_state)) ->
      Snapshot.W.varint w queue;
      Snapshot.W.vint w qs.client;
      Snapshot.W.string w qs.user;
      Snapshot.W.vint w qs.q_pasid;
      Vq.Device.save w qs.vq;
      Snapshot.W.list w
        (fun w (h, { backing; block_size }) ->
          Snapshot.W.varint w h;
          Snapshot.W.string w backing;
          Snapshot.W.varint w block_size)
        (Detmap.bindings qs.handles);
      Snapshot.W.varint w qs.next_handle)
    (Detmap.bindings t.queues)

let restore_state t r =
  Nand.restore r (Ftl.nand t.ftl);
  Ftl.restore r t.ftl;
  Fs.restore r t.filesystem;
  Hashtbl.reset t.queues;
  let n = Snapshot.R.varint r in
  for _ = 1 to n do
    let queue = Snapshot.R.varint r in
    let client = Snapshot.R.vint r in
    let user = Snapshot.R.string r in
    let q_pasid = Snapshot.R.vint r in
    let vq = Vq.Device.restore r ~dma:(Device.dma t.dev ~pasid:q_pasid) in
    let handles = Hashtbl.create 4 in
    let nh = Snapshot.R.varint r in
    for _ = 1 to nh do
      let h = Snapshot.R.varint r in
      let backing = Snapshot.R.string r in
      let block_size = Snapshot.R.varint r in
      Hashtbl.replace handles h { backing; block_size }
    done;
    let next_handle = Snapshot.R.varint r in
    Hashtbl.replace t.queues queue
      { vq; client; user; q_pasid; handles; next_handle };
    Device.on_doorbell t.dev ~queue (fun () -> process_queue t ~queue)
  done

let create sysbus ~mem ~name ?auth_key () =
  (* The device claims the actor name; FTL and FS telemetry registers in
     the same engine registry under derived actors. *)
  let dev = Device.create sysbus ~mem ~name () in
  let metrics = Engine.metrics (Device.engine dev) in
  let actor = Device.actor dev in
  let nand =
    Nand.create ~faults:(Engine.faults (Device.engine dev)) ~tag:actor ()
  in
  let ftl = Ftl.create ~nand ~metrics ~actor:(actor ^ ".ftl") () in
  let filesystem =
    match Fs.format ~metrics ~actor:(actor ^ ".fs") ftl with
    | Ok fs -> fs
    | Error e -> invalid_arg ("Smart_ssd.create: format failed: " ^ Fs.error_to_string e)
  in
  let t =
    {
      dev;
      ftl;
      filesystem;
      auth_key;
      queues = Hashtbl.create 8;
      m_served = Metrics.counter metrics ~actor ~name:"requests_served";
    }
  in
  (match Fs.mkdir filesystem ~user:"root" "/images" with
  | Ok () -> ()
  | Error _ -> ());
  Device.add_service dev
    {
      desc = { Message.kind = Types.File_service; name = name ^ ".fs"; version = 1 };
      can_serve =
        (fun ~query ->
          (* Serve existing files, or paths this FS could create (their
             parent directory exists). *)
          String.equal query ""
          || Fs.exists filesystem query
          ||
          match String.rindex_opt query '/' with
          | Some 0 -> true (* parent is the root *)
          | Some i -> Fs.exists filesystem (String.sub query 0 i)
          | None -> false);
      on_open =
        (fun ~client:_ ~pasid:_ ~auth ~params ->
          let user =
            Option.value (List.assoc_opt "user" params) ~default:"anonymous"
          in
          if not (verify_session t ~user auth) then Error Types.E_access_denied
          else begin
            let creatable path =
              Fs.exists filesystem path
              ||
              match String.rindex_opt path '/' with
              | Some 0 -> true
              | Some i -> Fs.exists filesystem (String.sub path 0 i)
              | None -> false
            in
            match List.assoc_opt "path" params with
            | Some path when not (creatable path) -> Error Types.E_not_found
            | Some _ | None ->
              (* Shared memory for one ring of 64 descriptors plus request
                 and response buffers (Fig. 2 step 4). *)
              Ok
                {
                  Device.connection = Device.fresh_connection dev;
                  shm_bytes = 65536L;
                }
          end);
      on_close = (fun ~connection:_ -> ());
    };
  Device.add_service dev
    {
      desc =
        { Message.kind = Types.Block_service; name = name ^ ".blk"; version = 1 };
      can_serve = (fun ~query:_ -> true);
      on_open =
        (fun ~client:_ ~pasid:_ ~auth ~params ->
          let user =
            Option.value (List.assoc_opt "user" params) ~default:"anonymous"
          in
          if not (verify_session t ~user auth) then Error Types.E_access_denied
          else
            Ok { Device.connection = Device.fresh_connection dev; shm_bytes = 65536L });
      on_close = (fun ~connection:_ -> ());
    };
  Device.add_service dev
    {
      desc =
        { Message.kind = Types.Loader_service; name = name ^ ".loader"; version = 1 };
      can_serve = (fun ~query:_ -> true);
      on_open =
        (fun ~client:_ ~pasid:_ ~auth ~params ->
          let user =
            Option.value (List.assoc_opt "user" params) ~default:"anonymous"
          in
          if not (verify_session t ~user auth) then Error Types.E_access_denied
          else Ok { Device.connection = Device.fresh_connection dev; shm_bytes = 0L });
      on_close = (fun ~connection:_ -> ());
    };
  Device.set_app_handler dev (fun msg ->
      match msg.Message.payload with
      | Message.App_message { tag = "vq-attach"; body } -> handle_vq_attach t msg body
      | Message.App_message { tag = "vq-detach"; body } -> handle_vq_detach t msg body
      | Message.Load_image { image; bytes } ->
        let path = "/images/" ^ image in
        let result =
          match Fs.create t.filesystem ~user:"root" path with
          | Ok () | Error (Fs.Exists _) ->
            Fs.truncate t.filesystem ~user:"root" path ~len:(Int64.to_int bytes)
          | Error _ as e -> e
        in
        (match result with
        | Ok () ->
          Device.reply t.dev ~to_:msg.Message.src ~corr:msg.Message.corr
            (Message.App_message { tag = "load-ok"; body = image })
        | Error e ->
          Device.reply t.dev ~to_:msg.Message.src ~corr:msg.Message.corr
            (Message.Error_msg
               { code = Types.E_invalid; detail = Fs.error_to_string e }))
      | _ -> ());
  Engine.register_snapshot (Device.engine dev) ~name:actor
    ~save:(save_state t)
    ~restore:(restore_state t);
  Device.start dev;
  t

let device t = t.dev
let id t = Device.id t.dev
let fs t = t.filesystem
let ftl t = t.ftl
let requests_served t = Metrics.counter_value t.m_served
