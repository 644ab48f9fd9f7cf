module Types = Lastcpu_proto.Types
module Message = Lastcpu_proto.Message
module Token = Lastcpu_proto.Token
module Device = Lastcpu_device.Device
module Vq = Lastcpu_virtio.Virtqueue
module Dma = Lastcpu_virtio.Dma

let shm_bytes = 65536L
let slot_bytes = 2048 (* request area and response area each *)
let queue_size = 64 (* descriptors: two per request, so 32 slots *)
let block_size = 512 (* block-service block size asked for at bopen *)

type slot = { req_va : int64; resp_va : int64 }

type t = {
  dev : Device.t;
  provider_id : Types.device_id;
  conn : int;
  pasid : int;
  memctl : Types.device_id;
  queue_id : int;
  mutable driver : Vq.Driver.t;
  dma : Dma.t;
  shm_va : int64;
  mutable free_slots : slot list;
  by_head : (int, slot * (Ssd_proto.response -> unit)) Hashtbl.t;
  waiting : (Ssd_proto.request * (Ssd_proto.response -> unit)) Queue.t;
  mutable completed : int;
}

let provider t = t.provider_id
let connection t = t.conn

(* Submission --------------------------------------------------------------- *)

module Iommu = Lastcpu_iommu.Iommu

let submit t req k slot =
  (* Size first, then encode straight into the granted slot view: the
     request bytes are written to DRAM exactly once. Slots are carved
     inside single pages, so [map_single] costs the same one translation
     the copying path would; the fallback covers any exotic geometry. *)
  let size = Ssd_proto.request_size req in
  if size > slot_bytes then k (Ssd_proto.Err "request too large for slot")
  else begin
    (match Dma.map_single t.dma ~va:slot.req_va ~len:size ~perm:Iommu.Write with
    | Some v -> ignore (Ssd_proto.encode_request_into req v ~pos:0)
    | None -> Dma.write_bytes t.dma slot.req_va (Ssd_proto.encode_request req));
    let chain =
      [
        { Vq.va = slot.req_va; len = size; writable = false };
        { Vq.va = slot.resp_va; len = slot_bytes; writable = true };
      ]
    in
    match Vq.Driver.add t.driver chain with
    | Error m ->
      t.free_slots <- slot :: t.free_slots;
      k (Ssd_proto.Err ("virtqueue: " ^ m))
    | Ok head ->
      Hashtbl.replace t.by_head head (slot, k);
      Device.doorbell t.dev ~dst:t.provider_id ~queue:t.queue_id
  end

let rec pump t =
  match t.free_slots with
  | [] -> ()
  | slot :: rest ->
    if Queue.is_empty t.waiting then ()
    else begin
      let req, k = Queue.pop t.waiting in
      t.free_slots <- rest;
      submit t req k slot;
      pump t
    end

let request t req k =
  match t.free_slots with
  | slot :: rest ->
    t.free_slots <- rest;
    submit t req k slot
  | [] -> Queue.push (req, k) t.waiting

(* Fail every queued and in-flight operation — the provider is gone and
   its used ring will never advance. A supervisor calls this before
   re-attaching elsewhere so no continuation is stranded. *)
let abort_in_flight t reason =
  List.iter
    (fun (head, (_, k)) ->
      Hashtbl.remove t.by_head head;
      k (Ssd_proto.Err reason))
    (Lastcpu_sim.Detmap.bindings t.by_head);
  while not (Queue.is_empty t.waiting) do
    let _, k = Queue.pop t.waiting in
    k (Ssd_proto.Err reason)
  done

let on_doorbell t () =
  let rec drain () =
    match Vq.Driver.poll_used t.driver with
    | None -> ()
    | Some (head, written) ->
      (match Hashtbl.find_opt t.by_head head with
      | None -> ()
      | Some (slot, k) ->
        Hashtbl.remove t.by_head head;
        t.completed <- t.completed + 1;
        let rlen = min written slot_bytes in
        let decoded =
          (* Parse the response straight out of the mapped slot; the
             copying fallback reads the same translated range. *)
          match Dma.map_single t.dma ~va:slot.resp_va ~len:rlen ~perm:Iommu.Read with
          | Some v -> Ssd_proto.decode_response_view v
          | None -> Ssd_proto.decode_response (Dma.read_bytes t.dma slot.resp_va rlen)
        in
        let resp =
          match decoded with
          | Ok r -> r
          | Error m -> Ssd_proto.Err ("malformed response: " ^ m)
        in
        t.free_slots <- slot :: t.free_slots;
        k resp);
      drain ()
  in
  drain ();
  pump t

(* Checkpointing -------------------------------------------------------------
   At a quiescent point [by_head] and [waiting] are empty (they hold live
   continuations, which quiescence forbids), so only the driver-side ring
   bookkeeping, the free-slot pool (its order decides which DMA addresses
   future requests use) and the completion counter need to travel. *)

module Snapshot = Lastcpu_sim.Snapshot

let save w t =
  Snapshot.W.varint w t.completed;
  Snapshot.W.list w
    (fun w s ->
      Snapshot.W.int64 w s.req_va;
      Snapshot.W.int64 w s.resp_va)
    t.free_slots;
  Vq.Driver.save w t.driver

let restore r t =
  t.completed <- Snapshot.R.varint r;
  t.free_slots <-
    Snapshot.R.list r (fun r ->
        let req_va = Snapshot.R.int64 r in
        let resp_va = Snapshot.R.int64 r in
        { req_va; resp_va });
  Hashtbl.reset t.by_head;
  Queue.clear t.waiting;
  t.driver <- Vq.Driver.restore r ~dma:t.dma

(* Connection (the Figure-2 sequence) ---------------------------------------- *)

let connect dev ~memctl ~pasid ~shm_va ~user ~path_hint ?auth ?req_timeout
    ?req_retries k =
  let fail stage code =
    k
      (Error
         (Printf.sprintf "%s failed: %s" stage (Types.error_code_to_string code)))
  in
  (* Step 1: who owns the file? *)
  Device.discover dev ~kind:Types.File_service ~query:path_hint
    ?retries:req_retries (fun found ->
      match found with
      | None -> k (Error "discover failed: no file service answered")
      | Some (provider_id, service) ->
        (* Step 3: open the service. *)
        let params =
          ("user", user)
          :: (if String.equal path_hint "" then [] else [ ("path", path_hint) ])
        in
        Device.open_service dev ~provider:provider_id ~service ~pasid ?auth
          ~params ?timeout:req_timeout ?retries:req_retries
          (fun res ->
            match res with
            | Error code -> fail "open" code
            | Ok { Device.connection = conn; shm_bytes = wanted } ->
              let bytes = if wanted > 0L then wanted else shm_bytes in
              (* Step 5: allocate the shared memory. *)
              Device.alloc dev ~memctl ~pasid ~va:shm_va ~bytes
                ~perm:Types.perm_rw ?timeout:req_timeout ?retries:req_retries
                (fun res ->
                  match res with
                  | Error code -> fail "alloc" code
                  | Ok token ->
                    (* Step 7: grant the provider access. *)
                    Device.grant dev ~to_device:provider_id ~pasid ~va:shm_va
                      ~bytes ~perm:Types.perm_rw ~auth:token
                      ?timeout:req_timeout ?retries:req_retries (fun res ->
                        match res with
                        | Error code -> fail "grant" code
                        | Ok () ->
                          let dma = Device.dma dev ~pasid in
                          let driver =
                            Vq.Driver.create ~dma ~base:shm_va ~size:queue_size
                          in
                          (* Carve request/response slots out of the region
                             after the rings. *)
                          let ring_bytes = Vq.layout_bytes ~size:queue_size in
                          let slots_base =
                            Int64.add shm_va
                              (Int64.of_int ((ring_bytes + 4095) land lnot 4095))
                          in
                          let avail =
                            Int64.to_int
                              (Int64.sub (Int64.add shm_va bytes) slots_base)
                          in
                          let nslots =
                            min (queue_size / 2) (avail / (2 * slot_bytes))
                          in
                          let free_slots =
                            List.init nslots (fun i ->
                                let base =
                                  Int64.add slots_base
                                    (Int64.of_int (i * 2 * slot_bytes))
                                in
                                {
                                  req_va = base;
                                  resp_va = Int64.add base (Int64.of_int slot_bytes);
                                })
                          in
                          let queue_id = Device.fresh_queue_id dev in
                          let t =
                            {
                              dev;
                              provider_id;
                              conn;
                              pasid;
                              memctl;
                              queue_id;
                              driver;
                              dma;
                              shm_va;
                              free_slots;
                              by_head = Hashtbl.create 16;
                              waiting = Queue.create ();
                              completed = 0;
                            }
                          in
                          (* Attach the queue on the provider side. *)
                          Device.request dev ?timeout:req_timeout
                            ?retries:req_retries ~dst:(Types.Device provider_id)
                            (Message.App_message
                               {
                                 tag = "vq-attach";
                                 body =
                                   Smart_ssd.encode_vq_attach ~queue:queue_id
                                     ~base:shm_va ~size:queue_size ~pasid ~user;
                               })
                            (fun payload ->
                              match payload with
                              | Message.App_message { tag = "vq-ok"; _ } ->
                                Device.on_doorbell dev ~queue:queue_id
                                  (on_doorbell t);
                                k (Ok t)
                              | Message.App_message { tag = _; body } ->
                                k (Error ("vq-attach failed: " ^ body))
                              | Message.Error_msg { detail; _ } ->
                                k (Error ("vq-attach failed: " ^ detail))
                              | _ -> k (Error "vq-attach failed"))))))

(* Convenience wrappers ------------------------------------------------------ *)

let lift_unit k = function
  | Ssd_proto.Ok_unit -> k (Ok ())
  | Ssd_proto.Err m -> k (Error m)
  | _ -> k (Error "unexpected response")

let create t ?(mode = 0o644) path k =
  request t (Ssd_proto.Create { path; mode }) (lift_unit k)

let read t path ~off ~len k =
  request t (Ssd_proto.Read { path; off; len }) (function
    | Ssd_proto.Ok_data d -> k (Ok d)
    | Ssd_proto.Err m -> k (Error m)
    | _ -> k (Error "unexpected response"))

let write t path ~off data k =
  request t (Ssd_proto.Write { path; off; data }) (lift_unit k)

let stat t path k =
  request t (Ssd_proto.Stat { path }) (function
    | Ssd_proto.Ok_stat { size; kind_dir; _ } -> k (Ok (size, kind_dir))
    | Ssd_proto.Err m -> k (Error m)
    | _ -> k (Error "unexpected response"))

let rename t from_path to_path k =
  request t (Ssd_proto.Rename { from_path; to_path }) (lift_unit k)

let bopen t path k =
  request t (Ssd_proto.Bopen { path; block_size }) (function
    | Ssd_proto.Ok_handle h -> k (Ok h)
    | Ssd_proto.Err m -> k (Error m)
    | _ -> k (Error "unexpected response"))

let bread t ~handle ~lba ~count k =
  request t (Ssd_proto.Bread { handle; lba; count }) (function
    | Ssd_proto.Ok_data d -> k (Ok d)
    | Ssd_proto.Err m -> k (Error m)
    | _ -> k (Error "unexpected response"))

let bwrite t ~handle ~lba data k =
  request t (Ssd_proto.Bwrite { handle; lba; data }) (lift_unit k)

let bclose t ~handle k = request t (Ssd_proto.Bclose { handle }) (lift_unit k)

let close t k =
  Device.request t.dev ~dst:(Types.Device t.provider_id)
    (Message.App_message { tag = "vq-detach"; body = string_of_int t.queue_id })
    (fun _ ->
      Device.clear_doorbell t.dev ~queue:t.queue_id;
      Device.close_service t.dev ~provider:t.provider_id ~connection:t.conn;
      Device.free t.dev ~memctl:t.memctl ~pasid:t.pasid ~va:t.shm_va
        ~bytes:shm_bytes (fun _ -> k ()))
