module Types = Lastcpu_proto.Types
module Device = Lastcpu_device.Device
module Message = Lastcpu_proto.Message
module Token = Lastcpu_proto.Token
module Sysbus = Lastcpu_bus.Sysbus
module Engine = Lastcpu_sim.Engine
module Buddy = Lastcpu_mem.Buddy
module Layout = Lastcpu_mem.Layout
module Rng = Lastcpu_sim.Rng

type allocation = {
  va : int64;
  pa : int64;
  bytes : int64;
  pages : int;
  subject : Types.device_id;
}

type t = {
  dev : Device.t;
  mem : Lastcpu_mem.Physmem.t;
  buddy : Buddy.t;
  key : Token.key;
  rng : Rng.t;
  quota : int option;  (* max pages per pasid *)
  charged : (int, int) Hashtbl.t;  (* pasid -> pages in use *)
  (* Per-application allocation tables (the paper's mComponent-style
     internal state, §2.2 Memory management). *)
  allocations : (int * int64, allocation) Hashtbl.t;  (* (pasid, va) -> alloc *)
  by_pasid : (int, int64 list ref) Hashtbl.t;
  (* Allocations whose map round trip is still in flight: a duplicated
     Alloc_request (fault injection, or a retransmit racing its original)
     must not grab a second buddy block for the same (pasid, va). *)
  inflight : (int * int64, unit) Hashtbl.t;
}

let default_dram_base = 0x1000_0000L
let default_dram_pages = 65536

(* Checkpointing. The token [key] is deliberately excluded: it is drawn
   from the engine's root RNG during the deterministic rebuild, which
   re-derives the identical key before the engine's RNG position is then
   restored. The nonce stream [rng] is a forked stream whose position only
   advances with mints, so it must be saved. *)
module Snapshot = Lastcpu_sim.Snapshot
module Detmap = Lastcpu_sim.Detmap

let save_state t w =
  Buddy.save w t.buddy;
  Snapshot.W.int64 w (Rng.state t.rng);
  Snapshot.W.list w
    (fun w (pasid, pages) ->
      Snapshot.W.vint w pasid;
      Snapshot.W.varint w pages)
    (Detmap.bindings t.charged);
  Snapshot.W.list w
    (fun w ((pasid, va), (a : allocation)) ->
      Snapshot.W.vint w pasid;
      Snapshot.W.int64 w va;
      Snapshot.W.int64 w a.pa;
      Snapshot.W.int64 w a.bytes;
      Snapshot.W.varint w a.pages;
      Snapshot.W.vint w a.subject)
    (Detmap.bindings t.allocations);
  (* [by_pasid] lists are ordered (most recent first); saved verbatim, not
     re-derived, so [allocations_of] enumerates identically after resume. *)
  Snapshot.W.list w
    (fun w (pasid, l) ->
      Snapshot.W.vint w pasid;
      Snapshot.W.list w (fun w va -> Snapshot.W.int64 w va) !l)
    (Detmap.bindings t.by_pasid);
  Snapshot.W.list w
    (fun w (pasid, va) ->
      Snapshot.W.vint w pasid;
      Snapshot.W.int64 w va)
    (List.map fst (Detmap.bindings t.inflight))

let restore_state t r =
  Buddy.restore r t.buddy;
  Rng.set_state t.rng (Snapshot.R.int64 r);
  Hashtbl.reset t.charged;
  let n = Snapshot.R.varint r in
  for _ = 1 to n do
    let pasid = Snapshot.R.vint r in
    let pages = Snapshot.R.varint r in
    Hashtbl.replace t.charged pasid pages
  done;
  Hashtbl.reset t.allocations;
  let n = Snapshot.R.varint r in
  for _ = 1 to n do
    let pasid = Snapshot.R.vint r in
    let va = Snapshot.R.int64 r in
    let pa = Snapshot.R.int64 r in
    let bytes = Snapshot.R.int64 r in
    let pages = Snapshot.R.varint r in
    let subject = Snapshot.R.vint r in
    Hashtbl.replace t.allocations (pasid, va) { va; pa; bytes; pages; subject }
  done;
  Hashtbl.reset t.by_pasid;
  let n = Snapshot.R.varint r in
  for _ = 1 to n do
    let pasid = Snapshot.R.vint r in
    let l = Snapshot.R.list r Snapshot.R.int64 in
    Hashtbl.replace t.by_pasid pasid (ref l)
  done;
  Hashtbl.reset t.inflight;
  let n = Snapshot.R.varint r in
  for _ = 1 to n do
    let pasid = Snapshot.R.vint r in
    let va = Snapshot.R.int64 r in
    Hashtbl.replace t.inflight (pasid, va) ()
  done

(* Tokens carry the subject's current capability epoch (0 until a
   revocation ever happens, so pre-containment nonce streams and MACs are
   unchanged). The bus rejects any token minted under an older epoch. *)
let mint t ~subject ~pasid ~pa ~bytes ~perm =
  Token.mint
    ~epoch:(Sysbus.current_epoch (Device.bus t.dev) subject)
    ~key:t.key ~issuer:(Device.id t.dev) ~subject ~pasid ~resource:"dram"
    ~base:pa ~length:bytes ~perm ~nonce:(Rng.int64 t.rng) ()

let record t ~pasid alloc =
  Hashtbl.replace t.allocations (pasid, alloc.va) alloc;
  let l =
    match Hashtbl.find_opt t.by_pasid pasid with
    | Some l -> l
    | None ->
      let l = ref [] in
      Hashtbl.replace t.by_pasid pasid l;
      l
  in
  l := alloc.va :: !l

let pages_of t ~pasid = Option.value (Hashtbl.find_opt t.charged pasid) ~default:0
let quota_pages t = t.quota

let charge t ~pasid pages =
  Hashtbl.replace t.charged pasid (pages_of t ~pasid + pages)

let refund t ~pasid pages =
  let left = max 0 (pages_of t ~pasid - pages) in
  if left = 0 then Hashtbl.remove t.charged pasid
  else Hashtbl.replace t.charged pasid left

let within_quota t ~pasid pages =
  match t.quota with
  | None -> true
  | Some q -> pages_of t ~pasid + pages <= q

let forget t ~pasid ~va =
  Hashtbl.remove t.allocations (pasid, va);
  match Hashtbl.find_opt t.by_pasid pasid with
  | None -> ()
  | Some l -> l := List.filter (fun v -> not (Int64.equal v va)) !l

let handle_alloc t ~src ~corr ~pasid ~va ~bytes ~perm =
  let respond payload = Device.reply t.dev ~to_:src ~corr payload in
  let fail code =
    respond
      (Message.Alloc_response
         { ok = false; va; bytes; grant = None; error = Some code })
  in
  if bytes <= 0L || not (Layout.is_page_aligned va) then fail Types.E_bad_address
  else if
    Hashtbl.mem t.allocations (pasid, va) || Hashtbl.mem t.inflight (pasid, va)
  then fail Types.E_exists
  else if not (within_quota t ~pasid (Layout.pages_of_bytes bytes)) then
    fail Types.E_no_memory
  else begin
    let pages = Layout.pages_of_bytes bytes in
    match Buddy.alloc t.buddy ~pages with
    | None -> fail Types.E_no_memory
    | Some pa ->
      Hashtbl.replace t.inflight (pasid, va) ();
      let rounded = Layout.align_up bytes in
      let token = mint t ~subject:src ~pasid ~pa ~bytes:rounded ~perm in
      (* Instruct the bus to program the requester's IOMMU (step 6), then
         hand the capability back (the response is only sent once the
         mapping is in place). *)
      Device.request t.dev ~dst:Types.Bus
        (Message.Map_directive
           { device = src; pasid; va; pa; bytes = rounded; perm; auth = token })
        (fun payload ->
          Hashtbl.remove t.inflight (pasid, va);
          match payload with
          | Message.Map_complete { ok = true; _ } ->
            record t ~pasid { va; pa; bytes = rounded; pages; subject = src };
            charge t ~pasid pages;
            respond
              (Message.Alloc_response
                 { ok = true; va; bytes = rounded; grant = Some token; error = None })
          | Message.Map_complete { ok = false; _ } | Message.Error_msg _ | _ ->
            Buddy.free t.buddy ~addr:pa ~pages;
            fail Types.E_bad_address)
  end

(* Frames returning to the buddy pool are scrubbed first: the next owner
   of those frames must never see the previous tenant's bytes. Costs no
   virtual time and touches no metric, so digests are unaffected. *)
let scrub t (alloc : allocation) =
  Lastcpu_mem.Physmem.fill t.mem alloc.pa (Int64.to_int alloc.bytes) '\000'

let handle_free t ~src ~corr ~pasid ~va =
  let respond payload = Device.reply t.dev ~to_:src ~corr payload in
  match Hashtbl.find_opt t.allocations (pasid, va) with
  | None ->
    respond
      (Message.Alloc_response
         { ok = false; va; bytes = 0L; grant = None; error = Some Types.E_not_found })
  | Some alloc when src <> alloc.subject ->
    (* Only the device that holds the capability (the token subject) may
       free the region — otherwise any peer able to guess a (pasid, va)
       pair could tear down another tenant's memory. *)
    respond
      (Message.Alloc_response
         {
           ok = false;
           va;
           bytes = 0L;
           grant = None;
           error = Some Types.E_access_denied;
         })
  | Some alloc ->
    (* Claim the allocation before the (asynchronous) unmap round trip: a
       duplicated Free_request — fault injection, or a retransmit racing
       its original — must find nothing here rather than double-free the
       buddy block. *)
    forget t ~pasid ~va;
    let token =
      mint t ~subject:alloc.subject ~pasid ~pa:alloc.pa ~bytes:alloc.bytes
        ~perm:Types.perm_rwx
    in
    Device.request t.dev ~dst:Types.Bus
      (Message.Unmap_directive
         { device = alloc.subject; pasid; va; bytes = alloc.bytes; auth = token })
      (fun _payload ->
        scrub t alloc;
        Buddy.free t.buddy ~addr:alloc.pa ~pages:alloc.pages;
        refund t ~pasid alloc.pages;
        respond
          (Message.Alloc_response
             { ok = true; va; bytes = alloc.bytes; grant = None; error = None }))

(* Revocation cascade (called from the bus's revoke hook): tear down every
   allocation the revoked device holds as subject, across all address
   spaces. Runs after the epoch bump, so the unmap directives minted here
   carry the new epoch and verify; the device's now-stale grant tokens
   cannot free, grant or remap anything. *)
let revoke_subject t ~subject =
  List.iter
    (fun ((pasid, va), (alloc : allocation)) ->
      if alloc.subject = subject then begin
        forget t ~pasid ~va;
        let token =
          mint t ~subject:alloc.subject ~pasid ~pa:alloc.pa ~bytes:alloc.bytes
            ~perm:Types.perm_rwx
        in
        Device.request t.dev ~dst:Types.Bus
          (Message.Unmap_directive
             {
               device = alloc.subject;
               pasid;
               va = alloc.va;
               bytes = alloc.bytes;
               auth = token;
             })
          (fun _ -> ());
        scrub t alloc;
        Buddy.free t.buddy ~addr:alloc.pa ~pages:alloc.pages;
        refund t ~pasid alloc.pages
      end)
    (Detmap.bindings t.allocations)

let create sysbus ~mem ?(name = "memctl") ?(dram_base = default_dram_base)
    ?(dram_pages = default_dram_pages) ?quota_pages () =
  let dev = Device.create sysbus ~mem ~name () in
  let engine = Sysbus.engine sysbus in
  let t =
    {
      dev;
      mem;
      buddy = Buddy.create ~base:dram_base ~pages:dram_pages;
      key = Rng.int64 (Engine.rng engine);
      rng = Engine.fork_rng engine;
      quota = quota_pages;
      charged = Hashtbl.create 16;
      allocations = Hashtbl.create 64;
      by_pasid = Hashtbl.create 16;
      inflight = Hashtbl.create 8;
    }
  in
  Device.add_service dev
    {
      desc =
        { Message.kind = Types.Memory_service; name = name ^ ".dram"; version = 1 };
      can_serve = (fun ~query -> String.equal query "" || String.equal query "dram");
      on_open =
        (fun ~client:_ ~pasid:_ ~auth:_ ~params:_ ->
          (* Memory is consumed via Alloc_request messages, not an open
             connection; accept opens trivially for discovery symmetry. *)
          Ok { Device.connection = Device.fresh_connection dev; shm_bytes = 0L });
      on_close = (fun ~connection:_ -> ());
    };
  Device.set_app_handler dev (fun msg ->
      match msg.Message.payload with
      | Message.Alloc_request { pasid; va; bytes; perm } ->
        handle_alloc t ~src:msg.Message.src ~corr:msg.Message.corr ~pasid ~va
          ~bytes ~perm
      | Message.Free_request { pasid; va; bytes = _ } ->
        handle_free t ~src:msg.Message.src ~corr:msg.Message.corr ~pasid ~va
      | _ -> ());
  Sysbus.register_controller sysbus (Device.id dev) ~resource:"dram" ~key:t.key;
  Sysbus.on_revoke sysbus (fun ~device -> revoke_subject t ~subject:device);
  Engine.register_snapshot engine ~name:(Device.actor dev)
    ~save:(save_state t)
    ~restore:(restore_state t);
  Device.start dev;
  t

let device t = t.dev
let id t = Device.id t.dev
let free_pages t = Buddy.free_pages t.buddy
let used_pages t = Buddy.used_pages t.buddy

let allocations_of t ~pasid =
  match Hashtbl.find_opt t.by_pasid pasid with
  | None -> []
  | Some l ->
    List.filter_map
      (fun va ->
        Option.map
          (fun a -> (a.va, a.bytes))
          (Hashtbl.find_opt t.allocations (pasid, va)))
      !l
