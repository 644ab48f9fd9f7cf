(* Structure-aware deterministic protocol fuzzer (the containment layer's
   adversarial test rig).

   One smart NIC turns hostile: its "firmware" bypasses the device
   framework and puts seed-salted mutants of real control-plane frames
   directly on the bus through [Sysbus.send_raw] — the same raw-byte
   ingress a physically compromised endpoint would use. Three mutation
   modes, chosen per iteration:

   - [structural]: decode-level field mutation — a well-formed frame with
     one field (pasid, va, length, token field, envelope src/dst/corr...)
     replaced by a boundary or random value, re-encoded with a valid CRC.
     Exercises handler logic behind the codec.
   - [decoder]: the encoded body is bit/byte-mutated, then re-framed with
     a *valid* CRC. Exercises the decoder's typed [E_malformed] surface.
   - [raw]: the framed bytes are mutated as-is (CRC usually breaks).
     Exercises the checksum gate.

   After every injection the engine drains; periodically the campaign
   asserts the containment invariants:

   1. no exception ever escapes the event loop (engine crash);
   2. the rogue's IOMMU holds no translation into the victim's physical
      frames (no byte of another tenant's memory is reachable);
   3. the victim's sentinel region is intact and still mapped.

   Everything derives from one seed, so a campaign is a reproducible
   experiment: the final report (including the metrics digest) is
   golden-testable in CI. *)

module Engine = Lastcpu_sim.Engine
module Metrics = Lastcpu_sim.Metrics
module Fuzz = Lastcpu_sim.Fuzz
module Types = Lastcpu_proto.Types
module Message = Lastcpu_proto.Message
module Codec = Lastcpu_proto.Codec
module Token = Lastcpu_proto.Token
module Sysbus = Lastcpu_bus.Sysbus
module Iommu = Lastcpu_iommu.Iommu
module Device = Lastcpu_device.Device
module Dma = Lastcpu_virtio.Dma
module Memctl = Lastcpu_devices.Memctl
module Smart_nic = Lastcpu_devices.Smart_nic
module Smart_ssd = Lastcpu_devices.Smart_ssd
module Layout = Lastcpu_mem.Layout

type report = {
  seed : int64;
  iterations : int;
  structural : int;
  decoder : int;
  raw : int;
  engine_crashes : int;
  containment_violations : int;
  violation_details : string list;  (** first few, newest last *)
  malformed_rejected : int;
  stale_rejected : int;
  token_failures : int;
  fenced : int;
  quarantines : int;
  releases : int;
  attacker_trust : string;
  digest : int64;
}

let summary r =
  Printf.sprintf
    "fuzz seed=%Ld iters=%d structural=%d decoder=%d raw=%d crashes=%d \
     violations=%d malformed=%d stale=%d bad-tokens=%d fenced=%d \
     quarantines=%d releases=%d trust=%s digest=0x%Lx"
    r.seed r.iterations r.structural r.decoder r.raw r.engine_crashes
    r.containment_violations r.malformed_rejected r.stale_rejected
    r.token_failures r.fenced r.quarantines r.releases r.attacker_trust
    r.digest

(* --- structure-aware mutation ------------------------------------------- *)

let mutate_token fz (tok : Token.t) =
  match Fuzz.pick fz 8 with
  | 0 -> { tok with Token.issuer = Fuzz.mutate_int fz tok.Token.issuer }
  | 1 -> { tok with Token.subject = Fuzz.mutate_int fz tok.Token.subject }
  | 2 -> { tok with Token.pasid = Fuzz.mutate_int fz tok.Token.pasid }
  | 3 -> { tok with Token.base = Fuzz.mutate_int64 fz tok.Token.base }
  | 4 -> { tok with Token.length = Fuzz.mutate_int64 fz tok.Token.length }
  | 5 -> { tok with Token.nonce = Fuzz.mutate_int64 fz tok.Token.nonce }
  | 6 -> { tok with Token.epoch = Fuzz.mutate_int fz tok.Token.epoch }
  | _ -> { tok with Token.mac = Fuzz.mutate_int64 fz tok.Token.mac }

let mutate_payload fz (p : Message.payload) : Message.payload =
  match p with
  | Message.Alloc_request { pasid; va; bytes; perm } -> (
    match Fuzz.pick fz 3 with
    | 0 -> Message.Alloc_request { pasid = Fuzz.mutate_int fz pasid; va; bytes; perm }
    | 1 -> Message.Alloc_request { pasid; va = Fuzz.mutate_int64 fz va; bytes; perm }
    | _ -> Message.Alloc_request { pasid; va; bytes = Fuzz.mutate_int64 fz bytes; perm })
  | Message.Free_request { pasid; va; bytes } -> (
    match Fuzz.pick fz 3 with
    | 0 -> Message.Free_request { pasid = Fuzz.mutate_int fz pasid; va; bytes }
    | 1 -> Message.Free_request { pasid; va = Fuzz.mutate_int64 fz va; bytes }
    | _ -> Message.Free_request { pasid; va; bytes = Fuzz.mutate_int64 fz bytes })
  | Message.Map_directive { device; pasid; va; pa; bytes; perm; auth } -> (
    match Fuzz.pick fz 5 with
    | 0 ->
      Message.Map_directive
        { device = Fuzz.mutate_int fz device; pasid; va; pa; bytes; perm; auth }
    | 1 ->
      Message.Map_directive
        { device; pasid; va; pa = Fuzz.mutate_int64 fz pa; bytes; perm; auth }
    | 2 ->
      Message.Map_directive
        { device; pasid; va = Fuzz.mutate_int64 fz va; pa; bytes; perm; auth }
    | 3 ->
      Message.Map_directive
        { device; pasid; va; pa; bytes = Fuzz.mutate_int64 fz bytes; perm; auth }
    | _ ->
      Message.Map_directive
        { device; pasid; va; pa; bytes; perm; auth = mutate_token fz auth })
  | Message.Grant_request { to_device; pasid; va; bytes; perm; auth } -> (
    match Fuzz.pick fz 4 with
    | 0 ->
      Message.Grant_request
        { to_device = Fuzz.mutate_int fz to_device; pasid; va; bytes; perm; auth }
    | 1 ->
      Message.Grant_request
        { to_device; pasid = Fuzz.mutate_int fz pasid; va; bytes; perm; auth }
    | 2 ->
      Message.Grant_request
        { to_device; pasid; va; bytes = Fuzz.mutate_int64 fz bytes; perm; auth }
    | _ ->
      Message.Grant_request
        { to_device; pasid; va; bytes; perm; auth = mutate_token fz auth })
  | Message.Unmap_directive { device; pasid; va; bytes; auth } -> (
    match Fuzz.pick fz 3 with
    | 0 ->
      Message.Unmap_directive
        { device; pasid = Fuzz.mutate_int fz pasid; va; bytes; auth }
    | 1 ->
      Message.Unmap_directive
        { device; pasid; va = Fuzz.mutate_int64 fz va; bytes; auth }
    | _ ->
      Message.Unmap_directive
        { device; pasid; va; bytes; auth = mutate_token fz auth })
  | Message.Open_service { service; pasid; auth; params } -> (
    match Fuzz.pick fz 2 with
    | 0 ->
      Message.Open_service
        { service; pasid = Fuzz.mutate_int fz pasid; auth; params }
    | _ ->
      Message.Open_service
        {
          service =
            { service with Message.name = Fuzz.mutate_string fz service.Message.name };
          pasid;
          auth;
          params;
        })
  | Message.Discover_request { kind; query } ->
    Message.Discover_request { kind; query = Fuzz.mutate_string fz query }
  | Message.Load_image { image; bytes } -> (
    match Fuzz.pick fz 2 with
    | 0 -> Message.Load_image { image = Fuzz.mutate_string fz image; bytes }
    | _ -> Message.Load_image { image; bytes = Fuzz.mutate_int64 fz bytes })
  | Message.Device_failed { device } ->
    Message.Device_failed { device = Fuzz.mutate_int fz device }
  | Message.Doorbell { queue } -> Message.Doorbell { queue = Fuzz.mutate_int fz queue }
  | Message.Fault_notify { pasid; va; detail } -> (
    match Fuzz.pick fz 2 with
    | 0 -> Message.Fault_notify { pasid = Fuzz.mutate_int fz pasid; va; detail }
    | _ -> Message.Fault_notify { pasid; va; detail = Fuzz.mutate_string fz detail })
  | Message.App_message { tag; body } -> (
    match Fuzz.pick fz 2 with
    | 0 -> Message.App_message { tag = Fuzz.mutate_string fz tag; body }
    | _ -> Message.App_message { tag; body = Fuzz.mutate_string fz body })
  | other -> other

let mutate_message fz (m : Message.t) : Message.t =
  match Fuzz.pick fz 6 with
  | 0 -> { m with Message.src = Fuzz.mutate_int fz m.Message.src }
  | 1 ->
    let dst =
      match Fuzz.pick fz 3 with
      | 0 -> Types.Bus
      | 1 -> Types.Broadcast
      | _ -> Types.Device (Fuzz.pick fz 12 - 2)
    in
    { m with Message.dst }
  | 2 -> { m with Message.corr = Fuzz.mutate_int fz m.Message.corr }
  | _ -> { m with Message.payload = mutate_payload fz m.Message.payload }

(* --- the campaign -------------------------------------------------------- *)

let sentinel_bytes = 8192L
let sentinel_va = 0x4000_0000L
let sentinel = String.init 8192 (fun i -> Char.chr ((i * 131 + 17) land 0xff))

let run ?(seed = 42L) ?(iters = 400) () =
  let spec =
    {
      System.default_spec with
      System.seed;
      nic_count = 2;
      ssd_count = 1;
      quarantine = true;
    }
  in
  let sys = System.build ~spec () in
  (match System.boot sys with
  | Ok () -> ()
  | Error e -> failwith ("fuzz: boot failed: " ^ e));
  let bus = System.bus sys in
  let mc = System.memctl sys in
  let victim = Smart_nic.device (System.nic sys 0) in
  let attacker_id = Smart_nic.id (System.nic sys 1) in
  let victim_id = Device.id victim in
  let ssd_id = Smart_ssd.id (System.ssd sys 0) in
  (* Victim tenant: one allocation holding a sentinel pattern. *)
  let pasid_v = System.fresh_pasid sys in
  let token = ref None in
  Device.alloc victim ~memctl:(Memctl.id mc) ~pasid:pasid_v ~va:sentinel_va
    ~bytes:sentinel_bytes ~perm:Types.perm_rw (fun r ->
      match r with Ok tok -> token := Some tok | Error _ -> ());
  System.run_until_quiescent sys;
  let token =
    match !token with
    | Some tok -> tok
    | None -> failwith "fuzz: victim allocation failed"
  in
  let victim_dma = Device.dma victim ~pasid:pasid_v in
  Dma.write_bytes victim_dma sentinel_va sentinel;
  (* The victim's physical frames, via its own IOMMU. *)
  let victim_iommu = Sysbus.iommu_of bus victim_id in
  let victim_pas =
    List.filter_map
      (fun i ->
        Iommu.probe victim_iommu ~pasid:pasid_v
          ~va:(Int64.add sentinel_va (Int64.mul (Int64.of_int i) Layout.page_size)))
      (List.init (Layout.pages_of_bytes sentinel_bytes) Fun.id)
  in
  if victim_pas = [] then failwith "fuzz: victim region not mapped";
  let page_of pa = Int64.mul (Int64.div pa Layout.page_size) Layout.page_size in
  let victim_frames = List.map page_of victim_pas in

  let fz = Fuzz.create ~seed:(Int64.logxor seed 0x6675_7a7aL) in
  let violations = ref 0 in
  let violation_details = ref [] in
  let crashes = ref 0 in
  let structural = ref 0 in
  let decoder = ref 0 in
  let raw = ref 0 in
  let releases = ref 0 in

  let violation what =
    incr violations;
    if List.length !violation_details < 8 then
      violation_details := !violation_details @ [ what ]
  in
  let check_containment () =
    (* 1. No path from the rogue's IOMMU into the victim's frames. *)
    let atk_iommu = Sysbus.iommu_of bus attacker_id in
    List.iter
      (fun pasid ->
        Iommu.iter_mappings atk_iommu ~pasid (fun ~va ~pa ->
          if List.exists (Int64.equal (page_of pa)) victim_frames then
            violation
              (Printf.sprintf
                 "rogue iommu reaches victim frame: pasid=%d va=0x%Lx pa=0x%Lx"
                 pasid va pa)))
      (Iommu.pasids atk_iommu);
    (* 2. Sentinel mapped and intact, read through the victim's own view. *)
    match Dma.read_bytes victim_dma sentinel_va (String.length sentinel) with
    | got -> if not (String.equal got sentinel) then violation "sentinel corrupted"
    | exception _ -> violation "victim lost its sentinel mapping"
  in

  (* Frame templates: real control-plane traffic the mutator perturbs. The
     captured token is genuine (victim is its subject), so mutants reach
     past the MAC check into wielder/range/epoch validation. *)
  let templates corr =
    let msg ?(dst = Types.Bus) payload =
      Message.make ~src:attacker_id ~dst ~corr payload
    in
    [|
      msg Message.Heartbeat;
      msg (Message.Device_alive { services = [] });
      msg ~dst:(Types.Device (Memctl.id mc))
        (Message.Alloc_request
           { pasid = pasid_v; va = 0x5000_0000L; bytes = 4096L; perm = Types.perm_rw });
      msg ~dst:(Types.Device (Memctl.id mc))
        (Message.Free_request { pasid = pasid_v; va = sentinel_va; bytes = sentinel_bytes });
      msg
        (Message.Map_directive
           {
             device = attacker_id;
             pasid = pasid_v;
             va = sentinel_va;
             pa = List.hd victim_pas;
             bytes = sentinel_bytes;
             perm = Types.perm_rw;
             auth = token;
           });
      msg
        (Message.Grant_request
           {
             to_device = attacker_id;
             pasid = pasid_v;
             va = sentinel_va;
             bytes = sentinel_bytes;
             perm = Types.perm_rw;
             auth = token;
           });
      msg
        (Message.Unmap_directive
           {
             device = victim_id;
             pasid = pasid_v;
             va = sentinel_va;
             bytes = sentinel_bytes;
             auth = token;
           });
      msg ~dst:Types.Broadcast
        (Message.Discover_request { kind = Types.File_service; query = "boot.img" });
      msg ~dst:(Types.Device ssd_id)
        (Message.Open_service
           {
             service = { Message.kind = Types.File_service; name = "fs"; version = 1 };
             pasid = pasid_v;
             auth = None;
             params = [];
           });
      msg ~dst:(Types.Device ssd_id)
        (Message.Load_image { image = "rogue.img"; bytes = 4096L });
      msg ~dst:Types.Broadcast (Message.Device_failed { device = victim_id });
      msg ~dst:(Types.Device victim_id) (Message.Doorbell { queue = 3 });
      msg ~dst:(Types.Device victim_id)
        (Message.Fault_notify { pasid = pasid_v; va = sentinel_va; detail = "spurious" });
      msg ~dst:(Types.Device victim_id)
        (Message.App_message { tag = "kv"; body = "\x01\x02\x03\x04" });
      msg ~dst:(Types.Device victim_id)
        (Message.Error_msg { code = Types.E_busy; detail = "retry-after:1000" });
    |]
  in

  let inject bytes =
    match
      Sysbus.send_raw bus ~src:attacker_id bytes;
      System.run_until_quiescent sys
    with
    | () -> ()
    | exception exn ->
      incr crashes;
      violation ("engine crash: " ^ Printexc.to_string exn)
  in

  for i = 0 to iters - 1 do
    (* Re-admit a quarantined rogue so the campaign keeps probing the whole
       surface (fence, reset line, re-announce, fresh scoring). One mutant
       is first injected while still fenced to exercise the drop path. *)
    let quarantined = Sysbus.trust_of bus attacker_id = Sysbus.Quarantined in
    let corr = 7000 + (i mod 13) in
    let template = Fuzz.choice fz (templates corr) in
    let bytes =
      match Fuzz.pick fz 3 with
      | 0 -> (
        incr structural;
        (* A mutant with an unrepresentable field (the wire's varints are
           non-negative) cannot exist on a physical lane; inject the
           pristine template instead — a clean replay is itself a useful
           probe (correlation reuse, re-sent directives). *)
        match Codec.encode_framed (mutate_message fz template) with
        | bytes -> bytes
        | exception _ -> Codec.encode_framed template)
      | 1 ->
        incr decoder;
        Codec.frame (Fuzz.mutate_bytes fz (Codec.encode template))
      | _ ->
        incr raw;
        Fuzz.mutate_bytes fz (Codec.encode_framed template)
    in
    inject bytes;
    if quarantined then begin
      incr releases;
      Sysbus.release_quarantine bus attacker_id;
      (match System.run_until_quiescent sys with
      | () -> ()
      | exception exn ->
        incr crashes;
        violation ("engine crash on re-admission: " ^ Printexc.to_string exn))
    end;
    if i mod 32 = 31 then check_containment ()
  done;
  check_containment ();
  {
    seed;
    iterations = iters;
    structural = !structural;
    decoder = !decoder;
    raw = !raw;
    engine_crashes = !crashes;
    containment_violations = !violations;
    violation_details = !violation_details;
    malformed_rejected = Sysbus.malformed_total bus;
    stale_rejected = Sysbus.stale_tokens bus;
    token_failures = (Sysbus.counters bus).Sysbus.token_failures;
    fenced = Sysbus.messages_fenced bus;
    quarantines = Sysbus.quarantines bus;
    releases = !releases;
    attacker_trust = Sysbus.trust_to_string (Sysbus.trust_of bus attacker_id);
    digest = Metrics.digest (Engine.metrics (System.engine sys));
  }
