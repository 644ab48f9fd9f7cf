module Types = Lastcpu_proto.Types
module Engine = Lastcpu_sim.Engine
module Physmem = Lastcpu_mem.Physmem
module Netsim = Lastcpu_net.Netsim
module Sysbus = Lastcpu_bus.Sysbus
module Device = Lastcpu_device.Device
module Memctl = Lastcpu_devices.Memctl
module Smart_ssd = Lastcpu_devices.Smart_ssd
module Smart_nic = Lastcpu_devices.Smart_nic
module Auth_dev = Lastcpu_devices.Auth_dev
module Accel_dev = Lastcpu_devices.Accel_dev
module Console_dev = Lastcpu_devices.Console_dev
module Message = Lastcpu_proto.Message

type spec = {
  seed : int64;
  enable_tokens : bool;
  heartbeat_timeout_ns : int64;
  nic_count : int;
  ssd_count : int;
  accel_count : int;
  memctl_count : int;
  bus_lanes : int;
  bus_lane_capacity : int option;
  device_queue_capacity : int option;
  with_auth : bool;
  users : (string * string) list;
  with_console : bool;
  fault_plan : Lastcpu_sim.Faults.plan;
  tie : Engine.tie_break;
  sanitize : bool;
  trace : bool;
  shard : int;
  quarantine : bool;
}

let default_spec =
  {
    seed = 42L;
    enable_tokens = true;
    heartbeat_timeout_ns = 0L;
    nic_count = 1;
    ssd_count = 1;
    accel_count = 0;
    memctl_count = 1;
    bus_lanes = 1;
    bus_lane_capacity = None;
    device_queue_capacity = None;
    with_auth = false;
    users = [];
    with_console = false;
    fault_plan = Lastcpu_sim.Faults.zero;
    tie = Engine.Fifo;
    sanitize = false;
    trace = false;
    shard = 0;
    quarantine = false;
  }

type t = {
  spec : spec;
  engine : Engine.t;
  network : Netsim.t;
  sysbus : Sysbus.t;
  mc_list : Memctl.t list;
  ssd_list : Smart_ssd.t list;
  nic_list : Smart_nic.t list;
  accel_list : Accel_dev.t list;
  auth_dev : Auth_dev.t option;
  console_dev : Console_dev.t option;
  mutable next_pasid : int;
}

(* DRAM pages per memory controller (256 MiB each). *)
let dram_pages = 65536

let build ?(spec = default_spec) () =
  let engine =
    Engine.create ~seed:spec.seed ~trace:spec.trace
      ~fault_plan:spec.fault_plan ~tie:spec.tie ~sanitize:spec.sanitize ()
  in
  let memory = Physmem.create ~size:(Int64.shift_left 1L 31) () in
  let network = Netsim.create ~shard:spec.shard engine in
  let sysbus =
    Sysbus.create
      ~config:
        {
          Sysbus.enable_tokens = spec.enable_tokens;
          heartbeat_timeout_ns = spec.heartbeat_timeout_ns;
          lanes = spec.bus_lanes;
          lane_capacity = spec.bus_lane_capacity;
          device_queue_capacity = spec.device_queue_capacity;
          quarantine = spec.quarantine;
        }
      ~shard:spec.shard engine
  in
  let mc_list =
    List.init (max 1 spec.memctl_count) (fun i ->
        (* Each controller owns a disjoint physical range. *)
        let base =
          Int64.add 0x1000_0000L
            (Int64.mul (Int64.of_int i)
               (Int64.mul (Int64.of_int dram_pages) 4096L))
        in
        Memctl.create sysbus ~mem:memory
          ~name:(if i = 0 then "memctl" else Printf.sprintf "memctl%d" i)
          ~dram_base:base ~dram_pages ())
  in
  let auth_dev =
    if spec.with_auth then Some (Auth_dev.create sysbus ~mem:memory ~users:spec.users ())
    else None
  in
  let auth_key = Option.map Auth_dev.key auth_dev in
  let ssd_list =
    List.init spec.ssd_count (fun i ->
        Smart_ssd.create sysbus ~mem:memory
          ~name:(Printf.sprintf "ssd%d" i)
          ?auth_key ())
  in
  let nic_list =
    List.init spec.nic_count (fun i ->
        Smart_nic.create sysbus ~mem:memory ~net:network
          ~name:(Printf.sprintf "nic%d" i) ())
  in
  let console_dev =
    if spec.with_console then Some (Console_dev.create sysbus ~mem:memory ())
    else None
  in
  let accel_list =
    List.init spec.accel_count (fun i ->
        Accel_dev.create sysbus ~mem:memory ~name:(Printf.sprintf "accel%d" i) ())
  in
  let t =
    {
      spec;
      engine;
      network;
      sysbus;
      mc_list;
      ssd_list;
      nic_list;
      accel_list;
      auth_dev;
      console_dev;
      next_pasid = 1;
    }
  in
  (* Whole-machine checkpoint hooks owned by the assembly itself: the DRAM
     image (every virtqueue ring and request slot lives in it) and the
     PASID allocator. Registered after the hardware above, before any
     boot-time application hook — so apps whose restore looks through a
     DMA view find the restored DRAM already in place. *)
  let module Snapshot = Lastcpu_sim.Snapshot in
  Engine.register_snapshot engine ~name:"dram"
    ~save:(fun w -> Physmem.save w memory)
    ~restore:(fun r -> Physmem.restore r memory);
  Engine.register_snapshot engine ~name:"system"
    ~save:(fun w -> Snapshot.W.varint w t.next_pasid)
    ~restore:(fun r -> t.next_pasid <- Snapshot.R.varint r);
  t

let engine t = t.engine
let net t = t.network
let bus t = t.sysbus
let memctl t = List.hd t.mc_list
let memctls t = t.mc_list
let ssds t = t.ssd_list
let nics t = t.nic_list
let ssd t i = List.nth t.ssd_list i
let nic t i = List.nth t.nic_list i
let auth t = t.auth_dev
let console t = t.console_dev
let accel t i = List.nth t.accel_list i

let fresh_pasid t =
  let p = t.next_pasid in
  t.next_pasid <- p + 1;
  p

let all_device_ids t =
  let ids = ref (List.map Memctl.id t.mc_list) in
  List.iter (fun s -> ids := Smart_ssd.id s :: !ids) t.ssd_list;
  (* NICs may not be started yet (applications add services first); only
     require liveness of started NICs. *)
  List.iter
    (fun n ->
      if Device.started (Smart_nic.device n) then ids := Smart_nic.id n :: !ids)
    t.nic_list;
  List.iter (fun a -> ids := Accel_dev.id a :: !ids) t.accel_list;
  (match t.auth_dev with Some a -> ids := Auth_dev.id a :: !ids | None -> ());
  (match t.console_dev with Some c -> ids := Console_dev.id c :: !ids | None -> ());
  !ids

let boot ?(timeout = 1_000_000L) t =
  (* Start any NIC that nothing else started (no hosted app). *)
  List.iter
    (fun n ->
      let d = Smart_nic.device n in
      if not (Device.started d) then Device.start d)
    t.nic_list;
  let deadline = Int64.add (Engine.now t.engine) timeout in
  let rec wait () =
    let missing =
      List.filter (fun id -> not (Sysbus.is_live t.sysbus id)) (all_device_ids t)
    in
    if missing = [] then Ok ()
    else if Engine.now t.engine >= deadline || Engine.pending t.engine = 0 then
      Error
        (Printf.sprintf "boot timeout; not live: %s"
           (String.concat ", "
              (List.map (fun id -> Sysbus.device_name t.sysbus id) missing)))
    else begin
      ignore (Engine.step t.engine);
      wait ()
    end
  in
  wait ()

let run_until_idle ?(max_events = 10_000_000) t =
  Engine.run ~max_events t.engine

let run_until_quiescent ?(max_events = 10_000_000) t =
  Engine.run_until_quiescent ~max_events t.engine

let run_for t ns = Engine.run ~until:(Int64.add (Engine.now t.engine) ns) t.engine

let topology t =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "System without a CPU (paper Figure 1)\n";
  add "=====================================\n";
  add "control plane: system management bus (privileged; programs IOMMUs)\n";
  add "data plane:    shared memory via per-device IOMMU + VIRTIO queues\n\n";
  let describe id =
    let name = Sysbus.device_name t.sysbus id in
    let live = if Sysbus.is_live t.sysbus id then "live" else "down" in
    let services =
      Sysbus.services_of t.sysbus id
      |> List.map (fun (s : Message.service_desc) ->
             Printf.sprintf "%s:%s"
               (Types.service_kind_to_string s.Message.kind)
               s.Message.name)
      |> String.concat ", "
    in
    add "  dev%-2d %-10s [%s]  services: %s\n" id name live
      (if services = "" then "-" else services)
  in
  add "devices on the bus:\n";
  List.iter describe (List.sort compare (all_device_ids t));
  (match t.nic_list with
  | [] -> ()
  | nics ->
    add "\nnetwork attachment:\n";
    List.iter
      (fun n ->
        add "  %s at switch port %d\n"
          (Device.name (Smart_nic.device n))
          (Smart_nic.endpoint_address n))
      nics);
  let total =
    List.fold_left
      (fun a m -> a + Memctl.free_pages m + Memctl.used_pages m)
      0 t.mc_list
  in
  let free = List.fold_left (fun a m -> a + Memctl.free_pages m) 0 t.mc_list in
  add "\nDRAM: %d pages across %d controller(s) (buddy allocators); %d free\n"
    total (List.length t.mc_list) free;
  Buffer.contents buf
