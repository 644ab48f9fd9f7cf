module Engine = Lastcpu_sim.Engine
module Station = Lastcpu_sim.Station
module Metrics = Lastcpu_sim.Metrics
module Faults = Lastcpu_sim.Faults
module Sanitizer = Lastcpu_sim.Sanitizer
module Snapshot = Lastcpu_sim.Snapshot
module Ownership = Lastcpu_sim.Ownership

type endpoint = {
  net : t;
  addr : int;
  ep_name : string;
  egress : Station.t;  (* serialisation port: models finite link bandwidth *)
  mutable rx : (src:int -> string -> unit) option;
}

and t = {
  engine : Engine.t;
  actor : string;
  mutable endpoints : endpoint array;
  names : (string, int) Hashtbl.t;
  m_delivered : Metrics.counter;
  m_dropped : Metrics.counter;
  m_bytes : Metrics.counter;
  (* Ownership tag for the dynamic shard sanitizer (see Sysbus). *)
  owner_cell : Ownership.tracker;
}

(* Checkpoint hook. Frame counters live in Metrics (restored there); what
   the fabric itself must carry across a restore is the endpoint roster —
   name and egress-port accounting. A checkpointed run may have created
   endpoints the rebuilt topology does not recreate (workload phases
   attach fresh clients, then abandon them); those are restored as
   receiverless placeholders so the address counter lines up and
   endpoints attached after the resume get the same addresses they would
   have gotten in the uninterrupted run. *)
let save_state t w =
  Snapshot.W.array w
    (fun w ep ->
      Snapshot.W.string w ep.ep_name;
      Station.save w ep.egress)
    t.endpoints

let new_endpoint t ~addr ~name =
  { net = t; addr; ep_name = name; egress = Station.create t.engine; rx = None }

let restore_state t r =
  let n = Snapshot.R.varint r in
  for i = 0 to n - 1 do
    let name = Snapshot.R.string r in
    let ep =
      if i < Array.length t.endpoints then begin
        let ep = t.endpoints.(i) in
        if not (String.equal ep.ep_name name) then
          invalid_arg
            (Printf.sprintf
               "Netsim.restore_state: endpoint %d is %S, checkpoint has %S" i
               ep.ep_name name);
        ep
      end
      else begin
        let ep = new_endpoint t ~addr:i ~name in
        t.endpoints <- Array.append t.endpoints [| ep |];
        Hashtbl.replace t.names name i;
        ep
      end
    in
    Station.restore r ep.egress
  done

let create ?(shard = 0) engine =
  let m = Engine.metrics engine in
  let actor = Metrics.claim_actor m "net" in
  let t =
    {
      engine;
      actor;
      endpoints = [||];
      names = Hashtbl.create 8;
      m_delivered = Metrics.counter m ~actor ~name:"frames_delivered";
      m_dropped = Metrics.counter m ~actor ~name:"frames_dropped";
      m_bytes = Metrics.counter m ~actor ~name:"bytes_carried";
      owner_cell = Ownership.tracker ~name:("net:" ^ actor) ~owner:shard;
    }
  in
  Engine.register_snapshot engine ~name:t.actor
    ~save:(save_state t)
    ~restore:(restore_state t);
  t

let endpoint t ~name =
  if Hashtbl.mem t.names name then
    invalid_arg (Printf.sprintf "Netsim.endpoint: duplicate name %S" name);
  let addr = Array.length t.endpoints in
  let ep = new_endpoint t ~addr ~name in
  t.endpoints <- Array.append t.endpoints [| ep |];
  Hashtbl.replace t.names name addr;
  ep

let address ep = ep.addr
let endpoint_count t = Array.length t.endpoints
let set_receiver ep f = ep.rx <- Some f

let serialisation_ns frame =
  Int64.mul Lastcpu_sim.Costs.net_byte_ns (Int64.of_int (String.length frame))

let deliver t ~src ~dst frame =
  if dst < 0 || dst >= Array.length t.endpoints then Metrics.incr t.m_dropped
  else begin
    match t.endpoints.(dst).rx with
    | None -> Metrics.incr t.m_dropped
    | Some rx ->
      Metrics.incr t.m_delivered;
      Metrics.incr ~by:(String.length frame) t.m_bytes;
      rx ~src frame
  end

(* Fault content key: equals [Faults.key_of_string] of
   ["net:<src>><dst>:<frame>"], folded directly through the streaming FNV
   so the hot path never materialises that description (which would copy
   the whole frame into a fresh string). *)
let frame_fault_key ~src ~dst frame =
  let h = Sanitizer.fnv_string Faults.key_init "net:" in
  let h = Sanitizer.fnv_int h src in
  let h = Sanitizer.fnv_char h '>' in
  let h = Sanitizer.fnv_int h dst in
  let h = Sanitizer.fnv_char h ':' in
  Sanitizer.fnv_finish (Sanitizer.fnv_string h frame)

let fly t ~src ~dst ~extra frame =
  let delay = Int64.add Lastcpu_sim.Costs.net_link_ns extra in
  let deliver () = deliver t ~src ~dst frame in
  if Engine.sanitizing t.engine then
    Engine.schedule
      ~label:(fun () -> Printf.sprintf "net:%d>%d" src dst)
      t.engine ~delay deliver
  else Engine.schedule t.engine ~delay deliver

let send ep ~dst frame =
  let t = ep.net in
  Ownership.touch t.owner_cell;
  let src = ep.addr in
  (* Serialise through the egress port (queueing under load), then fly the
     link. The fault plan can drop the frame on the wire or add delay
     (which reorders it past later frames). *)
  Station.submit ep.egress ~service:(serialisation_ns frame) (fun () ->
      let faults = Engine.faults t.engine in
      if not (Faults.active faults) then fly t ~src ~dst ~extra:0L frame
      else begin
        let key = frame_fault_key ~src ~dst frame in
        if Faults.drop_frame faults ~key then Metrics.incr t.m_dropped
        else fly t ~src ~dst ~extra:(Faults.reorder_delay faults ~key) frame
      end)

let frames_delivered t = Metrics.counter_value t.m_delivered
let frames_dropped t = Metrics.counter_value t.m_dropped
let bytes_carried t = Metrics.counter_value t.m_bytes
