module Types = Lastcpu_proto.Types
module Message = Lastcpu_proto.Message
module Device = Lastcpu_device.Device
module Engine = Lastcpu_sim.Engine
module Metrics = Lastcpu_sim.Metrics
module Netsim = Lastcpu_net.Netsim

type t = {
  dev : Device.t;
  endpoint : Netsim.endpoint;
  mutable rx_handler : (src:int -> string -> unit) option;
  m_rx : Metrics.counter;
  m_tx : Metrics.counter;
}

let create sysbus ~mem ~net ~name () =
  let dev = Device.create sysbus ~mem ~name () in
  let m = Engine.metrics (Device.engine dev) in
  let actor = Device.actor dev in
  let endpoint = Netsim.endpoint net ~name in
  let t =
    {
      dev;
      endpoint;
      rx_handler = None;
      m_rx = Metrics.counter m ~actor ~name:"rx_packets";
      m_tx = Metrics.counter m ~actor ~name:"tx_packets";
    }
  in
  Netsim.set_receiver endpoint (fun ~src frame ->
      Metrics.incr t.m_rx;
      match t.rx_handler with None -> () | Some f -> f ~src frame);
  Device.add_service dev
    {
      desc = { Message.kind = Types.Socket_service; name = name ^ ".sock"; version = 1 };
      can_serve = (fun ~query:_ -> true);
      on_open =
        (fun ~client:_ ~pasid:_ ~auth:_ ~params:_ ->
          Ok { Device.connection = Device.fresh_connection dev; shm_bytes = 0L });
      on_close = (fun ~connection:_ -> ());
    };
  t

let device t = t.dev
let id t = Device.id t.dev
let endpoint_address t = Netsim.address t.endpoint
let on_packet t f = t.rx_handler <- Some f

let send_packet t ~dst frame =
  Metrics.incr t.m_tx;
  Netsim.send t.endpoint ~dst frame
