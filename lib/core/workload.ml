module Engine = Lastcpu_sim.Engine
module Netsim = Lastcpu_net.Netsim
module Central = Lastcpu_baseline.Central
module Kv_proto = Lastcpu_kv.Kv_proto
module Store = Lastcpu_kv.Store

type arrival =
  | Closed of { ops : int; think_ns : int64 }
  | Open of { start_ns : int64; offsets : int64 list }

type retry =
  | No_retry
  | Doubling of { timeout_ns : int64; retries : int }
  | Fixed of { interval_ns : int64; retries : int }

type outcome = Answered of int64 | Rejected | Gave_up
type submit = corr:int -> Kv_proto.op -> (Kv_proto.reply -> unit) -> unit

(* Endpoints are named per network ("client-<endpoint count>"): a
   process-global counter would be state shared across the parallel
   runner's domains. *)
let netsim net ~app_addr =
  let ep =
    Netsim.endpoint net
      ~name:(Printf.sprintf "client-%d" (Netsim.endpoint_count net))
  in
  let handlers = Hashtbl.create 16 in
  Netsim.set_receiver ep (fun ~src:_ frame ->
      match Kv_proto.decode_response frame with
      | Error _ -> ()
      | Ok { Kv_proto.corr; reply } -> (
        match Hashtbl.find_opt handlers corr with
        | Some k -> k reply
        | None -> ()));
  fun ~corr op k ->
    Hashtbl.replace handlers corr k;
    Netsim.send ep ~dst:app_addr (Kv_proto.encode_request { Kv_proto.corr; op })

let central central store ~corr:_ op k =
  let work tx =
    match op with
    | Kv_proto.Get key -> Store.get store key (fun _ -> tx ())
    | Kv_proto.Put (key, value) -> Store.put store ~key ~value (fun _ -> tx ())
    | Kv_proto.Del key -> Store.delete store key (fun _ -> tx ())
    | Kv_proto.Scan prefix -> Store.scan_prefix store ~prefix (fun _ -> tx ())
  in
  Central.try_kv_network_op central work
    ~on_busy:(fun ~retry_after_ns:_ -> k (Kv_proto.Failed "busy"))
    (fun () -> k Kv_proto.Done)

type tally = { sent : int; answered : int; resends : int }

let run engine ~submit ~arrival ~retry ~make_op ?(on_settle = fun _ _ -> ())
    ?(on_done = ignore) () =
  let n =
    match arrival with
    | Closed { ops; _ } -> ops
    | Open { offsets; _ } -> List.length offsets
  in
  let sent_at = Array.make n 0L in
  let pending = Array.make n false in
  let sent = ref 0 and answered = ref 0 and resends = ref 0 in
  let settled = ref 0 in
  let rec start i =
    incr sent;
    sent_at.(i) <- Engine.now engine;
    pending.(i) <- true;
    let op = make_op i in
    match retry with
    | No_retry -> submit ~corr:i op (on_reply i)
    | Doubling { timeout_ns; retries } | Fixed { interval_ns = timeout_ns; retries }
      ->
      attempt i op timeout_ns retries
  and attempt i op wait tries_left =
    submit ~corr:i op (on_reply i);
    Engine.schedule engine ~delay:wait (fun () ->
        if pending.(i) then
          if tries_left > 0 then begin
            incr resends;
            let wait =
              match retry with Doubling _ -> Int64.mul wait 2L | _ -> wait
            in
            attempt i op wait (tries_left - 1)
          end
          else settle i Gave_up)
  and on_reply i reply =
    if pending.(i) then
      match (retry, reply) with
      | Doubling _, Kv_proto.Failed _ -> ()
      | Fixed _, Kv_proto.Failed _ -> settle i Rejected
      | _ -> settle i (Answered (Int64.sub (Engine.now engine) sent_at.(i)))
  and settle i outcome =
    pending.(i) <- false;
    (match outcome with Answered _ -> incr answered | _ -> ());
    on_settle i outcome;
    incr settled;
    if !settled = n then on_done ()
    else
      match arrival with
      | Closed { think_ns; _ } ->
        if think_ns > 0L then
          Engine.schedule engine ~delay:think_ns (fun () -> start !sent)
        else start !sent
      | Open _ -> ()
  in
  (match arrival with
  | Closed _ -> if n > 0 then start 0
  | Open { start_ns; offsets } ->
    List.iteri
      (fun i off ->
        Engine.schedule_at engine ~time:(Int64.add start_ns off) (fun () ->
            start i))
      offsets);
  fun () -> { sent = !sent; answered = !answered; resends = !resends }
