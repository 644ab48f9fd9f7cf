(** One simulated KV client: the load every networked experiment drives.

    A client sends requests numbered [0 .. n-1]; the number is the
    request's correlation id, reused by every resend. Each request settles
    exactly once and later replies are ignored. A {!submit} function
    carries the requests: over the simulated network ({!netsim}) or through
    the centralized baseline's CPU ({!central}). *)

type arrival =
  | Closed of { ops : int; think_ns : int64 }
      (** one request in flight; the next is sent [think_ns] after the
          previous one settles *)
  | Open of { start_ns : int64; offsets : int64 list }
      (** request [i] is sent at [start_ns] plus the [i]-th offset *)

type retry =
  | No_retry  (** send once; any reply, [Failed] included, answers *)
  | Doubling of { timeout_ns : int64; retries : int }
      (** resend on silence, doubling the wait each time; [Failed] replies
          are left to the timer *)
  | Fixed of { interval_ns : int64; retries : int }
      (** resend on silence every [interval_ns]; a [Failed] (busy) reply
          settles the request and stops the resends *)

type outcome =
  | Answered of int64  (** latency in ns, first send to accepted reply *)
  | Rejected  (** a [Failed] reply under {!Fixed} *)
  | Gave_up  (** the last resend's wait expired unanswered *)

type submit =
  corr:int -> Lastcpu_kv.Kv_proto.op -> (Lastcpu_kv.Kv_proto.reply -> unit) -> unit
(** Deliver one attempt; the callback receives every reply to it. *)

val netsim : Lastcpu_net.Netsim.t -> app_addr:int -> submit
(** A fresh endpoint (["client-<endpoint count>"]) sending to [app_addr]. *)

val central : Lastcpu_baseline.Central.t -> Lastcpu_kv.Store.t -> submit
(** The op runs against the store inside
    {!Lastcpu_baseline.Central.try_kv_network_op}: [Done] on completion,
    [Failed] when a bounded run queue refuses the frame. *)

type tally = { sent : int; answered : int; resends : int }

val run :
  Lastcpu_sim.Engine.t ->
  submit:submit ->
  arrival:arrival ->
  retry:retry ->
  make_op:(int -> Lastcpu_kv.Kv_proto.op) ->
  ?on_settle:(int -> outcome -> unit) ->
  ?on_done:(unit -> unit) ->
  unit ->
  unit -> tally
(** Start the client: a closed loop sends request 0 now, an open loop
    schedules every arrival. [make_op i] runs when request [i] is sent,
    [on_settle] once per request, [on_done] after the last one settles.
    Returns a reader of the running tally. *)
