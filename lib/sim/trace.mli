(** Structured trace of simulation events.

    The trace is the observable record of a run: every bus message, device
    state change and fault can be appended with its virtual timestamp. It
    is opt-in: an engine records one only when created with [~trace:true]
    (see {!Engine.create}). Tests assert on traces (e.g. the Figure-2
    sequence) and the CLI pretty-prints them. *)

type entry = {
  time : int64;  (** virtual nanoseconds *)
  actor : string;  (** which component produced the event *)
  kind : string;  (** short machine-readable tag, e.g. "bus.route" *)
  detail : string;  (** human-readable description *)
}

type t

val create : unit -> t
(** An empty trace; it keeps every entry appended. *)

val append : t -> time:int64 -> actor:string -> kind:string -> string -> unit
val length : t -> int
val entries : t -> entry list
(** Entries in chronological (append) order. *)

val find_all : t -> kind:string -> entry list
val pp : Format.formatter -> t -> unit

val to_json_lines : t -> string
(** One JSON object per line ({i jsonl}), chronological: for offline
    analysis of runs. Strings are escaped per RFC 8259. *)
