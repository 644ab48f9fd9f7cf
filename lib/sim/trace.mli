(** Structured trace of simulation events.

    The trace is the observable record of a run: every bus message, device
    state change and fault can be appended with its virtual timestamp. Tests
    assert on traces (e.g. the Figure-2 sequence) and the CLI pretty-prints
    them. *)

type entry = {
  time : int64;  (** virtual nanoseconds *)
  actor : string;  (** which component produced the event *)
  kind : string;  (** short machine-readable tag, e.g. "bus.route" *)
  detail : string;  (** human-readable description *)
}

type t

val create : ?capacity:int -> unit -> t
(** [create ?capacity ()] is an empty trace. [capacity] bounds retained
    entries (oldest dropped first); default keeps everything. [~capacity:0]
    disables entry retention entirely — appends become no-ops — while span
    timing (the begin-time side table) keeps working, so metrics histograms
    fed from spans are unaffected by running trace-off. *)

val enabled : t -> bool
(** [false] iff created with [~capacity:0]: appends are dropped, and call
    sites can skip building detail strings altogether. *)

val append : t -> time:int64 -> actor:string -> kind:string -> string -> unit
val length : t -> int
val entries : t -> entry list
(** Entries in chronological (append) order. *)

val find_all : t -> kind:string -> entry list
val clear : t -> unit

(** {2 Spans}

    A span is a pair of entries — kind ["span.begin"] / ["span.end"] with
    detail ["name#id"] — correlated by the caller-supplied id (typically a
    bus correlation id or an [Engine.fresh_span_id]). Begin times live in a
    side table, so spans survive capacity trimming of the entry list. *)

val span_begin_kind : string
val span_end_kind : string

val begin_span : t -> time:int64 -> actor:string -> name:string -> id:int -> unit

val end_span :
  t -> time:int64 -> actor:string -> name:string -> id:int -> int64 option
(** Duration since the matching [begin_span], or [None] if the span was
    never opened (or already ended — ending twice is harmless). *)

val open_span_count : t -> int
(** Spans begun but not yet ended. *)

val pp : Format.formatter -> t -> unit

val to_json_lines : t -> string
(** One JSON object per line ({i jsonl}), chronological: for offline
    analysis of runs. Strings are escaped per RFC 8259. *)
