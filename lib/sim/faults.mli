(** Deterministic fault injection: a seeded chaos plan carried by the engine.

    A {!plan} gives per-channel fault rates and scheduled device crash
    windows. Every decision is a pure function of the run seed, a
    caller-supplied {e content key} (derived from what is being faulted —
    message route, frame bytes, NAND page coordinates), the fault class and
    an occurrence counter — never a draw from a shared sequential stream.
    Identical seeds and plans therefore give identical fault outcomes even
    when independent decision sites execute in a different order, which is
    what keeps the same-tick ordering sanitizer's perturbed replays free of
    phantom fault divergence. A zero-rate plan is bit-for-bit
    indistinguishable from no plan at all — no counters registered, no
    draws, no scheduled events. *)

type crash_window = {
  device : string;  (** bus name of the device to fail (e.g. ["ssd0"]) *)
  at_ns : int64;  (** virtual time at which it crashes *)
  down_ns : int64;  (** how long it stays dead before the revive *)
}

type plan = {
  msg_loss : float;  (** P(drop) per device-originated bus delivery *)
  msg_dup : float;  (** P(duplicate) per bus delivery *)
  msg_delay : float;  (** P(extra jitter) per bus delivery *)
  msg_jitter_ns : int64;  (** max extra delay when jitter fires *)
  msg_corrupt : float;  (** P(payload bit flip), caught by the wire CRC *)
  frame_loss : float;  (** P(drop) per network frame *)
  frame_reorder : float;  (** P(extra delay ⇒ reorder) per network frame *)
  frame_reorder_ns : int64;  (** max reorder delay *)
  nand_read_fail : float;  (** P(transient read failure) per page read *)
  nand_bit_flip : float;  (** P(bit flip caught by page CRC) per page read *)
  crashes : crash_window list;  (** scheduled crash→revive windows *)
}

val zero : plan
(** All rates 0, no crashes: injects nothing and registers nothing. *)

val default_chaos : plan
(** The default soak mix: a few percent message/frame loss, duplication,
    jitter, corruption and NAND read trouble. No crash windows — compose
    those per experiment. *)

type t

val create : ?plan:plan -> seed:int64 -> Metrics.t -> t
(** Built by {!Engine.create}; [seed] is the engine seed (salted
    internally). Counters register under actor ["faults"] only when the
    plan is non-zero. *)

val plan : t -> plan

val active : t -> bool
(** [false] iff the plan is zero (callers may skip hook work entirely). *)

val key_of_string : string -> int64
(** Hash a stable description of the faulted object (route, payload kind,
    page coordinates…) into a content key. Call sites build the string from
    simulation-stable data only — never from memory addresses or
    iteration-order-dependent state. *)

val key_init : int64
(** Seeded initial state for building a content key with the streaming
    {!Sanitizer.fnv_byte}/[fnv_string]/[fnv_int] fold:
    [Sanitizer.fnv_finish (fold over key_init)] equals {!key_of_string} of
    the equivalent formatted description. Hot paths use this to key faults
    without allocating the description string. *)

(** {2 Injection predicates} — each decides as a pure function of
    (seed, [key], class, occurrence) only when its rate is non-zero, and
    bumps the matching registry counter when the fault fires. Calling a
    predicate twice with the same [key] yields the 1st then 2nd occurrence
    decision (retransmits are faulted independently, still
    order-insensitively). *)

val drop_message : t -> key:int64 -> bool
val duplicate_message : t -> key:int64 -> bool

val message_jitter : t -> key:int64 -> int64
(** Extra delivery delay in ns; [0L] when no jitter fires. *)

val corrupt_message : t -> key:int64 -> bool

val corrupt_bit : t -> key:int64 -> len:int -> int
(** Which bit of a [len]-byte payload to flip (uniform). *)

val drop_frame : t -> key:int64 -> bool

val reorder_delay : t -> key:int64 -> int64
(** Extra frame delay in ns; [0L] when no reorder fires. *)

val nand_read_fails : t -> key:int64 -> bool

val nand_bit_flip : t -> key:int64 -> len:int -> int option
(** [Some bit] to flip in a [len]-byte page, [None] when no flip fires. *)

(** {2 Crash windows} *)

val crashes : t -> crash_window list

val note_crash : t -> unit
(** Tally an injected crash (called by the bus when a window fires). *)

val note_revive : t -> unit

(** {2 Checkpointing} *)

val save_state : t -> Snapshot.W.t -> unit
(** Write the per-key occurrence counters. The plan and seed are not
    included — a resume rebuilds them from the experiment spec. *)

val restore_state : t -> Snapshot.R.t -> unit
(** Overwrite the occurrence counters with state from {!save_state}, so
    subsequent decisions continue the interrupted stream exactly.
    @raise Snapshot.R.Corrupt on malformed input. *)
