(** Same-tick ordering sanitizer: journals, comparison, hash utilities.

    The engine's determinism contract fixes same-tick event order (FIFO by
    insertion), but code must not depend on that order for its observable
    outcome. In sanitize mode the engine journals a state hash after every
    tick that ran two or more events; running the same workload once with
    the FIFO tie-break and once with a perturbed one (LIFO or seed-salted)
    and comparing journals exposes any latent ordering race, localized to
    the colliding events' labels. *)

type tick = {
  time : int64;  (** virtual time of the tick *)
  labels : string list;  (** labels of the events that shared it, in order *)
  state_hash : int64;  (** observable-state digest after the tick *)
}

type divergence = {
  index : int;  (** first differing position in the reference journal *)
  reference : tick option;  (** [None] when the reference journal ended *)
  perturbed : tick option;  (** [None] when the perturbed journal ended *)
}

val compare_journals :
  reference:tick list -> perturbed:tick list -> divergence option
(** First entry where the journals disagree on the state hash, or [None]
    when the perturbed ordering is observationally identical. Timestamps
    and labels are not compared — a perturbed run legitimately reorders
    labels and drifts tick times by a few service times; only the state
    trajectory is contractual. *)

val pp_divergence : Format.formatter -> divergence -> unit

(** {2 Hash utilities} (also used by digest probes and keyed fault draws) *)

val mix64 : int64 -> int64
(** SplitMix64 finalizer: a strong cheap 64-bit mixer. *)

val combine : int64 -> int64 -> int64
(** Order-sensitive accumulator: fold values into a digest. *)

val hash_string : int64 -> string -> int64
(** FNV-1a over the bytes, chained from [seed], finished with {!mix64}. *)

(** {3 Streaming FNV-1a}

    [hash_string seed s] is exactly
    [fnv_finish (fnv_string (fnv_init seed) s)]. Hot paths use the split
    form to hash a value field-by-field with the same result they would
    get from hashing the formatted description — without allocating the
    string. Note that chaining two {!hash_string} calls is {e not} the
    hash of the concatenation (seeded init, final mix); only the split
    form composes. *)

val fnv_init : int64 -> int64
(** Start a streaming hash from a seed. *)

val fnv_char : int64 -> char -> int64
(** Fold one character. *)

val fnv_string : int64 -> string -> int64
(** Fold every byte of a string. *)

val fnv_int : int64 -> int -> int64
(** Fold the decimal rendering of an int — the exact bytes
    [Printf.sprintf "%d" n] would contribute, sign included. *)

val fnv_finish : int64 -> int64
(** Finish the stream (applies {!mix64}). *)
