(** Deterministic mutation primitives for the protocol fuzzer.

    A fuzzing campaign in this repo is a reproducible experiment: every
    mutant derives from one seeded {!Rng} stream, so the same seed gives
    the same campaign — and a committed golden can gate CI on it. These
    are the generic byte- and scalar-level mutators; structure-aware
    selection of which field of which frame to mutate belongs to the
    layer that knows the frame types (see [Lastcpu_core.Protofuzz]). *)

type t
(** Mutator state: a seeded generator. *)

val create : seed:int64 -> t
(** Equal seeds give equal mutant streams. *)

val save : Snapshot.W.t -> t -> unit
(** Append the campaign's stream position: a restored mutator continues
    the exact mutant sequence of the uninterrupted campaign. *)

val restore : Snapshot.R.t -> t -> unit

val rng : t -> Rng.t
(** The underlying generator, for campaign-level choices. *)

val pick : t -> int -> int
(** [pick t n] is uniform in [\[0, n)]. Requires [n > 0]. *)

val choice : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val byte : t -> int
(** Uniform in [\[0, 256)]. *)

(** {1 Scalar mutations}

    Each returns a mutant of the input: a boundary value (0, -1,
    [max_int], page-size multiples...), a single bit flip, a small
    delta, or a fresh random value. *)

val mutate_int64 : t -> int64 -> int64
val mutate_int : t -> int -> int
val mutate_string : t -> string -> string

(** {1 Byte-buffer mutations}

    For encoded frames. All total: the empty string maps to itself
    (except {!extend}, which grows it). *)

val truncate : t -> string -> string
val extend : t -> string -> string

val mutate_bytes : t -> string -> string
(** One of the four above, chosen uniformly. *)
