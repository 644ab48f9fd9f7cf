(** Binary min-heap specialised for the event queue.

    Elements are ordered by a [priority] given at insertion time; ties are
    broken by insertion order (FIFO among equal priorities), which the
    simulation engine relies on for determinism.

    The implementation is tuned for the simulation hot path: pushing in the
    default [Fifo] mode allocates exactly one entry block (the tie key is a
    shared constant), popped slots are cleared so the heap never retains a
    dead event closure, and {!top_prio}/{!pop_top} expose the root without
    the option/tuple boxing of {!peek}/{!pop}. *)

type tie_break =
  | Fifo  (** insertion order among equal priorities — the contract *)
  | Lifo  (** reverse insertion order — flips every colliding pair *)
  | Salted of int64  (** seed-keyed pseudo-random permutation of ties *)

type 'a t
(** A mutable min-heap holding values of type ['a]. *)

val create : ?tie:tie_break -> unit -> 'a t
(** [create ()] is an empty heap. [tie] (default [Fifo]) selects the order
    among equal priorities; the non-FIFO modes exist for the ordering
    sanitizer's perturbed runs and are equally deterministic. *)

val length : 'a t -> int
(** [length h] is the number of elements currently in [h]. *)

val is_empty : 'a t -> bool
(** [is_empty h] is [length h = 0]. *)

val push : 'a t -> priority:int64 -> 'a -> unit
(** [push h ~priority v] inserts [v] with the given priority. Lower
    priorities pop first; equal priorities pop in insertion order. *)

val pop : 'a t -> (int64 * 'a) option
(** [pop h] removes and returns the minimum element, or [None] if empty.
    The vacated slot is cleared: a popped element is not retained. *)

val peek : 'a t -> (int64 * 'a) option
(** [peek h] is the minimum element without removing it. *)

val top_prio : 'a t -> int64
(** [top_prio h] is the minimum priority without removal and without
    allocating the option/tuple of {!peek}.
    @raise Invalid_argument on an empty heap. *)

val pop_top : 'a t -> 'a
(** [pop_top h] removes and returns the minimum element's value without
    allocating the option/tuple of {!pop}; pair with {!top_prio} when the
    priority is also needed.
    @raise Invalid_argument on an empty heap. *)

val clear : 'a t -> unit
(** [clear h] removes all elements (and drops the backing storage). *)

val to_sorted_list : 'a t -> (int64 * 'a) list
(** [to_sorted_list h] drains [h], returning elements in pop order. *)
