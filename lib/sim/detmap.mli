(** Deterministic iteration over [Hashtbl.t].

    [Hashtbl.iter]/[fold] visit bindings in bucket order, which is not a
    stable, auditable order — the nondeterminism lint (rule D001) bans
    them in library code. These helpers visit bindings in sorted key
    order instead. This module is the single lint-exempt wrapper; use it
    whenever a traversal's result is observable. Point lookups
    ([Hashtbl.find_opt] etc.) remain fine everywhere. *)

val sorted_keys : ('k, 'v) Hashtbl.t -> 'k list
(** Distinct keys in ascending [Stdlib.compare] order. *)

val bindings : ('k, 'v) Hashtbl.t -> ('k * 'v) list
(** [(key, value)] pairs in ascending key order, one per distinct key
    (the binding visible to [Hashtbl.find]). *)

val iter_sorted : ('k -> 'v -> unit) -> ('k, 'v) Hashtbl.t -> unit
(** [iter_sorted f tbl] applies [f] to each binding in ascending key order. *)

val fold_sorted : ('k -> 'v -> 'acc -> 'acc) -> ('k, 'v) Hashtbl.t -> 'acc -> 'acc
(** Fold over bindings in ascending key order. *)

val min_key : ('k, 'v) Hashtbl.t -> 'k option
(** Smallest key, or [None] when the table is empty. O(n), no sort. *)
