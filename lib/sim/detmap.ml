(* Deterministic iteration over hash tables.

   OCaml's [Hashtbl.iter]/[fold] visit bindings in bucket order — a
   function of hash values, table growth history and insertion order. Any
   observable result accumulated that way is a reproducibility hazard, so
   the nondeterminism lint (rule D001) bans those functions in library
   code. This module is the blessed replacement: every helper materializes
   the key set, sorts it, and visits bindings in that order. It is the one
   module exempt from D001 (see lint.rules), the way lib/sim/rng.ml is the
   one blessed randomness source.

   Cost: O(n log n) per traversal plus an O(n) key list — fine for the
   registry/directory-sized tables these helpers serve. Hot paths should
   keep using point lookups ([find_opt], [mem]), which are order-free. *)

let sorted_keys tbl =
  List.sort_uniq compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl [])

let bindings tbl =
  (* One binding per key: the visible one ([Hashtbl.find]), matching what
     lookups observe even if shadowed bindings exist underneath. *)
  List.map (fun k -> (k, Hashtbl.find tbl k)) (sorted_keys tbl)

let iter_sorted f tbl =
  List.iter (fun (k, v) -> f k v) (bindings tbl)

let fold_sorted f tbl init =
  List.fold_left (fun acc (k, v) -> f k v acc) init (bindings tbl)

let min_key tbl =
  Hashtbl.fold
    (fun k _ acc ->
      match acc with
      | None -> Some k
      | Some m -> if compare k m < 0 then Some k else acc)
    tbl None
