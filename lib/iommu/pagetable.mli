(** Four-level page table (x86-64-style radix tree: 9 bits per level,
    4 KiB leaves, 48-bit virtual addresses).

    One table per (application) address space. The table is the policy-free
    mechanism: it stores exactly the mappings the bus programs into it. *)

type t

type prot = Proto_perm.t
(** Alias of {!Types.perm}; re-exported for callers of the walk. *)

type walk_result =
  | Translated of { pa : int64; levels : int; perm : prot }
      (** [levels] is the number of table levels touched (for the cost
          model: 4 on this geometry). *)
  | No_mapping of { level : int }  (** walk ended at a hole *)
  | Permission_denied of { perm : prot }  (** mapped, but access exceeds *)

val create : unit -> t

val map : t -> va:int64 -> pa:int64 -> perm:prot -> (unit, string) result
(** Map one 4-KiB page. Fails if [va] or [pa] is unaligned or the page is
    already mapped (remapping requires an explicit unmap: the bus must not
    silently clobber grants). *)

val map_range :
  t -> va:int64 -> pa:int64 -> bytes:int64 -> perm:prot -> (unit, string) result
(** Map a page-aligned range contiguously. All-or-nothing. *)

val unmap_range : t -> va:int64 -> bytes:int64 -> int
(** Unmap a range; returns the number of pages that were mapped. *)

val walk : t -> va:int64 -> access:prot -> walk_result
(** Translate [va] for an [access]; does not consult any TLB. *)

val mapped_pages : t -> int

val iter : t -> (va:int64 -> pa:int64 -> perm:prot -> unit) -> unit
(** Iterate over all leaf mappings (diagnostics, invariant checks). *)

val save : Lastcpu_sim.Snapshot.W.t -> t -> unit
(** Append all leaf mappings, in ascending va order (checkpointing). *)

val restore : Lastcpu_sim.Snapshot.R.t -> t -> unit
(** Replace the table's contents with mappings written by {!save}.
    @raise Lastcpu_sim.Snapshot.R.Corrupt on malformed input. *)
