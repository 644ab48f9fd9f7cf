(** Alias of the protocol's permission type, so the IOMMU modules share one
    short name for it. *)

type t = Lastcpu_proto.Types.perm

val subsumes : t -> t -> bool
(** [subsumes held wanted]: see {!Lastcpu_proto.Types.perm_subsumes}. *)

val to_bits : t -> int
(** 3-bit encoding for checkpoints: bit 0 read, bit 1 write, bit 2 exec. *)

val of_bits : int -> t
