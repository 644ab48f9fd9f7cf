(* Shared alias so the IOMMU modules use the protocol's permission type
   without repeating the full path everywhere. *)
type t = Lastcpu_proto.Types.perm

let subsumes = Lastcpu_proto.Types.perm_subsumes

(* Compact encoding for checkpoints: bit 0 read, bit 1 write, bit 2 exec. *)
let to_bits (p : t) =
  (if p.Lastcpu_proto.Types.read then 1 else 0)
  lor (if p.Lastcpu_proto.Types.write then 2 else 0)
  lor if p.Lastcpu_proto.Types.exec then 4 else 0

let of_bits b =
  {
    Lastcpu_proto.Types.read = b land 1 <> 0;
    write = b land 2 <> 0;
    exec = b land 4 <> 0;
  }
