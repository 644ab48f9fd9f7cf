(** VIRTIO 1.1-style split virtqueue.

    The standard interface the paper proposes for exposing services from
    self-managing devices (§2.1). A queue lives in *shared memory at virtual
    addresses*: the driver half (the client application, e.g. the KVS on the
    NIC) and the device half (the provider, e.g. the SSD) each access it
    through their own IOMMU view ({!Dma.t}), as in Figure 2 step 7 where the
    NIC "programs the VIRTIO queues in the SSD using virtual addresses".

    Memory layout (split queue):
    - descriptor table: 16 bytes x size
    - available ring: 4 + 2 x size bytes
    - used ring: 4 + 8 x size bytes
    Descriptor flags: NEXT=1, WRITE=2; the device ignores every other
    bit. *)

type buffer = {
  va : int64;  (** virtual address of the segment *)
  len : int;
  writable : bool;  (** true = device writes (an "in" buffer) *)
}

val layout_bytes : size:int -> int
(** Total bytes a queue of [size] descriptors occupies. [size] must be a
    power of two <= 32768. *)

module Driver : sig
  type t

  val create : dma:Dma.t -> base:int64 -> size:int -> t
  (** Initialise ring memory (zeroes indices, builds the free list). *)

  val num_free : t -> int

  val add : t -> buffer list -> (int, string) result
  (** Post a descriptor chain; returns the head descriptor id. Fails when
      the chain is empty or descriptors are exhausted. Read-only segments
      must precede device-writable ones (VIRTIO convention). *)

  val poll_used : t -> (int * int) option
  (** [(head, written)] for the next completion, recycling its
      descriptors. Used entries the peer forged are skipped: an id out of
      range or not heading an outstanding chain. A chain whose descriptor
      links the peer rewrote is recycled along the driver's own links and
      completes as [(head, 0)], nothing written. *)

  val save : Lastcpu_sim.Snapshot.W.t -> t -> unit
  (** Append the driver-local free list and shadow indices (checkpointing).
      Ring memory itself is part of the DRAM image. *)

  val restore : Lastcpu_sim.Snapshot.R.t -> dma:Dma.t -> t
  (** Reconstruct a driver handle from {!save}d state over [dma] without
      re-initialising ring memory (contents come back with DRAM).
      @raise Lastcpu_sim.Snapshot.R.Corrupt on malformed input, including
      a ring size that is not a power of two in [\[1, 32768\]], a free
      list or head outside the descriptor table, or chain lengths that do
      not account for every descriptor. *)
end

module Device : sig
  type t

  val create : dma:Dma.t -> base:int64 -> size:int -> t
  (** Attach to an already-initialised queue (driver side creates it). *)

  type chain = { head : int; buffers : buffer list }

  val pop : t -> chain option
  (** Next posted chain from the available ring, walking NEXT links. A
      chain whose head or a link names no descriptor of the table, or
      whose links loop (more descriptors than the ring holds), is
      malformed: it pops with no buffers, and never raises. *)

  val push_used : t -> head:int -> written:int -> unit
  (** Complete a chain, making it visible on the used ring. *)

  val drain_deferred : t -> f:(chain -> int) -> (int * int) list
  (** Service every available chain in one event: pop each and apply [f]
      (which returns the bytes written into the chain's writable
      segments), returning the [(head, written)] completions unpublished,
      for devices that surface completions after a simulated delay. *)

  val publish_used : t -> (int * int) list -> unit
  (** Push each completion onto the used ring, in order. The ring access
      sequence of [drain_deferred] then [publish_used] is exactly that of
      a [pop]/[push_used] loop — the batching saves host work only,
      keeping the IOMMU/TLB accounting (and with it the golden digests)
      unchanged. *)

  val pending : t -> int
  (** Chains posted but not yet popped. *)

  val save : Lastcpu_sim.Snapshot.W.t -> t -> unit
  (** Append the device-side shadow index (checkpointing). *)

  val restore : Lastcpu_sim.Snapshot.R.t -> dma:Dma.t -> t
  (** Reconstruct a device handle from {!save}d state over [dma] without
      touching ring memory.
      @raise Lastcpu_sim.Snapshot.R.Corrupt on malformed input. *)
end
