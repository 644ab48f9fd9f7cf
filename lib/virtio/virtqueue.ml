(* Split-queue offsets, mirroring the VIRTIO 1.1 layout:
     desc table : base,                16 * size bytes
     avail      : base + 16*size,      2 + 2 + 2*size bytes (flags, idx, ring)
     used       : avail_end aligned 4, 2 + 2 + 8*size bytes (flags, idx, ring)
   Descriptor: addr u64 | len u32 | flags u16 | next u16. *)

let desc_f_next = 1
let desc_f_write = 2

type buffer = { va : int64; len : int; writable : bool }

let valid_size size = size > 0 && size <= 32768 && size land (size - 1) = 0

let check_size size =
  if not (valid_size size) then
    invalid_arg "Virtqueue: size must be a power of two in [1, 32768]"

let restore_size r =
  let size = Lastcpu_sim.Snapshot.R.varint r in
  if not (valid_size size) then
    raise (Lastcpu_sim.Snapshot.R.Corrupt "virtqueue size out of range");
  size

let desc_off i = 16 * i
let avail_off size = 16 * size
let avail_ring_off size i = avail_off size + 4 + (2 * i)

let used_off size =
  let avail_end = (16 * size) + 4 + (2 * size) in
  (avail_end + 3) land lnot 3

let used_ring_off size i = used_off size + 4 + (8 * i)

let layout_bytes ~size =
  check_size size;
  used_off size + 4 + (8 * size)

(* Shared accessors over a DMA view rooted at [base]. Each is one DMA
   transaction (a whole descriptor, a whole used element, or one index or
   avail-ring field) on native-int addresses; [base] is kept as given
   only for snapshots. *)
module Raw = struct
  type t = { dma : Dma.t; base : int64; basei : int; size : int }

  let make ~dma ~base ~size = { dma; base; basei = Int64.to_int base; size }
  let read_u16 t off = Dma.read_field t.dma (t.basei + off) 2
  let write_u16 t off v = Dma.write_field t.dma (t.basei + off) 2 v
  let read_desc t i = Dma.read_desc t.dma (t.basei + desc_off i)

  let write_desc t i ~va ~len ~flags ~next =
    Dma.write_desc t.dma (t.basei + desc_off i) ~addr:va ~len ~flags ~next

  let avail_idx t = read_u16 t (avail_off t.size + 2)
  let set_avail_idx t v = write_u16 t (avail_off t.size + 2) (v land 0xffff)
  let avail_ring t i = read_u16 t (avail_ring_off t.size i)
  let set_avail_ring t i v = write_u16 t (avail_ring_off t.size i) v
  let used_idx t = read_u16 t (used_off t.size + 2)
  let set_used_idx t v = write_u16 t (used_off t.size + 2) (v land 0xffff)
  let used_ring t i = Dma.read_pair32 t.dma (t.basei + used_ring_off t.size i)

  let set_used_ring t i ~id ~len =
    Dma.write_pair32 t.dma (t.basei + used_ring_off t.size i) id len
end

module Driver = struct
  type t = {
    raw : Raw.t;
    mutable free_head : int;  (* head of the local free-descriptor list *)
    mutable free_count : int;
    next_free : int array;  (* local chain of free descriptors *)
    chain_len : int array;  (* descriptors in the chain headed by i *)
    mutable avail_shadow : int;  (* our copy of avail.idx (unwrapped) *)
    mutable used_seen : int;  (* used.idx we have consumed (unwrapped) *)
    mutable completion_count : int;
  }

  let create ~dma ~base ~size =
    check_size size;
    let raw = Raw.make ~dma ~base ~size in
    (* Zero the ring indices; descriptor contents are written on add. *)
    Raw.write_u16 raw (avail_off size) 0;
    Raw.set_avail_idx raw 0;
    Raw.write_u16 raw (used_off size) 0;
    Raw.set_used_idx raw 0;
    let next_free = Array.init size (fun i -> (i + 1) mod size) in
    {
      raw;
      free_head = 0;
      free_count = size;
      next_free;
      chain_len = Array.make size 0;
      avail_shadow = 0;
      used_seen = 0;
      completion_count = 0;
    }

  let size t = t.raw.Raw.size
  let num_free t = t.free_count

  let add t buffers =
    let n = List.length buffers in
    if n = 0 then Error "empty chain"
    else if n > t.free_count then Error "out of descriptors"
    else begin
      (* VIRTIO requires read-only segments before device-writable ones. *)
      let rec ordered seen_writable = function
        | [] -> true
        | b :: rest ->
          if b.writable then ordered true rest
          else if seen_writable then false
          else ordered false rest
      in
      if not (ordered false buffers) then
        Error "read-only segment after writable segment"
      else begin
        let head = t.free_head in
        let rec fill i = function
          | [] -> assert false
          | [ b ] ->
            Raw.write_desc t.raw i ~va:b.va ~len:b.len
              ~flags:(if b.writable then desc_f_write else 0)
              ~next:0;
            t.free_head <- t.next_free.(i)
          | b :: rest ->
            let next = t.next_free.(i) in
            Raw.write_desc t.raw i ~va:b.va ~len:b.len
              ~flags:(desc_f_next lor if b.writable then desc_f_write else 0)
              ~next;
            fill next rest
        in
        fill head buffers;
        t.free_count <- t.free_count - n;
        t.chain_len.(head) <- n;
        (* Publish on the available ring, then bump idx (the ordering that
           makes the lock-free handoff correct on real hardware). *)
        Raw.set_avail_ring t.raw (t.avail_shadow mod size t) head;
        t.avail_shadow <- t.avail_shadow + 1;
        Raw.set_avail_idx t.raw t.avail_shadow;
        Ok head
      end
    end

  (* The used ring is peer memory: an entry whose id is out of range or
     not the head of an outstanding chain is dropped, and so is one whose
     chain's descriptor links the peer rewrote. A chain is recycled along
     the driver's own [next_free] links, which still hold it; each
     descriptor is still read, one DMA transaction, to check its link. *)
  let rec poll_used t =
    let used = Raw.used_idx t.raw in
    if used land 0xffff = t.used_seen land 0xffff then None
    else begin
      let slot = t.used_seen mod size t in
      let id, written = Raw.used_ring t.raw slot in
      t.used_seen <- t.used_seen + 1;
      let n = if id >= 0 && id < size t then t.chain_len.(id) else 0 in
      (* The chain's last descriptor, or -1 at a link the peer changed. *)
      let rec tail i k =
        if k = 1 then i
        else begin
          let _, _, _, next = Raw.read_desc t.raw i in
          if next = t.next_free.(i) then tail next (k - 1) else -1
        end
      in
      let last = if n > 0 then tail id n else -1 in
      if last < 0 then poll_used t
      else begin
        t.completion_count <- t.completion_count + 1;
        t.next_free.(last) <- t.free_head;
        t.free_head <- id;
        t.free_count <- t.free_count + n;
        t.chain_len.(id) <- 0;
        Some (id, written)
      end
    end

  (* Checkpointing: the descriptor table, rings and buffers live in
     simulated DRAM (saved by Physmem); only the driver's local free-list
     and shadow indices are here. [restore] reconstructs the record
     without re-zeroing the rings — the ring contents come back with the
     memory image. *)
  module Snapshot = Lastcpu_sim.Snapshot

  let save w t =
    Snapshot.W.int64 w t.raw.Raw.base;
    Snapshot.W.varint w t.raw.Raw.size;
    Snapshot.W.varint w t.free_head;
    Snapshot.W.varint w t.free_count;
    Snapshot.W.array w (fun w i -> Snapshot.W.varint w i) t.next_free;
    Snapshot.W.array w (fun w n -> Snapshot.W.varint w n) t.chain_len;
    Snapshot.W.varint w t.avail_shadow;
    Snapshot.W.varint w t.used_seen;
    Snapshot.W.varint w t.completion_count

  let restore r ~dma =
    let base = Snapshot.R.int64 r in
    let size = restore_size r in
    let free_head = Snapshot.R.varint r in
    let free_count = Snapshot.R.varint r in
    let next_free = Snapshot.R.array r Snapshot.R.varint in
    let chain_len = Snapshot.R.array r Snapshot.R.varint in
    if Array.length next_free <> size || Array.length chain_len <> size then
      raise (Snapshot.R.Corrupt "virtqueue driver table length mismatch");
    (* [add] and [poll_used] index the tables with these: the head and
       every free-list link must be a descriptor id, and the free count
       plus the posted chains' lengths must sum to the ring size. *)
    let index i = i >= 0 && i < size in
    let chain n = n >= 0 && n <= size in
    if not (index free_head && Array.for_all index next_free) then
      raise (Snapshot.R.Corrupt "virtqueue driver descriptor id out of range");
    if
      not
        (chain free_count && Array.for_all chain chain_len
        && Array.fold_left ( + ) free_count chain_len = size)
    then raise (Snapshot.R.Corrupt "virtqueue driver chain lengths mismatch");
    let avail_shadow = Snapshot.R.varint r in
    let used_seen = Snapshot.R.varint r in
    let completion_count = Snapshot.R.varint r in
    {
      raw = Raw.make ~dma ~base ~size;
      free_head;
      free_count;
      next_free;
      chain_len;
      avail_shadow;
      used_seen;
      completion_count;
    }
end

module Device = struct
  type t = { raw : Raw.t; mutable avail_seen : int }

  type chain = { head : int; buffers : buffer list }

  let create ~dma ~base ~size =
    check_size size;
    { raw = Raw.make ~dma ~base ~size; avail_seen = 0 }

  let pending t =
    let avail = Raw.avail_idx t.raw in
    (avail - t.avail_seen) land 0xffff

  let pop t =
    if pending t = 0 then None
    else begin
      let slot = t.avail_seen mod t.raw.Raw.size in
      let head = Raw.avail_ring t.raw slot in
      t.avail_seen <- t.avail_seen + 1;
      (* Only NEXT and WRITE mean anything; other flag bits are ignored. *)
      let rec walk i acc guard =
        if guard > t.raw.Raw.size then
          invalid_arg "Virtqueue.Device.pop: descriptor chain loop"
        else begin
          let va, len, flags, next = Raw.read_desc t.raw i in
          let buf = { va; len; writable = flags land desc_f_write <> 0 } in
          if flags land desc_f_next <> 0 then walk next (buf :: acc) (guard + 1)
          else List.rev (buf :: acc)
        end
      in
      Some { head; buffers = walk head [] 0 }
    end

  let push_used t ~head ~written =
    let used = Raw.used_idx t.raw in
    Raw.set_used_ring t.raw (used mod t.raw.Raw.size) ~id:head ~len:written;
    Raw.set_used_idx t.raw (used + 1)

  (* Batched service, split in two halves for devices that surface
     completions later: [drain_deferred] takes every available chain in
     one event, and [publish_used] publishes the used entries in one shot
     once the work's simulated cost has elapsed (the SSD's flash time).
     Publication deliberately replays the per-entry used-ring access
     sequence of a [push_used] loop: ring traffic goes through the IOMMU,
     whose counters are folded into the golden digests, so batching may
     only save host time — closure dispatch, list churn — never modeled
     accesses. *)
  let drain_deferred t ~f =
    let rec go acc =
      match pop t with
      | None -> List.rev acc
      | Some chain -> go ((chain.head, f chain) :: acc)
    in
    go []

  let publish_used t completions =
    List.iter (fun (head, written) -> push_used t ~head ~written) completions

  (* Checkpointing: the device side only keeps a shadow of avail.idx;
     [restore] rebuilds the record without touching ring memory. *)
  module Snapshot = Lastcpu_sim.Snapshot

  let save w t =
    Snapshot.W.int64 w t.raw.Raw.base;
    Snapshot.W.varint w t.raw.Raw.size;
    Snapshot.W.varint w t.avail_seen

  let restore r ~dma =
    let base = Snapshot.R.int64 r in
    let size = restore_size r in
    let avail_seen = Snapshot.R.varint r in
    { raw = Raw.make ~dma ~base ~size; avail_seen }
end
