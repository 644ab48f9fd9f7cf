module Costs = Lastcpu_sim.Costs
module Faults = Lastcpu_sim.Faults
module Wire = Lastcpu_proto.Wire

type geometry = { blocks : int; pages_per_block : int; page_size : int }

let default_geometry = { blocks = 256; pages_per_block = 64; page_size = 4096 }

type page_state = Erased | Programmed

type view = { bytes : Bytes.t; off : int }

(* Each page position has one frame of [page_size] bytes, allocated the
   first time the position is programmed with data (a block's table of
   frames at its first such program, so an unwritten chip costs no heap)
   and reused after every erase, so a program fills a frame in place and
   a read hands out a view of it. A rewrite moves the source page's frame
   to the new position (a swap, not a copy). A page programmed with
   zeroes is only marked: its reads share the chip's one zero page, so
   zero-filling a block writes no frame bytes. *)
let erased_slot = 0
let frame_slot = 1
let zero_slot = 2

type block = {
  mutable frames : Bytes.t array;
      (* per page; [||] until the block's first data program, then each
         empty until its page's *)
  slots : int array;  (* per page: [erased_slot], [frame_slot] or [zero_slot] *)
  crcs : int array;  (* CRC-32 of each programmed page (the on-die ECC);
                        -1 = not yet computed. The CRC is a function of
                        the page bytes, which change only by a program
                        (it resets the page's CRC) or a restore (it
                        resets them all), so it is computed lazily, on a
                        page's first fault-injected read or first save,
                        and a later save of the unchanged page reuses it. *)
  mutable erases : int;
}

type t = {
  geo : geometry;
  data : block array;
  faults : Faults.t option;
  tag : string; (* distinguishes fault keys between chips on one engine *)
  erased : view; (* the one all-0xFF page every erased read returns *)
  zero : view; (* the one all-zero page: zero-filled pages, unmapped lpns *)
  mutable read_count : int;
  mutable program_count : int;
  mutable erase_total : int;
}

let create ?(geometry = default_geometry) ?faults ?(tag = "nand") () =
  if geometry.blocks <= 0 || geometry.pages_per_block <= 0 || geometry.page_size <= 0
  then invalid_arg "Nand.create: bad geometry";
  {
    geo = geometry;
    tag;
    erased = { bytes = Bytes.make geometry.page_size '\xff'; off = 0 };
    zero = { bytes = Bytes.make geometry.page_size '\000'; off = 0 };
    data =
      Array.init geometry.blocks (fun _ ->
          {
            frames = [||];
            slots = Array.make geometry.pages_per_block erased_slot;
            crcs = Array.make geometry.pages_per_block (-1);
            erases = 0;
          });
    faults;
    read_count = 0;
    program_count = 0;
    erase_total = 0;
  }

let geometry t = t.geo

let check t ~block ~page =
  if block < 0 || block >= t.geo.blocks then Error "block out of range"
  else if page < 0 || page >= t.geo.pages_per_block then Error "page out of range"
  else Ok ()

let page_state t ~block ~page =
  match check t ~block ~page with
  | Error _ -> invalid_arg "Nand.page_state: out of range"
  | Ok () ->
    if t.data.(block).slots.(page) = erased_slot then Erased else Programmed

let zero_page t = t.zero

let peek_page t ~block ~page =
  let blk = t.data.(block) in
  let slot = blk.slots.(page) in
  if slot = frame_slot then { bytes = blk.frames.(page); off = 0 }
  else if slot = zero_slot then t.zero
  else t.erased

(* The stored checksum of a programmed page, computing and caching it on
   first use; identical to what eager computation at program time would
   have stored. *)
let page_crc t ~block ~page =
  let blk = t.data.(block) in
  let c = blk.crcs.(page) in
  if c >= 0 then c
  else begin
    let v = peek_page t ~block ~page in
    let c = Wire.crc32_sub (Bytes.unsafe_to_string v.bytes) v.off t.geo.page_size in
    blk.crcs.(page) <- c;
    c
  end

let read_page t ~block ~page =
  match check t ~block ~page with
  | Error _ as e -> e
  | Ok () ->
    t.read_count <- t.read_count + 1;
    let stored = peek_page t ~block ~page in
    if t.data.(block).slots.(page) = erased_slot then Ok stored
    else begin
      (* Programmed pages can suffer injected transient read failures or
         bit flips; the per-page CRC (the ECC stand-in) catches flips, so
         both surface as an I/O error the caller can retry. Erased pages
         are never faulted. *)
      match t.faults with
      | Some f when Faults.active f -> (
        let key =
          Faults.key_of_string (Printf.sprintf "%s:%d:%d" t.tag block page)
        in
        if Faults.nand_read_fails f ~key then Error "transient read failure"
        else
          match Faults.nand_bit_flip f ~key ~len:t.geo.page_size with
          | None -> Ok stored
          | Some bit ->
            (* The flip lands in a private copy: stored pages never change. *)
            let flipped = Bytes.sub stored.bytes stored.off t.geo.page_size in
            let i = bit / 8 in
            Bytes.set flipped i
              (Char.chr
                 (Char.code (Bytes.get flipped i) lxor (1 lsl (bit mod 8))));
            if
              Wire.crc32 (Bytes.unsafe_to_string flipped)
              <> page_crc t ~block ~page
            then Error "uncorrectable bit error (ECC)"
            else Ok { bytes = flipped; off = 0 })
      | Some _ | None -> Ok stored
    end

(* [blk]'s frames and the frame at [page] of [blk], allocated on first
   use. *)
let frames t blk =
  if Array.length blk.frames = 0 then
    blk.frames <- Array.make t.geo.pages_per_block Bytes.empty;
  blk.frames

let frame t blk page =
  let frames = frames t blk in
  let f = frames.(page) in
  if Bytes.length f > 0 then f
  else begin
    let f = Bytes.create t.geo.page_size in
    frames.(page) <- f;
    f
  end

(* Program an erased page: [fill blk] stores its bytes and returns its
   slot. *)
let program t ~block ~page fill =
  match check t ~block ~page with
  | Error _ as e -> e
  | Ok () ->
    let blk = t.data.(block) in
    if blk.slots.(page) <> erased_slot then Error "page not erased"
    else begin
      t.program_count <- t.program_count + 1;
      blk.slots.(page) <- fill blk;
      blk.crcs.(page) <- -1;
      Ok ()
    end

let program_with t ~block ~page f =
  program t ~block ~page (fun blk ->
      f (frame t blk page) 0;
      frame_slot)

let program_zeroes t ~block ~page = program t ~block ~page (fun _ -> zero_slot)

(* The source's frame changes places with the new position's, so the
   source keeps a frame to reuse after its erase and reads as the zero
   page meanwhile, as after [discard]. A zero source has no frame to give:
   the new page starts from zeroes. *)
let rewrite t ~block ~page ~src_block ~src_page f =
  match check t ~block:src_block ~page:src_page with
  | Error _ as e -> e
  | Ok () ->
    let src = t.data.(src_block) in
    let slot = src.slots.(src_page) in
    if slot = erased_slot then Error "source page not programmed"
    else
      program t ~block ~page (fun blk ->
          if slot = zero_slot then begin
            let b = frame t blk page in
            Bytes.fill b 0 t.geo.page_size '\000';
            f b 0
          end
          else begin
            let dst = frames t blk in
            let b = src.frames.(src_page) in
            src.frames.(src_page) <- dst.(page);
            src.slots.(src_page) <- zero_slot;
            src.crcs.(src_page) <- -1;
            dst.(page) <- b;
            f b 0
          end;
          frame_slot)

let program_page t ~block ~page data =
  let len = String.length data in
  match check t ~block ~page with
  | Error _ as e -> e
  | Ok () when len > t.geo.page_size -> Error "data exceeds page size"
  | Ok () ->
    program_with t ~block ~page (fun b off ->
        Bytes.blit_string data 0 b off len;
        Bytes.fill b (off + len) (t.geo.page_size - len) '\xff')

(* Drop a programmed page's bytes: it stays programmed (a program still
   fails until its block is erased) but reads as the zero page, so a
   checkpoint need not carry them. *)
let discard t ~block ~page =
  let blk = t.data.(block) in
  if blk.slots.(page) <> erased_slot then begin
    blk.slots.(page) <- zero_slot;
    blk.crcs.(page) <- -1
  end

let erase_block t ~block =
  match check t ~block ~page:0 with
  | Error _ as e -> e
  | Ok () ->
    let blk = t.data.(block) in
    Array.fill blk.slots 0 t.geo.pages_per_block erased_slot;
    blk.erases <- blk.erases + 1;
    t.erase_total <- t.erase_total + 1;
    Ok ()

let erase_count t ~block =
  match check t ~block ~page:0 with
  | Error _ -> invalid_arg "Nand.erase_count: out of range"
  | Ok () -> t.data.(block).erases

let total_erases t = t.erase_total
let reads t = t.read_count
let programs t = t.program_count

let busy_ns t =
  Int64.add
    (Int64.mul (Int64.of_int t.read_count) Costs.flash_read_page_ns)
    (Int64.add
       (Int64.mul (Int64.of_int t.program_count) Costs.flash_write_page_ns)
       (Int64.mul (Int64.of_int t.erase_total) Costs.flash_erase_block_ns))

(* Checkpointing: programmed pages sparsely, per block, plus wear and op
   counters. A page's record is its index and a length: [page_size] and
   its bytes, or 0 for a page that shares the zero page (zero-filled or
   discarded), which restores as a programmed zero page. A data page is
   borrowed from its frame with its cached CRC, so a save copies no page
   and hashes only pages not hashed since they were programmed. Page CRCs
   never travel — they are a function of the page bytes and are
   recomputed lazily after restore. *)
module Snapshot = Lastcpu_sim.Snapshot

let save w t =
  let ps = t.geo.page_size in
  Snapshot.W.varint w t.geo.blocks;
  Snapshot.W.varint w t.geo.pages_per_block;
  Snapshot.W.varint w ps;
  Array.iteri
    (fun block blk ->
      Snapshot.W.varint w blk.erases;
      let programmed = ref [] in
      for i = t.geo.pages_per_block - 1 downto 0 do
        if blk.slots.(i) <> erased_slot then programmed := i :: !programmed
      done;
      Snapshot.W.list w
        (fun w page ->
          Snapshot.W.varint w page;
          if blk.slots.(page) = zero_slot then
            Snapshot.W.varint w 0
          else begin
            let crc = page_crc t ~block ~page in
            Snapshot.W.varint w ps;
            Snapshot.W.borrow w blk.frames.(page) 0 ps ~crc
          end)
        !programmed)
    t.data;
  Snapshot.W.varint w t.read_count;
  Snapshot.W.varint w t.program_count;
  Snapshot.W.varint w t.erase_total

(* Decode and check the whole section before touching [t], so a rejected
   one leaves the chip as it was: per block its erase count and its
   programmed pages, each with its bytes, or [""] for a zero page. *)
let restore r t =
  let blocks = Snapshot.R.varint r in
  let pages_per_block = Snapshot.R.varint r in
  let page_size = Snapshot.R.varint r in
  if
    blocks <> t.geo.blocks
    || pages_per_block <> t.geo.pages_per_block
    || page_size <> t.geo.page_size
  then invalid_arg "Nand.restore: geometry differs from checkpoint";
  let page r =
    let i = Snapshot.R.varint r in
    let bytes = Snapshot.R.string r in
    if i < 0 || i >= pages_per_block then
      raise (Snapshot.R.Corrupt "nand page out of shape");
    if bytes <> "" && String.length bytes <> page_size then
      raise (Snapshot.R.Corrupt "nand page length out of shape");
    (i, bytes)
  in
  let decoded =
    Array.init blocks (fun _ ->
        let erases = Snapshot.R.varint r in
        (erases, Snapshot.R.list r page))
  in
  let read_count = Snapshot.R.varint r in
  let program_count = Snapshot.R.varint r in
  let erase_total = Snapshot.R.varint r in
  Array.iter2
    (fun blk (erases, pages) ->
      blk.erases <- erases;
      Array.fill blk.slots 0 pages_per_block erased_slot;
      Array.fill blk.crcs 0 pages_per_block (-1);
      List.iter
        (fun (i, bytes) ->
          if bytes = "" then blk.slots.(i) <- zero_slot
          else begin
            Bytes.blit_string bytes 0 (frame t blk i) 0 page_size;
            blk.slots.(i) <- frame_slot
          end)
        pages)
    t.data decoded;
  t.read_count <- read_count;
  t.program_count <- program_count;
  t.erase_total <- erase_total
