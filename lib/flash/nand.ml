module Costs = Lastcpu_sim.Costs
module Faults = Lastcpu_sim.Faults
module Wire = Lastcpu_proto.Wire

type geometry = { blocks : int; pages_per_block : int; page_size : int }

let default_geometry = { blocks = 256; pages_per_block = 64; page_size = 4096 }

type page_state = Erased | Programmed

type block = {
  pages : string option array;  (* None = erased; never copied, never mutated *)
  crcs : int array;  (* CRC-32 of each programmed page (the on-die ECC);
                        -1 = not yet computed. The CRC is a pure function
                        of the immutable page bytes, so it is computed
                        lazily, on the first fault-injected read — most
                        pages are programmed, read cleanly and erased
                        without ever needing it. *)
  mutable erases : int;
}

type t = {
  geo : geometry;
  data : block array;
  faults : Faults.t option;
  tag : string; (* distinguishes fault keys between chips on one engine *)
  erased : string; (* the one all-0xFF page every erased read returns *)
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
    erased = String.make geometry.page_size '\xff';
    data =
      Array.init geometry.blocks (fun _ ->
          {
            pages = Array.make geometry.pages_per_block None;
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
  | Ok () -> (
    match t.data.(block).pages.(page) with None -> Erased | Some _ -> Programmed)

(* The stored checksum of a programmed page, computing and caching it on
   first use. [s] must be the stored (unflipped) page; it is immutable,
   so the lazy value is identical to what eager computation at program
   time would have stored. *)
let page_crc t ~block ~page s =
  let c = t.data.(block).crcs.(page) in
  if c >= 0 then c
  else begin
    let c = Wire.crc32 s in
    t.data.(block).crcs.(page) <- c;
    c
  end

let read_page t ~block ~page =
  match check t ~block ~page with
  | Error _ as e -> e
  | Ok () ->
    t.read_count <- t.read_count + 1;
    (match t.data.(block).pages.(page) with
    | None -> Ok t.erased
    | Some stored -> (
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
            let flipped = Bytes.of_string stored in
            let i = bit / 8 in
            Bytes.set flipped i
              (Char.chr
                 (Char.code (Bytes.get flipped i) lxor (1 lsl (bit mod 8))));
            let s = Bytes.unsafe_to_string flipped in
            if Wire.crc32 s <> page_crc t ~block ~page stored then
              Error "uncorrectable bit error (ECC)"
            else Ok s)
      | Some _ | None -> Ok stored))

let program_page t ~block ~page data =
  match check t ~block ~page with
  | Error _ as e -> e
  | Ok () ->
    if String.length data > t.geo.page_size then Error "data exceeds page size"
    else begin
      match t.data.(block).pages.(page) with
      | Some _ -> Error "page not erased"
      | None ->
        t.program_count <- t.program_count + 1;
        let stored =
          if String.length data = t.geo.page_size then data
          else begin
            let b = Bytes.of_string t.erased in
            Bytes.blit_string data 0 b 0 (String.length data);
            Bytes.unsafe_to_string b
          end
        in
        t.data.(block).pages.(page) <- Some stored;
        t.data.(block).crcs.(page) <- -1;
        Ok ()
    end

let erase_block t ~block =
  match check t ~block ~page:0 with
  | Error _ as e -> e
  | Ok () ->
    let blk = t.data.(block) in
    Array.fill blk.pages 0 t.geo.pages_per_block None;
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
   counters. Page CRCs never travel — they are a pure function of the
   page bytes and are recomputed lazily after restore. *)
module Snapshot = Lastcpu_sim.Snapshot

let save w t =
  Snapshot.W.varint w t.geo.blocks;
  Snapshot.W.varint w t.geo.pages_per_block;
  Snapshot.W.varint w t.geo.page_size;
  Array.iter
    (fun blk ->
      Snapshot.W.varint w blk.erases;
      let programmed = ref [] in
      Array.iteri
        (fun i p ->
          match p with
          | None -> ()
          | Some s -> programmed := (i, s) :: !programmed)
        blk.pages;
      Snapshot.W.list w
        (fun w (i, s) ->
          Snapshot.W.varint w i;
          Snapshot.W.string w s)
        (List.rev !programmed))
    t.data;
  Snapshot.W.varint w t.read_count;
  Snapshot.W.varint w t.program_count;
  Snapshot.W.varint w t.erase_total

let restore r t =
  let blocks = Snapshot.R.varint r in
  let pages_per_block = Snapshot.R.varint r in
  let page_size = Snapshot.R.varint r in
  if
    blocks <> t.geo.blocks
    || pages_per_block <> t.geo.pages_per_block
    || page_size <> t.geo.page_size
  then invalid_arg "Nand.restore: geometry differs from checkpoint";
  Array.iter
    (fun blk ->
      blk.erases <- Snapshot.R.varint r;
      Array.fill blk.pages 0 pages_per_block None;
      Array.fill blk.crcs 0 pages_per_block (-1);
      let n = Snapshot.R.varint r in
      for _ = 1 to n do
        let i = Snapshot.R.varint r in
        let contents = Snapshot.R.string r in
        if i < 0 || i >= pages_per_block || String.length contents <> page_size
        then raise (Snapshot.R.Corrupt "nand page out of shape");
        blk.pages.(i) <- Some contents
      done)
    t.data;
  t.read_count <- Snapshot.R.varint r;
  t.program_count <- Snapshot.R.varint r;
  t.erase_total <- Snapshot.R.varint r
