module Ftl = Lastcpu_flash.Ftl
module Nand = Lastcpu_flash.Nand
module Metrics = Lastcpu_sim.Metrics
module Detmap = Lastcpu_sim.Detmap

type file_kind = Regular | Directory

type stat = {
  ino : int;
  kind : file_kind;
  size : int;
  owner : string;
  mode : int;
}

type error =
  | Not_found_e of string
  | Exists of string
  | Not_a_directory of string
  | Is_a_directory of string
  | Permission of string
  | No_space
  | Invalid of string
  | Io of string

let error_to_string = function
  | Not_found_e p -> Printf.sprintf "not found: %s" p
  | Exists p -> Printf.sprintf "already exists: %s" p
  | Not_a_directory p -> Printf.sprintf "not a directory: %s" p
  | Is_a_directory p -> Printf.sprintf "is a directory: %s" p
  | Permission p -> Printf.sprintf "permission denied: %s" p
  | No_space -> "no space left on device"
  | Invalid m -> Printf.sprintf "invalid: %s" m
  | Io m -> Printf.sprintf "io error: %s" m

(* On-disk geometry ------------------------------------------------------ *)

let magic = "LCFS1\000"
let inode_size = 256
let ndirect = 12
let owner_max = 31

type t = {
  ftl : Ftl.t;
  block_size : int;
  total_blocks : int;
  bitmap_start : int;  (* = 1 *)
  bitmap_blocks : int;
  itable_start : int;
  itable_blocks : int;
  data_start : int;
  ninodes : int;
  root_ino : int;
  (* Device-DRAM block cache (write-through): models the on-device cache
     hierarchy of §2.3. Reads served from here cost no NAND operation;
     every write still programs flash (durability preserved). The cache
     is one bit per block: a cached block's bytes are the page the FTL
     maps it to (DESIGN §14, "Storage pages"). *)
  cached : Bytes.t option;  (* '\001' per cached block *)
  (* First-fit hint: every data block below it is in use. *)
  mutable alloc_hint : int;
  m_block_reads : Metrics.counter;
  m_block_writes : Metrics.counter;
  m_cache_hits : Metrics.counter;
}

type inode = {
  mutable used : bool;
  mutable kind : file_kind;
  mutable size : int;
  mutable mode : int;
  mutable owner : string;
  direct : int array;  (* block numbers, 0 = hole *)
  mutable indirect : int;  (* block holding u32 block numbers, 0 = none *)
}

(* Low-level block IO ----------------------------------------------------- *)

(* [read_block] returns a view of the NAND page itself (DESIGN §14): it
   is valid only until the next block write, which may run GC, so every
   caller decodes or copies out of it before writing. *)
let read_block t b =
  Metrics.incr t.m_block_reads;
  match t.cached with
  | Some cached
    when b >= 0 && b < t.total_blocks && Bytes.get cached b <> '\000' ->
    Metrics.incr t.m_cache_hits;
    Ok (Ftl.peek t.ftl ~lpn:b)
  | cache -> (
    match Ftl.read t.ftl ~lpn:b with
    | Ok _ as res ->
      Option.iter (fun cached -> Bytes.set cached b '\001') cache;
      res
    | Error e -> Error (Io e))

let wrote t b = function
  | Ok () ->
    Option.iter (fun cached -> Bytes.set cached b '\001') t.cached;
    Ok ()
  | Error e -> Error (Io e)

let zero_block t b =
  Metrics.incr t.m_block_writes;
  wrote t b (Ftl.write_zeroes t.ftl ~lpn:b)

(* Write block [b] as its current contents edited in place by [f buf o]
   (the block's bytes are at [o] in [buf]): the new page takes over the
   current one's bytes ([Ftl.update]), so nothing is copied. *)
let update_block t b f =
  Metrics.incr t.m_block_writes;
  wrote t b (Ftl.update t.ftl ~lpn:b f)

let ( let* ) = Result.bind

(* Read block [b] (the modelled read), then rewrite it edited by [f]. *)
let modify_block t b f =
  let* _ = read_block t b in
  update_block t b f

(* Fields are read from a page view and written into a page buffer at an
   offset that already includes the page's own. u32/u16 are little-endian. *)
let get_char (v : Nand.view) off = Bytes.get v.bytes (v.off + off)

let get_u32 (v : Nand.view) off =
  Int32.to_int (Bytes.get_int32_le v.bytes (v.off + off)) land 0xffff_ffff

let get_u16 (v : Nand.view) off = Bytes.get_uint16_le v.bytes (v.off + off)
let set_u32 b off v = Bytes.set_int32_le b off (Int32.of_int v)
let set_u16 b off v = Bytes.set_uint16_le b off (v land 0xffff)

(* Inode (de)serialisation ------------------------------------------------ *)

(* All of these work on the inode slot at byte [o] of an inode-table
   page. Path lookup reads the fields it needs straight from the view. *)
let inode_is_dir v o = get_char v (o + 1) = '\001'
let inode_size_of v o = get_u32 v (o + 2)
let inode_direct v o i = get_u32 v (o + 48 + (4 * i))
let inode_indirect v o = get_u32 v (o + 48 + (4 * ndirect))

let encode_inode b o ino =
  Bytes.fill b o inode_size '\000';
  Bytes.set b o (if ino.used then '\001' else '\000');
  Bytes.set b (o + 1) (match ino.kind with Regular -> '\000' | Directory -> '\001');
  set_u32 b (o + 2) ino.size;
  set_u16 b (o + 6) ino.mode;
  let olen = min owner_max (String.length ino.owner) in
  Bytes.set b (o + 8) (Char.chr olen);
  Bytes.blit_string ino.owner 0 b (o + 9) olen;
  for i = 0 to ndirect - 1 do
    set_u32 b (o + 48 + (4 * i)) ino.direct.(i)
  done;
  set_u32 b (o + 48 + (4 * ndirect)) ino.indirect

let decode_inode v o =
  let used = get_char v o = '\001' in
  let kind = if inode_is_dir v o then Directory else Regular in
  let size = inode_size_of v o in
  let mode = get_u16 v (o + 6) in
  let olen = Char.code (get_char v (o + 8)) in
  let owner = Bytes.sub_string v.bytes (v.off + o + 9) olen in
  let direct = Array.init ndirect (inode_direct v o) in
  let indirect = inode_indirect v o in
  { used; kind; size; mode; owner; direct; indirect }

let inodes_per_block t = t.block_size / inode_size

(* [f] applied to the inode-table block holding [ino] and the inode's
   offset in it. *)
let read_inode_slot t ino f =
  if ino < 0 || ino >= t.ninodes then Error (Invalid "bad inode number")
  else begin
    let blk = t.itable_start + (ino / inodes_per_block t) in
    match read_block t blk with
    | Error e -> Error e
    | Ok v -> f v (ino mod inodes_per_block t * inode_size)
  end

let read_inode t ino = read_inode_slot t ino (fun v o -> Ok (decode_inode v o))

let write_inode t ino node =
  let blk = t.itable_start + (ino / inodes_per_block t) in
  let off = ino mod inodes_per_block t * inode_size in
  modify_block t blk (fun buf o -> encode_inode buf (o + off) node)

(* First fit. Each probe reads the inode's block exactly as [read_inode]
   would, but decodes only its used flag. *)
let alloc_inode t =
  let used v off = Ok (get_char v off = '\001') in
  let rec scan ino =
    if ino >= t.ninodes then Error No_space
    else
      let* in_use = read_inode_slot t ino used in
      if in_use then scan (ino + 1) else Ok ino
  in
  scan 0

(* Block bitmap ----------------------------------------------------------- *)

let bit_get v i = Char.code (get_char v (i / 8)) land (1 lsl (i mod 8)) <> 0

(* Set bit [i] of the bitmap page at [o] in [b] to [v]. *)
let bit_set i v b o =
  let cur = Char.code (Bytes.get b (o + (i / 8))) in
  let mask = 1 lsl (i mod 8) in
  Bytes.set b (o + (i / 8))
    (Char.chr (if v then cur lor mask else cur land lnot mask))

let bits_per_block t = t.block_size * 8

(* First fit over the data region. Every data block below [alloc_hint] is
   in use, so the bit scan starts there; the bitmap blocks before the
   hint's are still read, exactly as a scan from bit 0 reads them. *)
let alloc_block t =
  let hint_bi = t.alloc_hint / bits_per_block t in
  let rec scan_block bi =
    if bi >= t.bitmap_blocks then Error No_space
    else begin
      let* b = read_block t (t.bitmap_start + bi) in
      let base = bi * bits_per_block t in
      let rec scan_bit i =
        if i >= bits_per_block t then scan_block (bi + 1)
        else begin
          let blk = base + i in
          if blk >= t.total_blocks then Error No_space
          else if not (bit_get b i) then begin
            let* () = update_block t (t.bitmap_start + bi) (bit_set i true) in
            t.alloc_hint <- blk + 1;
            (* Zero the block so stale contents never leak between files —
               the isolation property §2.1 demands of a multi-client
               device. *)
            let* () = zero_block t blk in
            Ok blk
          end
          else scan_bit (i + 1)
        end
      in
      if bi < hint_bi then scan_block (bi + 1)
      else scan_bit (if bi = hint_bi then t.alloc_hint - base else 0)
    end
  in
  scan_block 0

let free_block t blk =
  if blk < t.data_start || blk >= t.total_blocks then
    Error (Invalid "free of metadata block")
  else begin
    let bi = blk / bits_per_block t in
    let i = blk mod bits_per_block t in
    let* b = read_block t (t.bitmap_start + bi) in
    if not (bit_get b i) then Error (Invalid "double free of block")
    else begin
      let* () = update_block t (t.bitmap_start + bi) (bit_set i false) in
      if blk < t.alloc_hint then t.alloc_hint <- blk;
      Ftl.trim t.ftl ~lpn:blk;
      Ok ()
    end
  end

let count_free_blocks t =
  let count = ref 0 in
  (try
     for bi = 0 to t.bitmap_blocks - 1 do
       match read_block t (t.bitmap_start + bi) with
       | Error _ -> raise Exit
       | Ok b ->
         let base = bi * bits_per_block t in
         for i = 0 to bits_per_block t - 1 do
           let blk = base + i in
           if blk >= t.data_start && blk < t.total_blocks && not (bit_get b i)
           then incr count
         done
     done
   with Exit -> ());
  !count

(* File block mapping ----------------------------------------------------- *)

let ptrs_per_block t = t.block_size / 4

let max_file_blocks t = ndirect + ptrs_per_block t

(* The data block of file-block [n], 0 for a hole, of a file whose direct
   pointers are [direct i] and whose indirect block is [indirect]: past
   the direct pointers it reads the indirect block. *)
let block_at t ~direct ~indirect n =
  if n < 0 || n >= max_file_blocks t then Error (Invalid "file too large")
  else if n < ndirect then Ok (direct n)
  else if indirect = 0 then Ok 0
  else
    let* ind = read_block t indirect in
    Ok (get_u32 ind (4 * (n - ndirect)))

(* Get the data block for file-block index [n]; allocate if [grow]. Returns
   0 (a hole) only when not growing. A new indirect block is read before
   its pointer is set, as a lookup through an existing one would. *)
let bmap t node n ~grow =
  let* cur =
    block_at t ~direct:(Array.get node.direct) ~indirect:node.indirect n
  in
  if cur <> 0 || not grow then Ok cur
  else if n < ndirect then begin
    let* blk = alloc_block t in
    node.direct.(n) <- blk;
    Ok blk
  end
  else begin
    let* ind_blk =
      if node.indirect <> 0 then Ok node.indirect
      else begin
        let* blk = alloc_block t in
        node.indirect <- blk;
        let* _ = read_block t blk in
        Ok blk
      end
    in
    let* blk = alloc_block t in
    let* () =
      update_block t ind_blk (fun b o -> set_u32 b (o + (4 * (n - ndirect))) blk)
    in
    Ok blk
  end

(* Generic file read/write over an inode (works for directories too). *)

let read_inode_data t node ~off ~len =
  let len = max 0 (min len (node.size - off)) in
  if len = 0 then Ok ""
  else begin
    let out = Bytes.create len in
    let rec go pos =
      if pos >= len then Ok (Bytes.unsafe_to_string out)
      else begin
        let fpos = off + pos in
        let n = fpos / t.block_size in
        let boff = fpos mod t.block_size in
        let chunk = min (len - pos) (t.block_size - boff) in
        let* blk = bmap t node n ~grow:false in
        if blk = 0 then begin
          Bytes.fill out pos chunk '\000';
          go (pos + chunk)
        end
        else
          let* v = read_block t blk in
          Bytes.blit v.bytes (v.off + boff) out pos chunk;
          go (pos + chunk)
      end
    in
    go 0
  end

let write_inode_data t ino node ~off data =
  let len = String.length data in
  if len = 0 then Ok ()
  else begin
    let rec go pos =
      if pos >= len then Ok ()
      else begin
        let fpos = off + pos in
        let n = fpos / t.block_size in
        let boff = fpos mod t.block_size in
        let chunk = min (len - pos) (t.block_size - boff) in
        let* blk = bmap t node n ~grow:true in
        let* () =
          modify_block t blk (fun buf o ->
              Bytes.blit_string data pos buf (o + boff) chunk)
        in
        go (pos + chunk)
      end
    in
    let* () = go 0 in
    if off + len > node.size then node.size <- off + len;
    write_inode t ino node
  end

(* Directories ------------------------------------------------------------ *)

(* The views of the [size] bytes of a file whose pointers [direct] and
   [indirect] are as {!block_at} takes them: each block is read in the
   order [read_inode_data] reads it, and a hole is the zero page. Reads
   end no view's lifetime, so all of them stay valid together. *)
let rec fill_views t views nblocks ~direct ~indirect n =
  if n >= nblocks then Ok views
  else
    (* [block_at] fails at [n = max_file_blocks], the length of [views]. *)
    match block_at t ~direct ~indirect n with
    | Error e -> Error e
    | Ok 0 -> fill_views t views nblocks ~direct ~indirect (n + 1)
    | Ok blk -> (
      match read_block t blk with
      | Error e -> Error e
      | Ok v ->
        views.(n) <- v;
        fill_views t views nblocks ~direct ~indirect (n + 1))

let data_views t ~size ~direct ~indirect =
  let nblocks = (size + t.block_size - 1) / t.block_size in
  let views =
    Array.make (min nblocks (max_file_blocks t)) (Nand.zero_page (Ftl.nand t.ftl))
  in
  fill_views t views nblocks ~direct ~indirect 0

(* Entry: u16 name_len | name | u32 ino, up to the first empty or cut-off
   entry. Entries are scanned where they are in a directory's block
   views, so one may straddle two blocks. Mutations render the whole
   directory anew; directories are small. *)

let dir_byte t (views : Nand.view array) i =
  let n = i / t.block_size in
  let v = views.(n) in
  Char.code (Bytes.get v.bytes (v.off + i - (n * t.block_size)))

(* The name length of the entry at [at] of a directory of [size] bytes in
   [views], or 0 where the entries end. Its name follows at [at + 2] and
   its ino at [at + 2 + nlen]. *)
let entry_len t views size at =
  if at + 2 > size then 0
  else begin
    let nlen = dir_byte t views at lor (dir_byte t views (at + 1) lsl 8) in
    if at + 2 + nlen + 4 > size then 0 else nlen
  end

let entry_ino t views at =
  dir_byte t views at
  lor (dir_byte t views (at + 1) lsl 8)
  lor (dir_byte t views (at + 2) lsl 16)
  lor (dir_byte t views (at + 3) lsl 24)

let rec same_name t views at name pos len i =
  i >= len
  || dir_byte t views (at + i) = Char.code name.[pos + i]
     && same_name t views at name pos len (i + 1)

(* The ino of the first entry from [at] whose name is the [len] bytes of
   [name] from [pos], or -1. *)
let rec find_entry t views size name pos len at =
  let nlen = entry_len t views size at in
  if nlen = 0 then -1
  else if nlen = len && same_name t views (at + 2) name pos len 0 then
    entry_ino t views (at + 2 + nlen)
  else find_entry t views size name pos len (at + 6 + nlen)

let render_dir entries =
  let buf = Buffer.create 256 in
  List.iter
    (fun (name, ino) ->
      let n = String.length name in
      Buffer.add_char buf (Char.chr (n land 0xff));
      Buffer.add_char buf (Char.chr ((n lsr 8) land 0xff));
      Buffer.add_string buf name;
      Buffer.add_char buf (Char.chr (ino land 0xff));
      Buffer.add_char buf (Char.chr ((ino lsr 8) land 0xff));
      Buffer.add_char buf (Char.chr ((ino lsr 16) land 0xff));
      Buffer.add_char buf (Char.chr ((ino lsr 24) land 0xff)))
    entries;
  Buffer.contents buf

let read_dir_entries t node =
  let size = node.size in
  let* views =
    data_views t ~size ~direct:(Array.get node.direct) ~indirect:node.indirect
  in
  let rec entries at acc =
    let nlen = entry_len t views size at in
    if nlen = 0 then List.rev acc
    else begin
      let name =
        String.init nlen (fun i -> Char.chr (dir_byte t views (at + 2 + i)))
      in
      entries (at + 6 + nlen) ((name, entry_ino t views (at + 2 + nlen)) :: acc)
    end
  in
  Ok (entries 0 [])

(* Free any data blocks past the first [keep_blocks] of the file, clearing
   their pointers (shared by truncate-shrink and directory rewrites). *)
let free_blocks_beyond t node ~keep_blocks =
  let rec free_from n res =
    match res with
    | Error _ as e -> e
    | Ok () ->
      if n >= max_file_blocks t then Ok ()
      else begin
        match bmap t node n ~grow:false with
        | Error _ as e -> e
        | Ok 0 -> free_from (n + 1) (Ok ())
        | Ok blk ->
          if n < ndirect then node.direct.(n) <- 0;
          free_from (n + 1) (free_block t blk)
      end
  in
  let* () = free_from keep_blocks (Ok ()) in
  if node.indirect = 0 then Ok ()
  else if keep_blocks <= ndirect then begin
    let blk = node.indirect in
    node.indirect <- 0;
    free_block t blk
  end
  else begin
    modify_block t node.indirect (fun buf o ->
        for i = keep_blocks - ndirect to ptrs_per_block t - 1 do
          set_u32 buf (o + (4 * i)) 0
        done)
  end

let write_dir_entries t ino node entries =
  let data = render_dir entries in
  node.size <- 0;
  (* Overwrite from 0, set the size, and release blocks the smaller
     directory no longer needs. *)
  let* () = write_inode_data t ino node ~off:0 data in
  node.size <- String.length data;
  let keep_blocks = (node.size + t.block_size - 1) / t.block_size in
  let* () = free_blocks_beyond t node ~keep_blocks in
  write_inode t ino node

(* Path resolution -------------------------------------------------------- *)

let split_path path =
  if String.length path = 0 || path.[0] <> '/' then None
  else
    Some (List.filter (fun c -> String.length c > 0) (String.split_on_char '/' path))

(* Walk the components of [path] from [pos] (the non-empty runs between
   slashes, as [split_path] gives them) down from directory [ino]. Each
   directory's kind, size and pointers come straight from its inode-table
   view, which its block reads leave valid, and each component is
   compared where it is in [path]. *)
let rec walk t path ino pos =
  let len = String.length path in
  if pos >= len then Ok ino
  else if path.[pos] = '/' then walk t path ino (pos + 1)
  else begin
    let stop =
      match String.index_from path pos '/' with
      | i -> i
      | exception Not_found -> len
    in
    let child =
      read_inode_slot t ino (fun v o ->
          if not (inode_is_dir v o) then Error (Not_a_directory path)
          else begin
            let size = inode_size_of v o in
            match
              data_views t ~size ~direct:(inode_direct v o)
                ~indirect:(inode_indirect v o)
            with
            | Error e -> Error e
            | Ok views ->
              let child = find_entry t views size path pos (stop - pos) 0 in
              if child < 0 then Error (Not_found_e path) else Ok child
          end)
    in
    match child with Error e -> Error e | Ok child -> walk t path child stop
  end

let lookup t path =
  if String.length path = 0 || path.[0] <> '/' then
    Error (Invalid (Printf.sprintf "bad path %S" path))
  else walk t path t.root_ino 1

let parent_of t path =
  match split_path path with
  | None | Some [] -> Error (Invalid (Printf.sprintf "bad path %S" path))
  | Some components ->
    let rec split_last acc = function
      | [] -> assert false
      | [ last ] -> (List.rev acc, last)
      | x :: rest -> split_last (x :: acc) rest
    in
    let dirs, name = split_last [] components in
    let dir_path = "/" ^ String.concat "/" dirs in
    let* dir_ino = lookup t dir_path in
    Ok (dir_ino, name)

(* Permissions ------------------------------------------------------------ *)

let can node ~user ~want =
  (* want: 0o4 read, 0o2 write, 0o1 exec/search *)
  if String.equal user "root" then true
  else begin
    let bits =
      if String.equal user node.owner then (node.mode lsr 6) land 0o7
      else node.mode land 0o7
    in
    bits land want = want
  end

let require node ~user ~want path =
  if can node ~user ~want then Ok () else Error (Permission path)

(* Superblock ------------------------------------------------------------- *)

let write_superblock t =
  update_block t 0 (fun b o ->
      Bytes.fill b o t.block_size '\000';
      Bytes.blit_string magic 0 b o (String.length magic);
      set_u32 b (o + 8) t.total_blocks;
      set_u32 b (o + 12) t.bitmap_blocks;
      set_u32 b (o + 16) t.itable_blocks;
      set_u32 b (o + 20) t.root_ino)

let layout ?(cache = true) ?metrics ?(actor = "fs") ftl =
  let m = match metrics with Some m -> m | None -> Metrics.create () in
  let block_size = Ftl.page_size ftl in
  let total_blocks = Ftl.logical_pages ftl in
  let bitmap_blocks = ((total_blocks + (block_size * 8) - 1) / (block_size * 8)) in
  (* 1 inode per 16 data blocks, at least one table block. *)
  let ninodes_wanted = max 64 (total_blocks / 16) in
  let itable_blocks =
    (ninodes_wanted + (block_size / inode_size) - 1) / (block_size / inode_size)
  in
  let itable_start = 1 + bitmap_blocks in
  let data_start = itable_start + itable_blocks in
  {
    ftl;
    block_size;
    total_blocks;
    bitmap_start = 1;
    bitmap_blocks;
    itable_start;
    itable_blocks;
    data_start;
    ninodes = itable_blocks * (block_size / inode_size);
    root_ino = 0;
    cached = (if cache then Some (Bytes.make total_blocks '\000') else None);
    alloc_hint = data_start;
    m_block_reads = Metrics.counter m ~actor ~name:"block_reads";
    m_block_writes = Metrics.counter m ~actor ~name:"block_writes";
    m_cache_hits = Metrics.counter m ~actor ~name:"cache_hits";
  }

let format ?cache ?metrics ?actor ftl =
  let t = layout ?cache ?metrics ?actor ftl in
  if t.data_start >= t.total_blocks then Error No_space
  else begin
    let* () = write_superblock t in
    (* Mark metadata blocks used in the bitmap. *)
    let* () =
      let rec init bi res =
        match res with
        | Error _ as e -> e
        | Ok () ->
          if bi >= t.bitmap_blocks then Ok ()
          else begin
            (* data_start < total_blocks, checked above *)
            let used =
              min (bits_per_block t) (t.data_start - (bi * bits_per_block t))
            in
            init (bi + 1)
              (update_block t (t.bitmap_start + bi) (fun b o ->
                   Bytes.fill b o t.block_size '\000';
                   for i = 0 to used - 1 do bit_set i true b o done))
          end
      in
      init 0 (Ok ())
    in
    (* Zero the inode table. *)
    let* () =
      let rec zero i res =
        match res with
        | Error _ as e -> e
        | Ok () ->
          if i >= t.itable_blocks then Ok ()
          else
            zero (i + 1) (zero_block t (t.itable_start + i))
      in
      zero 0 (Ok ())
    in
    (* Root directory. *)
    let root =
      {
        used = true;
        kind = Directory;
        size = 0;
        mode = 0o777;
        owner = "root";
        direct = Array.make ndirect 0;
        indirect = 0;
      }
    in
    let* () = write_inode t t.root_ino root in
    Ok t
  end

let mount ?cache ftl =
  let t = layout ?cache ftl in
  let* b = read_block t 0 in
  let stored_magic = Bytes.sub_string b.bytes b.off (String.length magic) in
  if not (String.equal stored_magic magic) then
    Error (Invalid "bad superblock magic")
  else if get_u32 b 8 <> t.total_blocks then
    Error (Invalid "superblock geometry mismatch")
  else Ok t

(* Public operations ------------------------------------------------------ *)

let create_node t ~user ~mode ~kind path =
  let* dir_ino, name = parent_of t path in
  let* dir = read_inode t dir_ino in
  if dir.kind <> Directory then Error (Not_a_directory path)
  else
    let* () = require dir ~user ~want:0o2 path in
    let* entries = read_dir_entries t dir in
    if List.mem_assoc name entries then Error (Exists path)
    else begin
      let* ino = alloc_inode t in
      let node =
        {
          used = true;
          kind;
          size = 0;
          mode;
          owner = user;
          direct = Array.make ndirect 0;
          indirect = 0;
        }
      in
      let* () = write_inode t ino node in
      write_dir_entries t dir_ino dir (entries @ [ (name, ino) ])
    end

let create t ~user ?(mode = 0o644) path = create_node t ~user ~mode ~kind:Regular path
let mkdir t ~user ?(mode = 0o755) path = create_node t ~user ~mode ~kind:Directory path

let free_file_blocks t node =
  let rec free_direct i res =
    match res with
    | Error _ as e -> e
    | Ok () ->
      if i >= ndirect then Ok ()
      else if node.direct.(i) = 0 then free_direct (i + 1) (Ok ())
      else begin
        let blk = node.direct.(i) in
        node.direct.(i) <- 0;
        free_direct (i + 1) (free_block t blk)
      end
  in
  let* () = free_direct 0 (Ok ()) in
  if node.indirect = 0 then Ok ()
  else begin
    let* ind = read_block t node.indirect in
    (* Copy the pointers out: each free writes the bitmap, which may run GC
       and end the view's lifetime. *)
    let ptrs = Array.init (ptrs_per_block t) (fun i -> get_u32 ind (4 * i)) in
    let rec free_ind i res =
      match res with
      | Error _ as e -> e
      | Ok () ->
        if i >= ptrs_per_block t then Ok ()
        else if ptrs.(i) = 0 then free_ind (i + 1) (Ok ())
        else free_ind (i + 1) (free_block t ptrs.(i))
    in
    let* () = free_ind 0 (Ok ()) in
    let blk = node.indirect in
    node.indirect <- 0;
    free_block t blk
  end

let unlink t ~user path =
  let* dir_ino, name = parent_of t path in
  let* dir = read_inode t dir_ino in
  let* () = require dir ~user ~want:0o2 path in
  let* entries = read_dir_entries t dir in
  match List.assoc_opt name entries with
  | None -> Error (Not_found_e path)
  | Some ino ->
    let* node = read_inode t ino in
    let* () =
      if node.kind = Directory then begin
        let* children = read_dir_entries t node in
        if children <> [] then Error (Invalid "directory not empty") else Ok ()
      end
      else Ok ()
    in
    let* () = free_file_blocks t node in
    node.used <- false;
    node.size <- 0;
    let* () = write_inode t ino node in
    write_dir_entries t dir_ino dir (List.remove_assoc name entries)

let stat t path =
  let* ino = lookup t path in
  let* node = read_inode t ino in
  Ok { ino; kind = node.kind; size = node.size; owner = node.owner; mode = node.mode }

let exists t path = Result.is_ok (lookup t path)

let readdir t ~user path =
  let* ino = lookup t path in
  let* node = read_inode t ino in
  if node.kind <> Directory then Error (Not_a_directory path)
  else
    let* () = require node ~user ~want:0o4 path in
    let* entries = read_dir_entries t node in
    Ok (List.map fst entries)

let read t ~user path ~off ~len =
  if off < 0 || len < 0 then Error (Invalid "negative offset or length")
  else
    let* ino = lookup t path in
    let* node = read_inode t ino in
    if node.kind = Directory then Error (Is_a_directory path)
    else
      let* () = require node ~user ~want:0o4 path in
      read_inode_data t node ~off ~len

let write t ~user path ~off data =
  if off < 0 then Error (Invalid "negative offset")
  else
    let* ino = lookup t path in
    let* node = read_inode t ino in
    if node.kind = Directory then Error (Is_a_directory path)
    else
      let* () = require node ~user ~want:0o2 path in
      write_inode_data t ino node ~off data

let file_size t path =
  let* s = stat t path in
  Ok s.size

let truncate t ~user path ~len =
  if len < 0 then Error (Invalid "negative length")
  else
    let* ino = lookup t path in
    let* node = read_inode t ino in
    if node.kind = Directory then Error (Is_a_directory path)
    else
      let* () = require node ~user ~want:0o2 path in
      if len >= node.size then begin
        node.size <- len;
        write_inode t ino node
      end
      else begin
        let keep_blocks = (len + t.block_size - 1) / t.block_size in
        let* () = free_blocks_beyond t node ~keep_blocks in
        (* Zero the cut-off tail of the last kept block, so a later
           extension reads zeroes there, not the old bytes. *)
        let tail = len mod t.block_size in
        let* () =
          if tail = 0 then Ok ()
          else
            let* last = bmap t node (len / t.block_size) ~grow:false in
            if last = 0 then Ok ()
            else
              modify_block t last (fun buf o ->
                  Bytes.fill buf (o + tail) (t.block_size - tail) '\000')
        in
        node.size <- len;
        write_inode t ino node
      end

let rename t ~user old_path new_path =
  if String.equal old_path new_path then Ok ()
  else
    let* old_dir_ino, old_name = parent_of t old_path in
    let* new_dir_ino, new_name = parent_of t new_path in
    let* old_dir = read_inode t old_dir_ino in
    let* () = require old_dir ~user ~want:0o2 old_path in
    let* old_entries = read_dir_entries t old_dir in
    match List.assoc_opt old_name old_entries with
    | None -> Error (Not_found_e old_path)
    | Some ino ->
      let* new_dir = read_inode t new_dir_ino in
      let* () = require new_dir ~user ~want:0o2 new_path in
      let* new_entries = read_dir_entries t new_dir in
      (* POSIX: silently replace an existing regular file at the target. *)
      let* () =
        match List.assoc_opt new_name new_entries with
        | None -> Ok ()
        | Some target_ino ->
          let* target = read_inode t target_ino in
          if target.kind = Directory then Error (Is_a_directory new_path)
          else begin
            let* () = free_file_blocks t target in
            target.used <- false;
            target.size <- 0;
            write_inode t target_ino target
          end
      in
      if old_dir_ino = new_dir_ino then begin
        (* Same directory: one entry-list rewrite keeps it atomic. *)
        let entries =
          (new_name, ino)
          :: List.filter
               (fun (n, _) -> n <> old_name && n <> new_name)
               old_entries
        in
        write_dir_entries t old_dir_ino old_dir entries
      end
      else begin
        let* () =
          write_dir_entries t new_dir_ino new_dir
            ((new_name, ino) :: List.remove_assoc new_name new_entries)
        in
        (* Re-read the source directory: the target rewrite may have moved
           shared state (different inodes, so safe, but re-read anyway for
           clarity). *)
        let* old_dir = read_inode t old_dir_ino in
        let* old_entries = read_dir_entries t old_dir in
        write_dir_entries t old_dir_ino old_dir
          (List.remove_assoc old_name old_entries)
      end

let chmod t ~user path ~mode =
  let* ino = lookup t path in
  let* node = read_inode t ino in
  if not (String.equal user "root") && not (String.equal user node.owner) then
    Error (Permission path)
  else begin
    node.mode <- mode land 0o777;
    write_inode t ino node
  end

let chown t ~user path ~owner =
  let* ino = lookup t path in
  let* node = read_inode t ino in
  if not (String.equal user "root") then Error (Permission path)
  else begin
    node.owner <- owner;
    write_inode t ino node
  end

let free_blocks = count_free_blocks

(* Consistency checking ---------------------------------------------------- *)

type fsck_report = {
  files : int;
  directories : int;
  used_blocks : int;
  leaked_blocks : int;
  shared_blocks : int;
  unmarked_blocks : int;
  orphan_inodes : int;
}

let fsck t =
  (* Pass 1: walk the tree from the root, collecting reachable inodes and
     block references. *)
  let ref_count = Hashtbl.create 256 in
  let reachable_inodes = Hashtbl.create 64 in
  let files = ref 0 and directories = ref 0 in
  let note_block blk =
    if blk <> 0 then
      Hashtbl.replace ref_count blk
        (1 + Option.value (Hashtbl.find_opt ref_count blk) ~default:0)
  in
  let note_inode_blocks node =
    Array.iter note_block node.direct;
    if node.indirect <> 0 then begin
      note_block node.indirect;
      match read_block t node.indirect with
      | Error _ -> ()
      | Ok ind ->
        for i = 0 to ptrs_per_block t - 1 do
          note_block (get_u32 ind (4 * i))
        done
    end
  in
  let rec walk ino =
    if not (Hashtbl.mem reachable_inodes ino) then begin
      Hashtbl.replace reachable_inodes ino ();
      match read_inode t ino with
      | Error _ -> Ok ()
      | Ok node ->
        note_inode_blocks node;
        (match node.kind with
        | Regular ->
          incr files;
          Ok ()
        | Directory ->
          incr directories;
          let* entries = read_dir_entries t node in
          List.fold_left
            (fun res (_, child) ->
              match res with Error _ as e -> e | Ok () -> walk child)
            (Ok ()) entries)
    end
    else Ok ()
  in
  let* () = walk t.root_ino in
  (* Pass 2: cross-check the bitmap. *)
  let leaked = ref 0 and unmarked = ref 0 in
  let* () =
    let rec scan bi res =
      match res with
      | Error _ as e -> e
      | Ok () ->
        if bi >= t.bitmap_blocks then Ok ()
        else
          let* b = read_block t (t.bitmap_start + bi) in
          let base = bi * bits_per_block t in
          for i = 0 to bits_per_block t - 1 do
            let blk = base + i in
            if blk >= t.data_start && blk < t.total_blocks then begin
              let marked = bit_get b i in
              let referenced = Hashtbl.mem ref_count blk in
              if marked && not referenced then incr leaked;
              if referenced && not marked then incr unmarked
            end
          done;
          scan (bi + 1) (Ok ())
    in
    scan 0 (Ok ())
  in
  (* Pass 3: multiply-referenced blocks and orphan inodes. *)
  let shared =
    Detmap.fold_sorted
      (fun _ n acc -> if n > 1 then acc + 1 else acc)
      ref_count 0
  in
  let orphans = ref 0 in
  let* () =
    let rec scan ino res =
      match res with
      | Error _ as e -> e
      | Ok () ->
        if ino >= t.ninodes then Ok ()
        else
          let* node = read_inode t ino in
          if node.used && not (Hashtbl.mem reachable_inodes ino) then
            incr orphans;
          scan (ino + 1) (Ok ())
    in
    scan 0 (Ok ())
  in
  Ok
    {
      files = !files;
      directories = !directories;
      used_blocks = Hashtbl.length ref_count;
      leaked_blocks = !leaked;
      shared_blocks = shared;
      unmarked_blocks = !unmarked;
      orphan_inodes = !orphans;
    }

let pp_fsck_report ppf r =
  Format.fprintf ppf
    "files=%d dirs=%d used=%d leaked=%d shared=%d unmarked=%d orphans=%d"
    r.files r.directories r.used_blocks r.leaked_blocks r.shared_blocks
    r.unmarked_blocks r.orphan_inodes

(* Checkpointing: everything durable lives in the FTL/NAND image (saved by
   the device that owns the chip). The only in-memory state is which
   blocks the cache holds — and it must be saved, because cache hits skip
   NAND reads, and both the NAND op counters and the per-page
   fault-occurrence streams are observable; a resumed run with a cold
   cache would diverge. The cached bytes are the FTL's pages, so only the
   block ids travel. *)
module Snapshot = Lastcpu_sim.Snapshot

let save w t =
  Snapshot.W.option w
    (fun w cached ->
      let ids = ref [] in
      for b = Bytes.length cached - 1 downto 0 do
        if Bytes.get cached b <> '\000' then ids := b :: !ids
      done;
      Snapshot.W.list w (fun w b -> Snapshot.W.varint w b) !ids)
    t.cached

let restore r t =
  match (Snapshot.R.bool r, t.cached) with
  | false, None -> t.alloc_hint <- t.data_start
  | true, Some cached ->
    let ids = Snapshot.R.list r Snapshot.R.varint in
    ignore
      (List.fold_left
         (fun prev b ->
           if b <= prev || b >= t.total_blocks then
             raise
               (Snapshot.R.Corrupt
                  "fs cached block out of range or out of order");
           b)
         (-1) ids);
    Bytes.fill cached 0 t.total_blocks '\000';
    List.iter (fun b -> Bytes.set cached b '\001') ids;
    t.alloc_hint <- t.data_start
  | true, None | false, Some _ ->
    invalid_arg "Fs.restore: cache presence differs from checkpoint"
