(** Inode file system over the FTL block device.

    This is the file service a smart SSD exposes (§2.1, §3): a small
    Unix-like FS with a superblock, block bitmap, inode table, directories,
    and per-file owner/permission checks (the paper's §4 access-control
    story: "access control to an individual file is implemented by the file
    system service, on the device that provides that service").

    Paths are absolute, '/'-separated. The FS is single-threaded (the SSD's
    embedded monitor serialises operations — §2.1 "software techniques such
    as time sharing"). *)

type t

type file_kind = Regular | Directory

type stat = {
  ino : int;
  kind : file_kind;
  size : int;
  owner : string;
  mode : int;  (** Unix-style 0oRWX bits for owner/other: 0o600 etc. *)
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

val error_to_string : error -> string

val format :
  ?cache:bool ->
  ?metrics:Lastcpu_sim.Metrics.t ->
  ?actor:string ->
  Lastcpu_flash.Ftl.t ->
  (t, error) result
(** Write a fresh file system (root directory owned by "root", mode 0o777).
    [cache] (default true) enables the device-DRAM write-through block
    cache: reads hit DRAM, writes always program NAND (§2.3's on-device
    cache hierarchy). *)

val mount : ?cache:bool -> Lastcpu_flash.Ftl.t -> (t, error) result
(** Attach to a previously formatted device; validates the superblock.
    Both constructors register block_reads/block_writes/cache_hits under
    an actor in a registry: [format]'s [actor] (default ["fs"]) in its
    [metrics] (default: a private registry); [mount]'s always ["fs"] in a
    private registry. *)

(** All operations take [~user] and enforce owner/mode. "root" bypasses
    permission checks. *)

val create : t -> user:string -> ?mode:int -> string -> (unit, error) result
val mkdir : t -> user:string -> ?mode:int -> string -> (unit, error) result
val unlink : t -> user:string -> string -> (unit, error) result
val stat : t -> string -> (stat, error) result
val exists : t -> string -> bool
val readdir : t -> user:string -> string -> (string list, error) result

val read : t -> user:string -> string -> off:int -> len:int -> (string, error) result
(** Short reads at EOF; reading past EOF returns [""]. *)

val write : t -> user:string -> string -> off:int -> string -> (unit, error) result
(** Extends the file as needed (holes read as zeroes). *)

val file_size : t -> string -> (int, error) result
val truncate : t -> user:string -> string -> len:int -> (unit, error) result
val rename : t -> user:string -> string -> string -> (unit, error) result
(** [rename t ~user old_path new_path]: POSIX semantics — if [new_path]
    exists and is a regular file it is atomically replaced (its blocks
    freed); renaming onto an existing directory or across a missing parent
    fails. Needs write permission on both parent directories. *)

val chmod : t -> user:string -> string -> mode:int -> (unit, error) result
val chown : t -> user:string -> string -> owner:string -> (unit, error) result

val free_blocks : t -> int

(** {1 Consistency checking} *)

type fsck_report = {
  files : int;
  directories : int;
  used_blocks : int;  (** data + indirect blocks reachable from inodes *)
  leaked_blocks : int;  (** marked used in the bitmap but unreachable *)
  shared_blocks : int;  (** referenced by more than one owner (corruption) *)
  unmarked_blocks : int;  (** reachable but free in the bitmap (corruption) *)
  orphan_inodes : int;  (** in-use inodes unreachable from the root *)
}

val fsck : t -> (fsck_report, error) result
(** Walk the tree from the root and cross-check against the block bitmap
    and inode table. A healthy file system has zero leaked, shared,
    unmarked and orphan counts (asserted by tests after every torture
    sequence). *)

val pp_fsck_report : Format.formatter -> fsck_report -> unit

val save : Lastcpu_sim.Snapshot.W.t -> t -> unit
(** Append which blocks the cache holds, as increasing block ids
    (checkpointing). Durable state is in the FTL image, saved by the
    chip's owner, and a cached block's bytes are its FTL page, so only
    the ids travel; they are saved because hits skip observable NAND
    reads. *)

val restore : Lastcpu_sim.Snapshot.R.t -> t -> unit
(** Overwrite the cached-block set with state written by {!save}, after
    the FTL underneath has been restored.
    @raise Invalid_argument if cache presence differs from the checkpoint.
    @raise Lastcpu_sim.Snapshot.R.Corrupt on malformed input, including a
    block id out of range or not strictly increasing. *)
