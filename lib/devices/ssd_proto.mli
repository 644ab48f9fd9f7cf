(** Data-plane request/response protocol of the smart SSD's file service.

    Requests travel inside VIRTIO descriptor chains in shared memory: the
    client writes an encoded request into a device-readable buffer and
    supplies a device-writable buffer for the response (§2.1 VIRTIO). The
    encoding reuses the bus codec's wire primitives. *)

type request =
  | Create of { path : string; mode : int }
  | Unlink of { path : string }
  | Mkdir of { path : string; mode : int }
  | Read of { path : string; off : int; len : int }
  | Write of { path : string; off : int; data : string }
  | Stat of { path : string }
  | Readdir of { path : string }
  | Truncate of { path : string; len : int }
  | Fsync of { path : string }
  | Rename of { from_path : string; to_path : string }
      (** POSIX rename: atomically replaces a regular-file target *)
  (* Block-service operations (handle-based): a handle is a per-connection
     context naming a file used as a virtual block device — the device
     multiplexes and isolates these per queue (§2.1). *)
  | Bopen of { path : string; block_size : int }
  | Bread of { handle : int; lba : int; count : int }
  | Bwrite of { handle : int; lba : int; data : string }
  | Bclose of { handle : int }

type response =
  | Ok_unit
  | Ok_data of string
  | Ok_names of string list
  | Ok_stat of { size : int; kind_dir : bool; owner : string; mode : int }
  | Ok_handle of int
  | Err of string

val encode_request : request -> string
val decode_request : string -> (request, string) result
val encode_response : response -> string
val decode_response : string -> (response, string) result

(** Zero-copy variants over DRAM views (the same byte layout, emitted by
    the same single-source codec): size a message without materialising
    it, encode it straight into a mapped virtqueue slot, decode it
    straight out of one. *)

val request_size : request -> int
(** [String.length (encode_request r)], computed against a byte counter. *)

val encode_request_into : request -> Lastcpu_proto.Slice.t -> pos:int -> int
(** Encode into a caller-provided slice at [pos]; returns bytes written
    ([= request_size r]). @raise Lastcpu_proto.Wire.Malformed on overflow. *)

val decode_request_view :
  ?pos:int -> ?len:int -> Lastcpu_proto.Slice.t -> (request, string) result
(** Decode from a window of a slice without copying the frame first
    (string payloads are still materialised for the caller). *)

val response_size : response -> int
val encode_response_into : response -> Lastcpu_proto.Slice.t -> pos:int -> int

val decode_response_view :
  ?pos:int -> ?len:int -> Lastcpu_proto.Slice.t -> (response, string) result
