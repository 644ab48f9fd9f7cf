module Wire = Lastcpu_proto.Wire
module Slice = Lastcpu_proto.Slice

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

(* One byte layout, driven through whatever sink the call site needs: a
   growable buffer (string codecs), a slice cursor (encoding straight
   into a mapped virtqueue slot) or a byte counter (sizing the direct
   mapping before any bytes move). *)
module Emit (W : Wire.SINK) = struct
  let request w r =
    match r with
    | Create { path; mode } ->
      W.byte w 0;
      W.string w path;
      W.varint w mode
    | Unlink { path } ->
      W.byte w 1;
      W.string w path
    | Mkdir { path; mode } ->
      W.byte w 2;
      W.string w path;
      W.varint w mode
    | Read { path; off; len } ->
      W.byte w 3;
      W.string w path;
      W.varint w off;
      W.varint w len
    | Write { path; off; data } ->
      W.byte w 4;
      W.string w path;
      W.varint w off;
      W.string w data
    | Stat { path } ->
      W.byte w 5;
      W.string w path
    | Readdir { path } ->
      W.byte w 6;
      W.string w path
    | Truncate { path; len } ->
      W.byte w 7;
      W.string w path;
      W.varint w len
    | Fsync { path } ->
      W.byte w 8;
      W.string w path
    | Bopen { path; block_size } ->
      W.byte w 9;
      W.string w path;
      W.varint w block_size
    | Bread { handle; lba; count } ->
      W.byte w 10;
      W.varint w handle;
      W.varint w lba;
      W.varint w count
    | Bwrite { handle; lba; data } ->
      W.byte w 11;
      W.varint w handle;
      W.varint w lba;
      W.string w data
    | Bclose { handle } ->
      W.byte w 12;
      W.varint w handle
    | Rename { from_path; to_path } ->
      W.byte w 13;
      W.string w from_path;
      W.string w to_path

  let response w resp =
    match resp with
    | Ok_unit -> W.byte w 0
    | Ok_data d ->
      W.byte w 1;
      W.string w d
    | Ok_names names ->
      W.byte w 2;
      W.list w W.string names
    | Ok_stat { size; kind_dir; owner; mode } ->
      W.byte w 3;
      W.varint w size;
      W.bool w kind_dir;
      W.string w owner;
      W.varint w mode
    | Ok_handle h ->
      W.byte w 5;
      W.varint w h
    | Err m ->
      W.byte w 4;
      W.string w m
end

module Emit_buf = Emit (Wire.Writer)
module Emit_view = Emit (Wire.View_writer)
module Emit_size = Emit (Wire.Sizer)

let encode_request r =
  let w = Wire.Writer.create () in
  Emit_buf.request w r;
  Wire.Writer.contents w

let request_size r =
  let w = Wire.Sizer.create () in
  Emit_size.request w r;
  Wire.Sizer.size w

let encode_request_into r view ~pos =
  let w = Wire.View_writer.create ~pos view in
  Emit_view.request w r;
  Wire.View_writer.pos w - pos

let encode_response resp =
  let w = Wire.Writer.create () in
  Emit_buf.response w resp;
  Wire.Writer.contents w

let response_size resp =
  let w = Wire.Sizer.create () in
  Emit_size.response w resp;
  Wire.Sizer.size w

let encode_response_into resp view ~pos =
  let w = Wire.View_writer.create ~pos view in
  Emit_view.response w resp;
  Wire.View_writer.pos w - pos

(* The matching single-source decoders: a string cursor for the copying
   path, a slice cursor to parse straight out of mapped DRAM. *)
module Parse (R : Wire.SOURCE) = struct
  let request r =
    match R.byte r with
    | 0 ->
      let path = R.string r in
      let mode = R.varint r in
      Create { path; mode }
    | 1 -> Unlink { path = R.string r }
    | 2 ->
      let path = R.string r in
      let mode = R.varint r in
      Mkdir { path; mode }
    | 3 ->
      let path = R.string r in
      let off = R.varint r in
      let len = R.varint r in
      Read { path; off; len }
    | 4 ->
      let path = R.string r in
      let off = R.varint r in
      let data = R.string r in
      Write { path; off; data }
    | 5 -> Stat { path = R.string r }
    | 6 -> Readdir { path = R.string r }
    | 7 ->
      let path = R.string r in
      let len = R.varint r in
      Truncate { path; len }
    | 8 -> Fsync { path = R.string r }
    | 9 ->
      let path = R.string r in
      let block_size = R.varint r in
      Bopen { path; block_size }
    | 10 ->
      let handle = R.varint r in
      let lba = R.varint r in
      let count = R.varint r in
      Bread { handle; lba; count }
    | 11 ->
      let handle = R.varint r in
      let lba = R.varint r in
      let data = R.string r in
      Bwrite { handle; lba; data }
    | 12 -> Bclose { handle = R.varint r }
    | 13 ->
      let from_path = R.string r in
      let to_path = R.string r in
      Rename { from_path; to_path }
    | n -> raise (Wire.Malformed (Printf.sprintf "bad request tag %d" n))

  let response r =
    match R.byte r with
    | 0 -> Ok_unit
    | 1 -> Ok_data (R.string r)
    | 2 -> Ok_names (R.list r R.string)
    | 3 ->
      let size = R.varint r in
      let kind_dir = R.bool r in
      let owner = R.string r in
      let mode = R.varint r in
      Ok_stat { size; kind_dir; owner; mode }
    | 4 -> Err (R.string r)
    | 5 -> Ok_handle (R.varint r)
    | n -> raise (Wire.Malformed (Printf.sprintf "bad response tag %d" n))
end

module Parse_str = Parse (Wire.Reader)
module Parse_view = Parse (Wire.View_reader)

let decode_request = Wire.decode Parse_str.request

let decode_request_view ?pos ?len v =
  match Parse_view.request (Wire.View_reader.create ?pos ?len v) with
  | r -> Ok r
  | exception Wire.Malformed m -> Error m

let decode_response = Wire.decode Parse_str.response

let decode_response_view ?pos ?len v =
  match Parse_view.response (Wire.View_reader.create ?pos ?len v) with
  | r -> Ok r
  | exception Wire.Malformed m -> Error m
