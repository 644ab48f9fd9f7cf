module Wire = Lastcpu_proto.Wire

type job =
  | Checksum of { va : int64; len : int }
  | Word_count of { va : int64; len : int }
  | Upper of { src : int64; dst : int64; len : int }
  | Histogram of { va : int64; len : int; dst : int64 }

type outcome = Value of int64 | Written of int | Fault of string

let job_bytes = function
  | Checksum { len; _ } | Word_count { len; _ } -> len
  | Upper { len; _ } -> 2 * len
  | Histogram { len; _ } -> len + (256 * 8)

let encode_job j =
  let w = Wire.Writer.create () in
  (match j with
  | Checksum { va; len } ->
    Wire.Writer.byte w 0;
    Wire.Writer.int64 w va;
    Wire.Writer.varint w len
  | Word_count { va; len } ->
    Wire.Writer.byte w 1;
    Wire.Writer.int64 w va;
    Wire.Writer.varint w len
  | Upper { src; dst; len } ->
    Wire.Writer.byte w 2;
    Wire.Writer.int64 w src;
    Wire.Writer.int64 w dst;
    Wire.Writer.varint w len
  | Histogram { va; len; dst } ->
    Wire.Writer.byte w 3;
    Wire.Writer.int64 w va;
    Wire.Writer.varint w len;
    Wire.Writer.int64 w dst);
  Wire.Writer.contents w

let decode_job =
  Wire.decode (fun r ->
      match Wire.Reader.byte r with
      | 0 ->
        let va = Wire.Reader.int64 r in
        let len = Wire.Reader.varint r in
        Checksum { va; len }
      | 1 ->
        let va = Wire.Reader.int64 r in
        let len = Wire.Reader.varint r in
        Word_count { va; len }
      | 2 ->
        let src = Wire.Reader.int64 r in
        let dst = Wire.Reader.int64 r in
        let len = Wire.Reader.varint r in
        Upper { src; dst; len }
      | 3 ->
        let va = Wire.Reader.int64 r in
        let len = Wire.Reader.varint r in
        let dst = Wire.Reader.int64 r in
        Histogram { va; len; dst }
      | n -> raise (Wire.Malformed (Printf.sprintf "bad job tag %d" n)))

let encode_outcome o =
  let w = Wire.Writer.create () in
  (match o with
  | Value v ->
    Wire.Writer.byte w 0;
    Wire.Writer.int64 w v
  | Written n ->
    Wire.Writer.byte w 1;
    Wire.Writer.varint w n
  | Fault m ->
    Wire.Writer.byte w 2;
    Wire.Writer.string w m);
  Wire.Writer.contents w

let decode_outcome =
  Wire.decode (fun r ->
      match Wire.Reader.byte r with
      | 0 -> Value (Wire.Reader.int64 r)
      | 1 -> Written (Wire.Reader.varint r)
      | 2 -> Fault (Wire.Reader.string r)
      | n -> raise (Wire.Malformed (Printf.sprintf "bad outcome tag %d" n)))
