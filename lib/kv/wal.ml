module Wire = Lastcpu_proto.Wire

type record = Put of { key : string; value : string } | Del of { key : string }

(* A string field: its varint length, then its bytes. *)
let field_size s =
  let rec varint n = if n < 0x80 then 1 else 1 + varint (n lsr 7) in
  varint (String.length s) + String.length s

let put_field b pos s =
  let pos = Wire.Writer.put_varint b pos (String.length s) in
  Bytes.blit_string s 0 b pos (String.length s);
  pos + String.length s

(* The record is built in one buffer of its exact size. Framing: u32
   length with the top bit marking "CRC follows", then the CRC-32 of the
   body, then the body. A word without the marker is not a record: replay
   stops there, as at a torn tail. *)
let encode r =
  let body =
    match r with
    | Put { key; value } -> 1 + field_size key + field_size value
    | Del { key } -> 1 + field_size key
  in
  let b = Bytes.create (8 + body) in
  (match r with
  | Put { key; value } ->
    Bytes.set b 8 '\000';
    ignore (put_field b (put_field b 9 key) value)
  | Del { key } ->
    Bytes.set b 8 '\001';
    ignore (put_field b 9 key));
  Bytes.set_int32_le b 0 (Int32.of_int (body lor 0x8000_0000));
  Bytes.set_int32_le b 4
    (Int32.of_int (Wire.crc32_sub (Bytes.unsafe_to_string b) 8 body));
  Bytes.unsafe_to_string b

(* The whole body must decode, to its last byte: a short or malformed
   body stops replay like a torn tail. *)
let decode_body body =
  let record r =
    let record =
      match Wire.Reader.byte r with
      | 0 ->
        let key = Wire.Reader.string r in
        let value = Wire.Reader.string r in
        Some (Put { key; value })
      | 1 -> Some (Del { key = Wire.Reader.string r })
      | _ -> None
    in
    if Wire.Reader.at_end r then record else None
  in
  Option.join (Result.to_option (Wire.decode record body))

let decode_all data =
  let total = String.length data in
  let u32_at pos =
    Char.code data.[pos]
    lor (Char.code data.[pos + 1] lsl 8)
    lor (Char.code data.[pos + 2] lsl 16)
    lor (Char.code data.[pos + 3] lsl 24)
  in
  let rec go pos acc =
    if pos + 4 > total then (List.rev acc, pos)
    else begin
      let word = u32_at pos in
      let len = word land 0x7fff_ffff in
      if word land 0x8000_0000 = 0 || len = 0 || pos + 8 + len > total then
        (List.rev acc, pos)
      else begin
        let body = String.sub data (pos + 8) len in
        (* A CRC mismatch means the record (or its tail) never fully hit
           flash: stop here, exactly like a short final record. *)
        if Wire.crc32 body <> u32_at (pos + 4) then (List.rev acc, pos)
        else
          match decode_body body with
          | None -> (List.rev acc, pos)
          | Some r -> go (pos + 8 + len) (r :: acc)
      end
    end
  in
  go 0 []
