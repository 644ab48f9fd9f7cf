module Wire = Lastcpu_proto.Wire

type op =
  | Subscribe of string
  | Unsubscribe of string
  | Publish of { topic : string; payload : string; retain : bool }

type request = { corr : int; op : op }

type reply = Acked of int | Rejected of string

type frame =
  | Response of { corr : int; reply : reply }
  | Event of { topic : string; payload : string }

let encode_request { corr; op } =
  let w = Wire.Writer.create () in
  Wire.Writer.varint w corr;
  (match op with
  | Subscribe topic ->
    Wire.Writer.byte w 0;
    Wire.Writer.string w topic
  | Unsubscribe topic ->
    Wire.Writer.byte w 1;
    Wire.Writer.string w topic
  | Publish { topic; payload; retain } ->
    Wire.Writer.byte w 2;
    Wire.Writer.string w topic;
    Wire.Writer.string w payload;
    Wire.Writer.bool w retain);
  Wire.Writer.contents w

let decode_request =
  Wire.decode (fun r ->
      let corr = Wire.Reader.varint r in
      let op =
        match Wire.Reader.byte r with
        | 0 -> Subscribe (Wire.Reader.string r)
        | 1 -> Unsubscribe (Wire.Reader.string r)
        | 2 ->
          let topic = Wire.Reader.string r in
          let payload = Wire.Reader.string r in
          let retain = Wire.Reader.bool r in
          Publish { topic; payload; retain }
        | n -> raise (Wire.Malformed (Printf.sprintf "bad op %d" n))
      in
      { corr; op })

let encode_frame f =
  let w = Wire.Writer.create () in
  (match f with
  | Response { corr; reply } -> (
    Wire.Writer.byte w 0;
    Wire.Writer.varint w corr;
    match reply with
    | Acked n ->
      Wire.Writer.byte w 0;
      Wire.Writer.varint w n
    | Rejected m ->
      Wire.Writer.byte w 1;
      Wire.Writer.string w m)
  | Event { topic; payload } ->
    Wire.Writer.byte w 1;
    Wire.Writer.string w topic;
    Wire.Writer.string w payload);
  Wire.Writer.contents w

let decode_frame =
  Wire.decode (fun r ->
      match Wire.Reader.byte r with
      | 0 ->
        let corr = Wire.Reader.varint r in
        let reply =
          match Wire.Reader.byte r with
          | 0 -> Acked (Wire.Reader.varint r)
          | 1 -> Rejected (Wire.Reader.string r)
          | n -> raise (Wire.Malformed (Printf.sprintf "bad reply %d" n))
        in
        Response { corr; reply }
      | 1 ->
        let topic = Wire.Reader.string r in
        let payload = Wire.Reader.string r in
        Event { topic; payload }
      | n -> raise (Wire.Malformed (Printf.sprintf "bad frame %d" n)))

let topic_matches ~pattern topic =
  let n = String.length pattern in
  if n > 0 && pattern.[n - 1] = '*' then begin
    let prefix = String.sub pattern 0 (n - 1) in
    String.length topic >= String.length prefix
    && String.equal (String.sub topic 0 (String.length prefix)) prefix
  end
  else String.equal pattern topic
