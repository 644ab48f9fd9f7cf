module Wire = Lastcpu_proto.Wire

type op = Get of string | Put of string * string | Del of string | Scan of string

type request = { corr : int; op : op }

type reply =
  | Value of string option
  | Done
  | Deleted of bool
  | Pairs of (string * string) list
  | Failed of string

type response = { corr : int; reply : reply }

let encode_request { corr; op } =
  let w = Wire.Writer.create () in
  Wire.Writer.varint w corr;
  (match op with
  | Get key ->
    Wire.Writer.byte w 0;
    Wire.Writer.string w key
  | Put (key, value) ->
    Wire.Writer.byte w 1;
    Wire.Writer.string w key;
    Wire.Writer.string w value
  | Del key ->
    Wire.Writer.byte w 2;
    Wire.Writer.string w key
  | Scan prefix ->
    Wire.Writer.byte w 3;
    Wire.Writer.string w prefix);
  Wire.Writer.contents w

let decode_request =
  Wire.decode (fun r ->
      let corr = Wire.Reader.varint r in
      let op =
        match Wire.Reader.byte r with
        | 0 -> Get (Wire.Reader.string r)
        | 1 ->
          let key = Wire.Reader.string r in
          let value = Wire.Reader.string r in
          Put (key, value)
        | 2 -> Del (Wire.Reader.string r)
        | 3 -> Scan (Wire.Reader.string r)
        | n -> raise (Wire.Malformed (Printf.sprintf "bad op %d" n))
      in
      { corr; op })

let encode_response { corr; reply } =
  let w = Wire.Writer.create () in
  Wire.Writer.varint w corr;
  (match reply with
  | Value v ->
    Wire.Writer.byte w 0;
    Wire.Writer.option w Wire.Writer.string v
  | Done -> Wire.Writer.byte w 1
  | Deleted b ->
    Wire.Writer.byte w 2;
    Wire.Writer.bool w b
  | Pairs pairs ->
    Wire.Writer.byte w 3;
    Wire.Writer.list w
      (fun w (k, v) ->
        Wire.Writer.string w k;
        Wire.Writer.string w v)
      pairs
  | Failed m ->
    Wire.Writer.byte w 4;
    Wire.Writer.string w m);
  Wire.Writer.contents w

let decode_response =
  Wire.decode (fun r ->
      let corr = Wire.Reader.varint r in
      let reply =
        match Wire.Reader.byte r with
        | 0 -> Value (Wire.Reader.option r Wire.Reader.string)
        | 1 -> Done
        | 2 -> Deleted (Wire.Reader.bool r)
        | 3 ->
          Pairs
            (Wire.Reader.list r (fun r ->
                 let k = Wire.Reader.string r in
                 let v = Wire.Reader.string r in
                 (k, v)))
        | 4 -> Failed (Wire.Reader.string r)
        | n -> raise (Wire.Malformed (Printf.sprintf "bad result tag %d" n))
      in
      { corr; reply })
