type entry = { time : int64; actor : string; kind : string; detail : string }

type t = {
  mutable entries : entry list;  (* newest first *)
  mutable length : int;
}

let create () = { entries = []; length = 0 }

let append t ~time ~actor ~kind detail =
  t.entries <- { time; actor; kind; detail } :: t.entries;
  t.length <- t.length + 1

let length t = t.length
let entries t = List.rev t.entries
let find_all t ~kind = List.filter (fun e -> e.kind = kind) (entries t)

let pp_entry ppf e =
  Format.fprintf ppf "[%8Ld ns] %-14s %-22s %s" e.time e.actor e.kind e.detail

let pp ppf t =
  List.iter (fun e -> Format.fprintf ppf "%a@." pp_entry e) (entries t)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json_lines t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf
           "{\"time_ns\":%Ld,\"actor\":\"%s\",\"kind\":\"%s\",\"detail\":\"%s\"}\n"
           e.time (json_escape e.actor) (json_escape e.kind)
           (json_escape e.detail)))
    (entries t);
  Buffer.contents buf
