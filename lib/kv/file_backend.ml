module Ssd_proto = Lastcpu_devices.Ssd_proto
module File_client = Lastcpu_devices.File_client

let chunk_bytes = 1024

type t = {
  client : File_client.t;
  path : string;
  mutable log_end : int;
}

let create client ~path k =
  let finish t = k (Ok t) in
  File_client.stat client path (fun res ->
      match res with
      | Ok (size, false) -> finish { client; path; log_end = size }
      | Ok (_, true) -> k (Error (path ^ " is a directory"))
      | Error _ ->
        File_client.create client path (fun res ->
            match res with
            | Error m -> k (Error ("create log: " ^ m))
            | Ok () -> finish { client; path; log_end = 0 }))

let append t data k =
  (* Reserve the offsets now so pipelined appends never interleave. *)
  let base = t.log_end in
  t.log_end <- t.log_end + String.length data;
  let total = String.length data in
  let rec write pos =
    if pos >= total then k (Ok ())
    else begin
      let chunk = min chunk_bytes (total - pos) in
      File_client.write t.client t.path ~off:(base + pos)
        (String.sub data pos chunk) (fun res ->
          match res with Error m -> k (Error m) | Ok () -> write (pos + chunk))
    end
  in
  write 0

let read_log t k =
  let buf = Buffer.create (max 16 t.log_end) in
  let rec read off =
    if off >= t.log_end then k (Ok (Buffer.contents buf))
    else
      File_client.read t.client t.path ~off ~len:chunk_bytes (fun res ->
          match res with
          | Error m -> k (Error m)
          | Ok "" -> k (Ok (Buffer.contents buf))
          | Ok data ->
            Buffer.add_string buf data;
            read (off + String.length data))
  in
  read 0

(* Crash-safe log replacement: write the snapshot to a sidecar, then
   rename it over the live log (the SSD's rename atomically replaces the
   target file). A crash before the rename leaves the old log intact. *)
let replace_log t data k =
  let sidecar = t.path ^ ".new" in
  let finish () =
    File_client.rename t.client sidecar t.path (fun res ->
        match res with
        | Error m -> k (Error ("rename: " ^ m))
        | Ok () ->
          t.log_end <- String.length data;
          k (Ok ()))
  in
  File_client.create t.client sidecar (fun res ->
      match res with
      | Error m when m <> "already exists: " ^ sidecar -> k (Error m)
      | Error _ | Ok () ->
        (* Truncate any stale sidecar from an earlier crashed compaction. *)
        File_client.request t.client
          (Ssd_proto.Truncate { path = sidecar; len = 0 })
          (fun _ ->
            let total = String.length data in
            let rec write pos =
              if pos >= total then finish ()
              else begin
                let chunk = min chunk_bytes (total - pos) in
                File_client.write t.client sidecar ~off:pos
                  (String.sub data pos chunk) (fun res ->
                    match res with
                    | Error m -> k (Error m)
                    | Ok () -> write (pos + chunk))
              end
            in
            write 0))

let reset_log t k =
  t.log_end <- 0;
  File_client.request t.client
    (Ssd_proto.Truncate { path = t.path; len = 0 })
    (function
      | Ssd_proto.Ok_unit -> k (Ok ())
      | Ssd_proto.Err m -> k (Error m)
      | _ -> k (Error "unexpected response"))

let backend t =
  {
    Store.append = (fun data k -> append t data k);
    Store.read_log = (fun k -> read_log t k);
    Store.reset_log = (fun k -> reset_log t k);
    Store.replace_log = (fun data k -> replace_log t data k);
  }

(* Checkpointing: only the end-of-log offset. A rebuilt backend learns its
   [log_end] by stat-ing a freshly formatted filesystem (zero), so the
   restore must bring back the offset matching the restored flash image. *)
let save w t = Lastcpu_sim.Snapshot.W.varint w t.log_end
let restore r t = t.log_end <- Lastcpu_sim.Snapshot.R.varint r
