module Types = Lastcpu_proto.Types
module Message = Lastcpu_proto.Message
module Token = Lastcpu_proto.Token
module Device = Lastcpu_device.Device
module Sysbus = Lastcpu_bus.Sysbus
module Engine = Lastcpu_sim.Engine
module Rng = Lastcpu_sim.Rng
module Snapshot = Lastcpu_sim.Snapshot
module Detmap = Lastcpu_sim.Detmap

type t = {
  dev : Device.t;
  signing_key : Token.key;
  rng : Rng.t;
  (* The "passwd file": user -> salted credential digest. *)
  passwd : (string, int64) Hashtbl.t;
  salt : int64;
  mutable attempts : int;
  mutable failures : int;
}

(* A toy digest (FNV over salt || credential); the point is the protocol
   shape, not cryptographic strength. *)
let digest ~salt credential =
  let h = ref (Int64.logxor 0xCBF29CE484222325L salt) in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001B3L)
    credential;
  !h

let add_user t ~user ~password =
  Hashtbl.replace t.passwd user (digest ~salt:t.salt password)

let create sysbus ~mem ?(users = []) () =
  let engine = Sysbus.engine sysbus in
  let dev = Device.create sysbus ~mem ~name:"authdev" () in
  let rng = Engine.fork_rng engine in
  let t =
    {
      dev;
      signing_key = Rng.int64 rng;
      rng;
      passwd = Hashtbl.create 8;
      salt = Rng.int64 rng;
      attempts = 0;
      failures = 0;
    }
  in
  List.iter (fun (user, password) -> add_user t ~user ~password) users;
  Device.add_service dev
    {
      desc = { Message.kind = Types.Auth_service; name = "authdev.login"; version = 1 };
      can_serve = (fun ~query:_ -> true);
      on_open =
        (fun ~client:_ ~pasid:_ ~auth:_ ~params:_ ->
          Ok { Device.connection = Device.fresh_connection dev; shm_bytes = 0L });
      on_close = (fun ~connection:_ -> ());
    };
  Device.set_app_handler dev (fun msg ->
      match msg.Message.payload with
      | Message.Auth_request { user; credential } ->
        t.attempts <- t.attempts + 1;
        let ok =
          match Hashtbl.find_opt t.passwd user with
          | Some stored -> Int64.equal stored (digest ~salt:t.salt credential)
          | None -> false
        in
        if ok then begin
          let session =
            Token.mint ~key:t.signing_key ~issuer:(Device.id dev)
              ~subject:msg.Message.src ~pasid:0 ~resource:("session:" ^ user)
              ~base:0L ~length:0L ~perm:Types.perm_r ~nonce:(Rng.int64 t.rng)
              ()
          in
          Device.reply dev ~to_:msg.Message.src ~corr:msg.Message.corr
            (Message.Auth_response { ok = true; session = Some session })
        end
        else begin
          t.failures <- t.failures + 1;
          Device.reply dev ~to_:msg.Message.src ~corr:msg.Message.corr
            (Message.Auth_response { ok = false; session = None })
        end
      | _ -> ());
  (* Checkpoint: attempt counters, the nonce stream position (so resumed
     runs mint bit-identical session tokens) and the passwd table (users
     can be added mid-run). [signing_key] and [salt] are drawn from the
     fork before any state restore, so the rebuild re-derives them. *)
  Engine.register_snapshot engine ~name:(Device.actor dev)
    ~save:(fun w ->
      Snapshot.W.varint w t.attempts;
      Snapshot.W.varint w t.failures;
      Snapshot.W.int64 w (Rng.state t.rng);
      Snapshot.W.list w
        (fun w (user, d) ->
          Snapshot.W.string w user;
          Snapshot.W.int64 w d)
        (Detmap.bindings t.passwd))
    ~restore:(fun r ->
      t.attempts <- Snapshot.R.varint r;
      t.failures <- Snapshot.R.varint r;
      Rng.set_state t.rng (Snapshot.R.int64 r);
      Hashtbl.reset t.passwd;
      List.iter
        (fun (user, d) -> Hashtbl.replace t.passwd user d)
        (Snapshot.R.list r (fun r ->
             let user = Snapshot.R.string r in
             let d = Snapshot.R.int64 r in
             (user, d))));
  Device.start dev;
  t

let id t = Device.id t.dev
let key t = t.signing_key
let auth_attempts t = t.attempts
let auth_failures t = t.failures
