(* Tests for the bus protocol: wire primitives, tokens, codec round-trips. *)

module Types = Lastcpu_proto.Types
module Token = Lastcpu_proto.Token
module Message = Lastcpu_proto.Message
module Codec = Lastcpu_proto.Codec
module Wire = Lastcpu_proto.Wire
module Slice = Lastcpu_proto.Slice
module Snapshot = Lastcpu_sim.Snapshot

(* --- Wire primitives ---------------------------------------------------- *)

let test_wire_roundtrip_scalars () =
  let w = Wire.Writer.create () in
  Wire.Writer.byte w 0xAB;
  Wire.Writer.varint w 0;
  Wire.Writer.varint w 127;
  Wire.Writer.varint w 128;
  Wire.Writer.varint w 1_000_000;
  Wire.Writer.int64 w (-1L);
  Wire.Writer.int64 w 0x0123456789ABCDEFL;
  Wire.Writer.string w "hello";
  Wire.Writer.string w "";
  Wire.Writer.bool w true;
  Wire.Writer.bool w false;
  let r = Wire.Reader.of_string (Wire.Writer.contents w) in
  Alcotest.(check int) "byte" 0xAB (Wire.Reader.byte r);
  Alcotest.(check int) "v0" 0 (Wire.Reader.varint r);
  Alcotest.(check int) "v127" 127 (Wire.Reader.varint r);
  Alcotest.(check int) "v128" 128 (Wire.Reader.varint r);
  Alcotest.(check int) "v1M" 1_000_000 (Wire.Reader.varint r);
  Alcotest.(check int64) "i64 -1" (-1L) (Wire.Reader.int64 r);
  Alcotest.(check int64) "i64 pattern" 0x0123456789ABCDEFL (Wire.Reader.int64 r);
  Alcotest.(check string) "string" "hello" (Wire.Reader.string r);
  Alcotest.(check string) "empty string" "" (Wire.Reader.string r);
  Alcotest.(check bool) "true" true (Wire.Reader.bool r);
  Alcotest.(check bool) "false" false (Wire.Reader.bool r);
  Alcotest.(check bool) "at end" true (Wire.Reader.at_end r)

let test_wire_truncation_raises () =
  let w = Wire.Writer.create () in
  Wire.Writer.string w "truncate-me";
  let full = Wire.Writer.contents w in
  let cut = String.sub full 0 (String.length full - 3) in
  let r = Wire.Reader.of_string cut in
  match Wire.Reader.string r with
  | _ -> Alcotest.fail "truncated string decoded"
  | exception Wire.Malformed _ -> ()

let test_wire_list_option () =
  let w = Wire.Writer.create () in
  Wire.Writer.list w Wire.Writer.varint [ 1; 2; 3 ];
  Wire.Writer.option w Wire.Writer.string (Some "x");
  Wire.Writer.option w Wire.Writer.string None;
  let r = Wire.Reader.of_string (Wire.Writer.contents w) in
  Alcotest.(check (list int)) "list" [ 1; 2; 3 ] (Wire.Reader.list r Wire.Reader.varint);
  Alcotest.(check (option string)) "some" (Some "x") (Wire.Reader.option r Wire.Reader.string);
  Alcotest.(check (option string)) "none" None (Wire.Reader.option r Wire.Reader.string)

(* --- Types --------------------------------------------------------------- *)

let test_perm_subsumes () =
  Alcotest.(check bool) "rw covers r" true
    (Types.perm_subsumes Types.perm_rw Types.perm_r);
  Alcotest.(check bool) "r does not cover rw" false
    (Types.perm_subsumes Types.perm_r Types.perm_rw);
  Alcotest.(check bool) "anything covers none" true
    (Types.perm_subsumes Types.perm_none Types.perm_none);
  Alcotest.(check bool) "rwx covers all" true
    (Types.perm_subsumes Types.perm_rwx Types.perm_rw)

let test_service_kind_strings () =
  List.iter
    (fun k ->
      Alcotest.(check (option string))
        "roundtrip"
        (Some (Types.service_kind_to_string k))
        (Option.map Types.service_kind_to_string
           (Types.service_kind_of_string (Types.service_kind_to_string k))))
    Types.all_service_kinds

(* --- Tokens ---------------------------------------------------------------- *)

let mk_token ?(key = 0x1234L) () =
  Token.mint ~key ~issuer:1 ~subject:2 ~pasid:7 ~resource:"dram"
    ~base:0x1000L ~length:4096L ~perm:Types.perm_rw ~nonce:99L ()

let test_token_verify () =
  let t = mk_token () in
  Alcotest.(check bool) "verifies" true (Token.verify ~key:0x1234L t);
  Alcotest.(check bool) "wrong key" false (Token.verify ~key:0x1235L t)

let test_token_tamper_fields () =
  let t = mk_token () in
  let check name t' =
    Alcotest.(check bool) name false (Token.verify ~key:0x1234L t')
  in
  check "issuer" { t with Token.issuer = 3 };
  check "subject" { t with Token.subject = 3 };
  check "pasid" { t with Token.pasid = 8 };
  check "resource" { t with Token.resource = "dram2" };
  check "base" { t with Token.base = 0x2000L };
  check "length" { t with Token.length = 8192L };
  check "perm" { t with Token.perm = Types.perm_rwx };
  check "nonce" { t with Token.nonce = 100L };
  check "mac" { t with Token.mac = Int64.add t.Token.mac 1L }

(* --- Codec ------------------------------------------------------------------- *)

let sample_service = { Message.kind = Types.File_service; name = "ssd0.fs"; version = 3 }

let sample_payloads : Message.payload list =
  [
    Message.Device_alive { services = [ sample_service ] };
    Message.Device_alive { services = [] };
    Message.Heartbeat;
    Message.Discover_request { kind = Types.Memory_service; query = "dram" };
    Message.Discover_response { provider = 4; service = sample_service; query = "/f" };
    Message.Open_service
      {
        service = sample_service;
        pasid = 12;
        auth = Some (mk_token ());
        params = [ ("user", "alice"); ("path", "/kv/data.log") ];
      };
    Message.Open_response
      { accepted = true; connection = 9; shm_bytes = 65536L; error = None };
    Message.Open_response
      {
        accepted = false;
        connection = 0;
        shm_bytes = 0L;
        error = Some Types.E_access_denied;
      };
    Message.Close_service { connection = 5 };
    Message.Alloc_request
      { pasid = 1; va = 0x4000_0000L; bytes = 16384L; perm = Types.perm_rw };
    Message.Alloc_response
      {
        ok = true;
        va = 0x4000_0000L;
        bytes = 16384L;
        grant = Some (mk_token ());
        error = None;
      };
    Message.Map_directive
      {
        device = 3;
        pasid = 1;
        va = 0x4000_0000L;
        pa = 0x1000_0000L;
        bytes = 16384L;
        perm = Types.perm_rw;
        auth = mk_token ();
      };
    Message.Grant_request
      {
        to_device = 2;
        pasid = 1;
        va = 0x4000_0000L;
        bytes = 16384L;
        perm = Types.perm_r;
        auth = mk_token ();
      };
    Message.Map_complete { pasid = 1; va = 0x4000_0000L; ok = true };
    Message.Free_request { pasid = 1; va = 0x4000_0000L; bytes = 16384L };
    Message.Unmap_directive
      {
        device = 3;
        pasid = 1;
        va = 0x4000_0000L;
        bytes = 16384L;
        auth = mk_token ();
      };
    Message.Doorbell { queue = 77 };
    Message.Fault_notify { pasid = 2; va = 0xDEADL; detail = "oops" };
    Message.Resource_failed { resource = "file:/kv/data.log" };
    Message.Device_failed { device = 6 };
    Message.Reset_device;
    Message.Reset_resource { resource = "dram" };
    Message.Load_image { image = "kvs.bin"; bytes = 1048576L };
    Message.Auth_request { user = "alice"; credential = "s3cret" };
    Message.Auth_response { ok = true; session = Some (mk_token ()) };
    Message.Auth_response { ok = false; session = None };
    Message.Error_msg { code = Types.E_no_memory; detail = "pool exhausted" };
    Message.App_message { tag = "vq-attach"; body = "\x00\x01\x02binary" };
  ]

let test_codec_roundtrip_all () =
  List.iteri
    (fun i payload ->
      let msg =
        Message.make ~src:(i mod 5)
          ~dst:(match i mod 3 with 0 -> Types.Device 9 | 1 -> Types.Bus | _ -> Types.Broadcast)
          ~corr:(i * 1000) payload
      in
      let decoded = Codec.decode (Codec.encode msg) in
      Alcotest.(check string)
        (Printf.sprintf "payload %d (%s)" i (Message.payload_tag payload))
        (Format.asprintf "%a" Message.pp msg)
        (Format.asprintf "%a" Message.pp decoded);
      Alcotest.(check bool)
        (Printf.sprintf "structural equality %d" i)
        true (msg = decoded))
    sample_payloads

let test_codec_rejects_garbage () =
  Alcotest.check_raises "bad tag" (Wire.Malformed "bad payload tag 200") (fun () ->
      (* src=0, dst tag=1 (Bus), corr=0, payload tag=200 *)
      ignore (Codec.decode "\x00\x01\x00\xc8"));
  (match Codec.decode "" with
  | exception Wire.Malformed _ -> ()
  | _ -> Alcotest.fail "empty frame accepted")

let test_codec_rejects_trailing () =
  let msg = Message.make ~src:0 ~dst:Types.Bus ~corr:0 Message.Heartbeat in
  let encoded = Codec.encode msg ^ "\x00" in
  match Codec.decode encoded with
  | exception Wire.Malformed _ -> ()
  | _ -> Alcotest.fail "trailing bytes accepted"

let test_codec_deadline_roundtrip () =
  let with_deadline =
    Message.make ~src:1 ~dst:(Types.Device 2) ~corr:7
      ~deadline_ns:123_456_789L
      (Message.Alloc_request
         { pasid = 1; va = 0x4000_0000L; bytes = 4096L; perm = Types.perm_rw })
  in
  let decoded = Codec.decode (Codec.encode with_deadline) in
  Alcotest.(check bool) "deadline survives" true (with_deadline = decoded);
  Alcotest.(check bool) "deadline present" true
    (decoded.Message.deadline_ns = Some 123_456_789L);
  let without =
    Message.make ~src:1 ~dst:(Types.Device 2) ~corr:7 Message.Heartbeat
  in
  Alcotest.(check bool) "no deadline by default" true
    ((Codec.decode (Codec.encode without)).Message.deadline_ns = None)

(* Frames from before the deadline trailer existed must still decode (as
   deadline-free): peers with older encodings stay interoperable. *)
(* A frame that ends at the payload, without the deadline trailer, is
   malformed on both decode surfaces. *)
let test_codec_rejects_legacy_frames () =
  let msg = Message.make ~src:3 ~dst:Types.Bus ~corr:9 Message.Heartbeat in
  let framed = Codec.encode msg in
  (* Strip the one-byte [None] trailer. *)
  let legacy = String.sub framed 0 (String.length framed - 1) in
  let reason =
    match Codec.decode legacy with
    | _ -> Alcotest.fail "trailer-less frame decoded"
    | exception Wire.Malformed reason -> reason
  in
  Alcotest.(check (result unit string))
    "decode_result: the same Malformed reason" (Error reason)
    (Result.map ignore (Codec.decode_result legacy))

(* Property: random fuzz of valid encodings with a flipped byte either decodes
   to something (fine) or raises Malformed — never crashes differently. *)
let codec_fuzz_prop =
  QCheck.Test.make ~name:"codec survives single-byte corruption" ~count:500
    QCheck.(pair (int_bound (List.length sample_payloads - 1)) (pair small_nat (int_bound 255)))
    (fun (pi, (pos, byte)) ->
      let payload = List.nth sample_payloads pi in
      let msg = Message.make ~src:1 ~dst:Types.Bus ~corr:42 payload in
      let encoded = Bytes.of_string (Codec.encode msg) in
      let pos = pos mod Bytes.length encoded in
      Bytes.set encoded pos (Char.chr byte);
      match Codec.decode (Bytes.to_string encoded) with
      | _ -> true
      | exception Wire.Malformed _ -> true)

let test_wire_size_positive () =
  List.iter
    (fun payload ->
      let msg = Message.make ~src:0 ~dst:Types.Bus ~corr:0 payload in
      Alcotest.(check bool) "positive" true (Message.wire_size msg > 0))
    sample_payloads

(* --- CRC-32 stub --------------------------------------------------------- *)

(* The C stub must be bit-identical to the original OCaml loop: WAL
   records, NAND page checksums and snapshot files feed golden digests, so
   a divergence would corrupt every pinned experiment. Where the CPU has
   carry-less multiplies, a range of 64 bytes or more is folded 16 bytes
   at a time and its tail and every shorter range take the table loop:
   lengths 0..300 at offsets 0..15, from zero and non-zero starting CRCs,
   cross the 64-byte threshold and probe every slice-by-8 and fold
   alignment, and every split of a range in two at 1..130 bytes must
   chain. Then a full NAND page and 1 MiB of pseudo-random bytes. *)
let test_crc32_stub_matches_reference () =
  let check s =
    Alcotest.(check int)
      (Printf.sprintf "crc32 of %d bytes" (String.length s))
      (Wire.crc32_reference s) (Wire.crc32 s)
  in
  check "";
  Alcotest.(check int) "IEEE 802.3 check value" 0xCBF43926
    (Wire.crc32 "123456789");
  let base = String.init 400 (fun i -> Char.chr ((i * 173 + 41) land 0xff)) in
  List.iter
    (fun prefix ->
      let start = Wire.crc32_reference prefix in
      for pos = 0 to 15 do
        for len = 0 to 300 do
          Alcotest.(check int)
            (Printf.sprintf "crc32_update from %#x at %d, %d bytes" start pos len)
            (Wire.crc32_reference (prefix ^ String.sub base pos len))
            (Snapshot.crc32_update start base pos len)
        done
      done)
    [ ""; "x"; "lastcpu"; String.make 70 '\xff' ];
  List.iter
    (fun total ->
      for cut = 1 to min 130 (total - 1) do
        Alcotest.(check int)
          (Printf.sprintf "%d bytes split at %d" total cut)
          (Wire.crc32_reference (String.sub base 0 total))
          (Snapshot.crc32_update
             (Snapshot.crc32_update 0 base 0 cut)
             base cut (total - cut))
      done)
    [ 63; 64; 65; 127; 128; 129; 130; 131; 200; 260 ];
  check (String.init 4096 (fun i -> Char.chr ((i * 131) land 0xff)));
  let rng = Random.State.make [| 16 |] in
  let mib = String.init (1 lsl 20) (fun _ -> Char.chr (Random.State.int rng 256)) in
  check mib;
  let a = String.sub mib 0 12_345 and b = String.sub mib 12_345 70_000 in
  Alcotest.(check int) "crc32_update chains"
    (Wire.crc32 (a ^ b))
    (Snapshot.crc32_update (Wire.crc32 a) b 0 (String.length b));
  let s = "hello, world" in
  Alcotest.(check int) "crc32_sub window" (Wire.crc32 (String.sub s 3 5))
    (Wire.crc32_sub s 3 5);
  Alcotest.check_raises "crc32_sub bounds"
    (Invalid_argument "Wire.crc32_sub") (fun () ->
      ignore (Wire.crc32_sub s 8 10));
  List.iter
    (fun (pos, len) ->
      Alcotest.check_raises
        (Printf.sprintf "crc32_update range %d, %d" pos len)
        (Invalid_argument "Snapshot.crc32_update") (fun () ->
          ignore (Snapshot.crc32_update 0 s pos len)))
    [ (-1, 1); (0, -1); (8, 10); (1, max_int) ]

(* The combined CRC of two pieces is the CRC of their concatenation, on
   the OCaml oracle: empty pieces and lengths that are not multiples of 8
   included. A snapshot's file CRC is extended this way over each body. *)
let crc32_combine_prop =
  QCheck.Test.make ~name:"crc32_combine joins two pieces" ~count:500
    QCheck.(pair (string_of_size Gen.(0 -- 100)) (string_of_size Gen.(0 -- 100)))
    (fun (a, b) ->
      Snapshot.crc32_combine (Wire.crc32_reference a) (Wire.crc32_reference b)
        (String.length b)
      = Wire.crc32_reference (a ^ b))

let test_crc32_combine_lengths () =
  let base = String.init 200 (fun i -> Char.chr ((i * 59 + 7) land 0xff)) in
  for la = 0 to 9 do
    for lb = 0 to 40 do
      let a = String.sub base 0 la and b = String.sub base la lb in
      Alcotest.(check int)
        (Printf.sprintf "combine %d + %d bytes" la lb)
        (Wire.crc32_reference (a ^ b))
        (Snapshot.crc32_combine (Wire.crc32_reference a)
           (Wire.crc32_reference b) lb)
    done
  done;
  let big = String.make 70_001 '\x5a' in
  Alcotest.(check int) "combine a 70,001-byte piece"
    (Wire.crc32_reference ("ab" ^ big))
    (Snapshot.crc32_combine (Wire.crc32 "ab") (Wire.crc32 big) 70_001)

let () =
  Alcotest.run "proto"
    [
      ( "wire",
        [
          Alcotest.test_case "scalar roundtrips" `Quick test_wire_roundtrip_scalars;
          Alcotest.test_case "truncation raises" `Quick test_wire_truncation_raises;
          Alcotest.test_case "list/option" `Quick test_wire_list_option;
        ] );
      ( "types",
        [
          Alcotest.test_case "perm subsumes" `Quick test_perm_subsumes;
          Alcotest.test_case "service kind strings" `Quick test_service_kind_strings;
        ] );
      ( "token",
        [
          Alcotest.test_case "verify" `Quick test_token_verify;
          Alcotest.test_case "tamper detection" `Quick test_token_tamper_fields;
        ] );
      ( "codec",
        [
          Alcotest.test_case "roundtrip all payloads" `Quick test_codec_roundtrip_all;
          Alcotest.test_case "rejects garbage" `Quick test_codec_rejects_garbage;
          Alcotest.test_case "rejects trailing bytes" `Quick test_codec_rejects_trailing;
          Alcotest.test_case "deadline roundtrip" `Quick test_codec_deadline_roundtrip;
          Alcotest.test_case "legacy frames" `Quick test_codec_rejects_legacy_frames;
          QCheck_alcotest.to_alcotest codec_fuzz_prop;
          Alcotest.test_case "wire size positive" `Quick test_wire_size_positive;
        ] );
      ( "crc32",
        [
          Alcotest.test_case "stub matches reference" `Quick
            test_crc32_stub_matches_reference;
          Alcotest.test_case "combine lengths" `Quick test_crc32_combine_lengths;
          QCheck_alcotest.to_alcotest crc32_combine_prop;
        ] );
    ]
