(** Write-ahead-log record format for the key-value store.

    Records are length-prefixed so that recovery can stop cleanly at a
    torn tail (crash mid-append), and carry a per-record CRC-32 so a
    record whose bytes were damaged in place is treated the same way:
    [u32 (body-length | 0x80000000) | u32 crc32(body) | body], where body
    = [op byte | key | value] in wire encoding. A length word without the
    top bit is not a record: replay stops there, as at a torn tail. *)

type record = Put of { key : string; value : string } | Del of { key : string }

val encode : record -> string
(** The full framed record (including the length prefix). *)

val decode_all : string -> record list * int
(** [decode_all data] parses consecutive records, returning them plus the
    byte offset where parsing stopped (end of data or start of a torn /
    corrupt tail — everything before it is durable). A record failing its
    CRC stops the parse exactly like a short final record. *)
