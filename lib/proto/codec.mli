(** Encode/decode bus messages to their binary wire form.

    The codec exists so that "protocol support" (§2.2) is a real byte-level
    protocol with a conformance surface: property tests round-trip every
    message constructor, and decoding rejects malformed frames. *)

val encode : Message.t -> string
val decode : string -> Message.t
(** @raise Wire.Malformed on any framing or tag error. The optional
    [deadline_ns] travels as a trailer after the payload; a frame without
    the trailer is malformed. *)

val encode_into : Message.t -> Slice.t -> pos:int -> int
(** Encode directly into a caller-provided slice (a DRAM view, a
    virtqueue slot) starting at [pos]; returns the bytes written, which
    equals {!encoded_size}. Byte-identical to {!encode}.
    @raise Wire.Malformed if the message does not fit. *)

val encoded_size : Message.t -> int
(** [encoded_size m] is [String.length (encode m)], computed by running
    the encoder against a byte counter — no buffer is allocated and no
    bytes are materialised. *)

val frame : string -> string
(** Append the 8-byte CRC-32 trailer to arbitrary body bytes. Lets the
    protocol fuzzer build checksum-valid frames around mutated bodies, so
    corruption reaches the decoder instead of dying at the CRC gate. *)

val encode_framed : Message.t -> string
(** [encode m] plus an 8-byte little-endian CRC-32 trailer over the
    encoded bytes. The unframed codec's byte layout is unchanged. *)

val decode_framed : string -> Message.t
(** Verify the CRC trailer, then [decode] the body.
    @raise Wire.Malformed on a checksum mismatch or any framing error. *)

val decode_result : string -> (Message.t, string) result
(** [decode] for untrusted bytes: a truncated frame, out-of-range tag or
    any other malformation is [Error reason], never an exception. Use this
    at every boundary where raw bytes from a device enter the bus. *)

val decode_framed_result : string -> (Message.t, string) result
(** [decode_framed] with the same never-raises contract as
    {!decode_result}; a CRC mismatch is [Error "CRC mismatch"]. *)
