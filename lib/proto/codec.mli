(** Encode/decode bus messages to their binary wire form.

    The codec exists so that "protocol support" (§2.2) is a real byte-level
    protocol with a conformance surface: property tests round-trip every
    message constructor, and decoding rejects malformed frames. *)

val encode : Message.t -> string
val decode : string -> Message.t
(** @raise Wire.Malformed on any framing or tag error. The optional
    [deadline_ns] travels as a trailer after the payload; a frame without
    the trailer is malformed. *)

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
