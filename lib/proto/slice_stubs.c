/* memcpy bridges between OCaml strings/bytes and Bigarray byte slices.
   The stdlib has no bytes<->bigarray blit; without these the zero-copy
   data plane would fall back to byte-at-a-time loops. Bounds are checked
   on the OCaml side (Slice). CRC-32 is in lib/sim/crc32_stubs.c. */

#include <string.h>
#include <caml/mlvalues.h>
#include <caml/bigarray.h>

/* (string|bytes) -> src_off -> bigarray -> dst_off -> len -> unit */
CAMLprim value lastcpu_blit_string_to_ba(value src, value src_off, value ba,
                                         value dst_off, value len)
{
  memcpy((char *)Caml_ba_data_val(ba) + Long_val(dst_off),
         Bytes_val(src) + Long_val(src_off), Long_val(len));
  return Val_unit;
}

/* bigarray -> src_off -> bytes -> dst_off -> len -> unit */
CAMLprim value lastcpu_blit_ba_to_bytes(value ba, value src_off, value dst,
                                        value dst_off, value len)
{
  memcpy(Bytes_val(dst) + Long_val(dst_off),
         (char *)Caml_ba_data_val(ba) + Long_val(src_off), Long_val(len));
  return Val_unit;
}
