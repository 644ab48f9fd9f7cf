/* CRC-32 (IEEE 802.3, reflected 0xEDB88320), slice-by-8: the tree's one
   CRC-32, bit-identical to the OCaml oracle Wire.crc32_reference. Wire and
   Snapshot call it; Snapshot bounds-checks every range passed in, and
   extends a file CRC over a section with crc32_combine. */

#include <stdint.h>
#include <caml/mlvalues.h>

static uint32_t crc_tab[8][256];

/* x2n_tab[k] = x^(2^k) modulo the CRC polynomial, for crc32_combine. */
static uint32_t x2n_tab[32];

/* a * b modulo the CRC polynomial, in the reflected bit order. */
static uint32_t multmodp(uint32_t a, uint32_t b)
{
  uint32_t m = (uint32_t)1 << 31, p = 0;
  for (;;) {
    if (a & m) {
      p ^= b;
      if ((a & (m - 1)) == 0)
        break;
    }
    m >>= 1;
    b = (b & 1) ? (b >> 1) ^ 0xEDB88320u : b >> 1;
  }
  return p;
}

/* Filled when the program (or the stub library) is loaded: before any
   OCaml code runs, so no domain ever reads a half-written table. */
__attribute__((constructor)) static void crc_init(void)
{
  int n, k;
  for (n = 0; n < 256; n++) {
    uint32_t c = (uint32_t)n;
    for (k = 0; k < 8; k++)
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    crc_tab[0][n] = c;
  }
  for (k = 1; k < 8; k++)
    for (n = 0; n < 256; n++)
      crc_tab[k][n] = crc_tab[0][crc_tab[k - 1][n] & 0xff]
                    ^ (crc_tab[k - 1][n] >> 8);
  x2n_tab[0] = (uint32_t)1 << 30; /* x^1 */
  for (k = 1; k < 32; k++)
    x2n_tab[k] = multmodp(x2n_tab[k - 1], x2n_tab[k - 1]);
}

/* crc -> string -> pos -> len -> int, in [0, 2^32); the range unchecked */
CAMLprim value lastcpu_crc32_update(value vcrc, value vs, value vpos,
                                    value vlen)
{
  const uint8_t *p = (const uint8_t *)String_val(vs) + Long_val(vpos);
  long len = Long_val(vlen);
  uint32_t c = (uint32_t)Long_val(vcrc) ^ 0xFFFFFFFFu;
  while (len >= 8) {
    uint32_t lo = (uint32_t)p[0] | ((uint32_t)p[1] << 8)
                | ((uint32_t)p[2] << 16) | ((uint32_t)p[3] << 24);
    uint32_t hi = (uint32_t)p[4] | ((uint32_t)p[5] << 8)
                | ((uint32_t)p[6] << 16) | ((uint32_t)p[7] << 24);
    c ^= lo;
    c = crc_tab[7][c & 0xff] ^ crc_tab[6][(c >> 8) & 0xff]
      ^ crc_tab[5][(c >> 16) & 0xff] ^ crc_tab[4][c >> 24]
      ^ crc_tab[3][hi & 0xff] ^ crc_tab[2][(hi >> 8) & 0xff]
      ^ crc_tab[1][(hi >> 16) & 0xff] ^ crc_tab[0][hi >> 24];
    p += 8;
    len -= 8;
  }
  while (len-- > 0)
    c = crc_tab[0][(c ^ *p++) & 0xff] ^ (c >> 8);
  return Val_long((long)(c ^ 0xFFFFFFFFu));
}

/* string -> int: the CRC-32 of the whole string. */
CAMLprim value lastcpu_crc32(value vs)
{
  return lastcpu_crc32_update(Val_long(0), vs, Val_long(0),
                              Val_long(caml_string_length(vs)));
}

/* crc1 -> crc2 -> len2 -> int: the CRC-32 of A ^ B from crc1 = CRC(A),
   crc2 = CRC(B) and len2 = |B| >= 0, without B's bytes (zlib's
   crc32_combine): shift crc1 by len2 zero bytes, i.e. multiply it by
   x^(8 * len2) mod P, then add crc2. */
CAMLprim value lastcpu_crc32_combine(value vcrc1, value vcrc2, value vlen2)
{
  unsigned long n = (unsigned long)Long_val(vlen2);
  uint32_t p = (uint32_t)1 << 31; /* x^0 */
  int k = 3;                      /* x^(2^3) = x^8: one byte */
  while (n) {
    if (n & 1)
      p = multmodp(x2n_tab[k & 31], p);
    n >>= 1;
    k++;
  }
  return Val_long((long)(multmodp(p, (uint32_t)Long_val(vcrc1))
                         ^ (uint32_t)Long_val(vcrc2)));
}
