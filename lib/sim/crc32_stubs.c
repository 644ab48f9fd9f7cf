/* CRC-32 (IEEE 802.3, reflected 0xEDB88320): the tree's one CRC-32,
   bit-identical to the OCaml oracle Wire.crc32_reference. Wire and
   Snapshot call it; Snapshot bounds-checks every range passed in, and
   extends a file CRC over a section with crc32_combine.

   Two kernels compute the same function. On x86 CPUs with PCLMULQDQ and
   SSE4.1, a range of at least 64 bytes is hashed 16 bytes at a time by
   folding four 128-bit lanes with carry-less multiplies and a Barrett
   reduction (Gopal et al., "Fast CRC Computation for Generic Polynomials
   Using PCLMULQDQ Instruction", Intel 2009; the constants are zlib's and
   Chromium's crc32_simd). Shorter ranges, the tail past the last 16-byte
   block, other architectures and CPUs without the instructions use the
   slice-by-8 table loop. The kernel is picked once, when the library is
   loaded; nothing chooses it later. */

#include <stdint.h>
#include <caml/mlvalues.h>

#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#define LASTCPU_CRC_CLMUL 1
#include <immintrin.h>

/* Set at load time when the carry-less-multiply kernel may run. */
static int use_clmul;
#endif

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
   OCaml code runs, so no domain ever reads a half-written table or sees
   the kernel choice change. */
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
#ifdef LASTCPU_CRC_CLMUL
  /* Constructors may run before libgcc's own CPU probe. */
  __builtin_cpu_init();
  use_clmul = __builtin_cpu_supports("pclmul")
           && __builtin_cpu_supports("sse4.1");
#endif
}

/* The slice-by-8 loop on the uncomplemented register c. */
static uint32_t crc_table(uint32_t c, const uint8_t *p, long len)
{
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
  return c;
}

#ifdef LASTCPU_CRC_CLMUL
/* The fold on the uncomplemented register c, over len >= 64 bytes, len a
   multiple of 16. Each k is x^n mod P, bit-reflected and shifted left one
   bit: k1 = x^(4*128+32) and k2 = x^(4*128-32) fold four lanes 512 bits
   forward, k3 = x^(128+32) and k4 = x^(128-32) fold one lane 128 bits,
   k5 = x^64 folds 96 bits to 64. The Barrett pair is x^64 / P and P
   itself, both reflected in 33 bits. */
__attribute__((target("pclmul,sse4.1")))
static uint32_t crc_clmul(uint32_t c, const uint8_t *p, long len)
{
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5k0 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);
  __m128i x0, x1, x2, x3, x4, x5, x6, x7, x8;

  x1 = _mm_loadu_si128((const __m128i *)(p + 0x00));
  x2 = _mm_loadu_si128((const __m128i *)(p + 0x10));
  x3 = _mm_loadu_si128((const __m128i *)(p + 0x20));
  x4 = _mm_loadu_si128((const __m128i *)(p + 0x30));
  x1 = _mm_xor_si128(x1, _mm_cvtsi32_si128((int)c));
  p += 64;
  len -= 64;

  /* Four lanes, 64 bytes a step. */
  x0 = k1k2;
  while (len >= 64) {
    x5 = _mm_clmulepi64_si128(x1, x0, 0x00);
    x6 = _mm_clmulepi64_si128(x2, x0, 0x00);
    x7 = _mm_clmulepi64_si128(x3, x0, 0x00);
    x8 = _mm_clmulepi64_si128(x4, x0, 0x00);
    x1 = _mm_clmulepi64_si128(x1, x0, 0x11);
    x2 = _mm_clmulepi64_si128(x2, x0, 0x11);
    x3 = _mm_clmulepi64_si128(x3, x0, 0x11);
    x4 = _mm_clmulepi64_si128(x4, x0, 0x11);
    x1 = _mm_xor_si128(_mm_xor_si128(x1, x5),
                       _mm_loadu_si128((const __m128i *)(p + 0x00)));
    x2 = _mm_xor_si128(_mm_xor_si128(x2, x6),
                       _mm_loadu_si128((const __m128i *)(p + 0x10)));
    x3 = _mm_xor_si128(_mm_xor_si128(x3, x7),
                       _mm_loadu_si128((const __m128i *)(p + 0x20)));
    x4 = _mm_xor_si128(_mm_xor_si128(x4, x8),
                       _mm_loadu_si128((const __m128i *)(p + 0x30)));
    p += 64;
    len -= 64;
  }

  /* Fold the four lanes into one. */
  x0 = k3k4;
  x5 = _mm_clmulepi64_si128(x1, x0, 0x00);
  x1 = _mm_clmulepi64_si128(x1, x0, 0x11);
  x1 = _mm_xor_si128(_mm_xor_si128(x1, x2), x5);
  x5 = _mm_clmulepi64_si128(x1, x0, 0x00);
  x1 = _mm_clmulepi64_si128(x1, x0, 0x11);
  x1 = _mm_xor_si128(_mm_xor_si128(x1, x3), x5);
  x5 = _mm_clmulepi64_si128(x1, x0, 0x00);
  x1 = _mm_clmulepi64_si128(x1, x0, 0x11);
  x1 = _mm_xor_si128(_mm_xor_si128(x1, x4), x5);

  /* One lane, 16 bytes a step. */
  while (len >= 16) {
    x5 = _mm_clmulepi64_si128(x1, x0, 0x00);
    x1 = _mm_clmulepi64_si128(x1, x0, 0x11);
    x1 = _mm_xor_si128(_mm_xor_si128(x1, x5),
                       _mm_loadu_si128((const __m128i *)p));
    p += 16;
    len -= 16;
  }

  /* 128 bits to 64. */
  x2 = _mm_clmulepi64_si128(x1, x0, 0x10);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), x2);
  x2 = _mm_srli_si128(x1, 4);
  x1 = _mm_and_si128(x1, low32);
  x1 = _mm_clmulepi64_si128(x1, k5k0, 0x00);
  x1 = _mm_xor_si128(x1, x2);

  /* Barrett reduction to 32 bits. */
  x2 = _mm_and_si128(x1, low32);
  x2 = _mm_clmulepi64_si128(x2, poly, 0x10);
  x2 = _mm_and_si128(x2, low32);
  x2 = _mm_clmulepi64_si128(x2, poly, 0x00);
  x1 = _mm_xor_si128(x1, x2);
  return (uint32_t)_mm_extract_epi32(x1, 1);
}
#endif

/* crc -> string -> pos -> len -> int, in [0, 2^32); the range unchecked */
CAMLprim value lastcpu_crc32_update(value vcrc, value vs, value vpos,
                                    value vlen)
{
  const uint8_t *p = (const uint8_t *)String_val(vs) + Long_val(vpos);
  long len = Long_val(vlen);
  uint32_t c = (uint32_t)Long_val(vcrc) ^ 0xFFFFFFFFu;
#ifdef LASTCPU_CRC_CLMUL
  if (use_clmul && len >= 64) {
    long blocks = len & ~15L;
    c = crc_clmul(c, p, blocks);
    p += blocks;
    len -= blocks;
  }
#endif
  c = crc_table(c, p, len);
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
