/* Hardware CRC-32C: the SSE4.2 [crc32] instruction on x86-64, chosen at
   run time by CPU feature. The OCaml side (crc32c.ml) keeps its
   slicing-by-8 kernel as the portable fallback and asks
   [nv_crc32c_hw_available] once which one to use.

   [nv_crc32c_update] folds [len] bytes of [buf] from [off] into the
   pre-inverted register [c], exactly as the software kernel does; the
   caller has checked the range. It neither allocates nor raises, so it
   is declared [@@noalloc] with untagged arguments. */

#include <stdint.h>
#include <string.h>
#include <caml/mlvalues.h>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define NV_CRC_X86 1

__attribute__((target("sse4.2")))
static uint32_t nv_crc_hw(uint32_t c, const unsigned char *p, intnat n)
{
  uint64_t r = c;
  while (n >= 8) {
    uint64_t w;
    memcpy(&w, p, 8);
    r = _mm_crc32_u64(r, w);
    p += 8;
    n -= 8;
  }
  c = (uint32_t)r;
  while (n > 0) {
    c = _mm_crc32_u8(c, *p);
    p++;
    n--;
  }
  return c;
}
#endif

value nv_crc32c_hw_available(value unit)
{
  (void)unit;
#ifdef NV_CRC_X86
  __builtin_cpu_init();
  return Val_bool(__builtin_cpu_supports("sse4.2"));
#else
  return Val_false;
#endif
}

intnat nv_crc32c_update(intnat c, value buf, intnat off, intnat len)
{
#ifdef NV_CRC_X86
  return (intnat)nv_crc_hw((uint32_t)c, (const unsigned char *)Bytes_val(buf) + off, len);
#else
  (void)buf; (void)off; (void)len;
  return c;
#endif
}

value nv_crc32c_update_byte(value c, value buf, value off, value len)
{
  return Val_long(nv_crc32c_update(Long_val(c), buf, Long_val(off), Long_val(len)));
}
