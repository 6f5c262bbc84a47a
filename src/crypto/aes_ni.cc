// Hardware AES backend (x86-64 AES-NI). This translation unit is the only
// one compiled with -maes; callers must gate on AesNiAvailable() before
// dispatching here. The key schedule is the standard FIPS-197 one that
// Aes128::Create computed, so both backends share one schedule and produce
// bit-identical ciphertext.
//
// Blocks are processed four at a time where possible: AESENC has
// multi-cycle latency but single-cycle throughput, so keeping four
// independent blocks in flight hides the latency (this is what makes batched
// CTR keystream generation fast).
#include <cstddef>
#include <cstdint>

#if defined(__AES__)

#include <immintrin.h>
#include <wmmintrin.h>

namespace tcells::crypto::aesni {

namespace {

inline void LoadSchedule(const uint8_t* schedule, __m128i rk[11]) {
  for (int i = 0; i < 11; ++i) {
    rk[i] = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(schedule + 16 * i));
  }
}

}  // namespace

void EncryptBlocks(const uint8_t schedule[176], const uint8_t* in,
                   uint8_t* out, size_t nblocks) {
  __m128i rk[11];
  LoadSchedule(schedule, rk);
  size_t b = 0;
  for (; b + 4 <= nblocks; b += 4) {
    const __m128i* src = reinterpret_cast<const __m128i*>(in + 16 * b);
    __m128i s0 = _mm_xor_si128(_mm_loadu_si128(src + 0), rk[0]);
    __m128i s1 = _mm_xor_si128(_mm_loadu_si128(src + 1), rk[0]);
    __m128i s2 = _mm_xor_si128(_mm_loadu_si128(src + 2), rk[0]);
    __m128i s3 = _mm_xor_si128(_mm_loadu_si128(src + 3), rk[0]);
    for (int r = 1; r < 10; ++r) {
      s0 = _mm_aesenc_si128(s0, rk[r]);
      s1 = _mm_aesenc_si128(s1, rk[r]);
      s2 = _mm_aesenc_si128(s2, rk[r]);
      s3 = _mm_aesenc_si128(s3, rk[r]);
    }
    __m128i* dst = reinterpret_cast<__m128i*>(out + 16 * b);
    _mm_storeu_si128(dst + 0, _mm_aesenclast_si128(s0, rk[10]));
    _mm_storeu_si128(dst + 1, _mm_aesenclast_si128(s1, rk[10]));
    _mm_storeu_si128(dst + 2, _mm_aesenclast_si128(s2, rk[10]));
    _mm_storeu_si128(dst + 3, _mm_aesenclast_si128(s3, rk[10]));
  }
  for (; b < nblocks; ++b) {
    __m128i s = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(in + 16 * b));
    s = _mm_xor_si128(s, rk[0]);
    for (int r = 1; r < 10; ++r) s = _mm_aesenc_si128(s, rk[r]);
    s = _mm_aesenclast_si128(s, rk[10]);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 16 * b), s);
  }
}

}  // namespace tcells::crypto::aesni

#endif  // defined(__AES__)
