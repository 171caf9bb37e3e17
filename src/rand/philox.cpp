#include "rand/philox.h"

#include <cstddef>

#if defined(__x86_64__) && defined(__GNUC__)
#define LNC_PHILOX_X86_SIMD 1
#include <immintrin.h>
#endif

namespace lnc::rand {
namespace {

constexpr std::uint32_t kMul0 = 0xD2511F53u;
constexpr std::uint32_t kMul1 = 0xCD9E8D57u;
constexpr std::uint32_t kWeyl0 = 0x9E3779B9u;  // golden ratio
constexpr std::uint32_t kWeyl1 = 0xBB67AE85u;  // sqrt(3) - 1

inline void mulhilo(std::uint32_t a, std::uint32_t b, std::uint32_t& hi,
                    std::uint32_t& lo) noexcept {
  const std::uint64_t product =
      static_cast<std::uint64_t>(a) * static_cast<std::uint64_t>(b);
  hi = static_cast<std::uint32_t>(product >> 32);
  lo = static_cast<std::uint32_t>(product);
}

}  // namespace

std::array<std::uint32_t, 4> philox4x32(
    const std::array<std::uint32_t, 4>& counter,
    const std::array<std::uint32_t, 2>& key) noexcept {
  std::array<std::uint32_t, 4> c = counter;
  std::array<std::uint32_t, 2> k = key;
  for (int round = 0; round < 10; ++round) {
    std::uint32_t hi0, lo0, hi1, lo1;
    mulhilo(kMul0, c[0], hi0, lo0);
    mulhilo(kMul1, c[2], hi1, lo1);
    c = {hi1 ^ c[1] ^ k[0], lo1, hi0 ^ c[3] ^ k[1], lo0};
    k[0] += kWeyl0;
    k[1] += kWeyl1;
  }
  return c;
}

std::uint64_t philox_u64(std::uint64_t key, std::uint64_t counter_hi,
                         std::uint64_t counter_lo) noexcept {
  const std::array<std::uint32_t, 4> counter = {
      static_cast<std::uint32_t>(counter_lo),
      static_cast<std::uint32_t>(counter_lo >> 32),
      static_cast<std::uint32_t>(counter_hi),
      static_cast<std::uint32_t>(counter_hi >> 32)};
  const std::array<std::uint32_t, 2> k = {
      static_cast<std::uint32_t>(key),
      static_cast<std::uint32_t>(key >> 32)};
  const std::array<std::uint32_t, 4> out = philox4x32(counter, k);
  return (static_cast<std::uint64_t>(out[1]) << 32) | out[0];
}

namespace {

void philox_u64_batch_portable(std::uint64_t key,
                               const std::uint64_t* counter_hi,
                               const std::uint64_t* counter_lo,
                               std::uint64_t* out,
                               std::size_t count) noexcept {
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = philox_u64(key, counter_hi[i], counter_lo[i]);
  }
}

#ifdef LNC_PHILOX_X86_SIMD

// SIMD lanes carry one 32-bit counter/key word per 64-bit element: the
// value lives in the low half, which is exactly what vpmuludq multiplies,
// and the high half only ever holds garbage on c0/c2 (it is stripped by
// the multiply and the final mask, and c1/c3 are rebuilt clean from the
// product words each round). The Weyl key increments use 32-bit lane adds
// so the key words wrap mod 2^32 like the scalar code's uint32_t adds.
//
// Both kernels produce philox_u64's output bit for bit — asserted against
// the serial path in tests/vector_engine_test.cpp.

__attribute__((target("avx2"))) void philox_u64_batch_avx2(
    std::uint64_t key, const std::uint64_t* counter_hi,
    const std::uint64_t* counter_lo, std::uint64_t* out,
    std::size_t count) noexcept {
  const __m256i mul0 = _mm256_set1_epi64x(kMul0);
  const __m256i mul1 = _mm256_set1_epi64x(kMul1);
  const __m256i mask32 = _mm256_set1_epi64x(0xFFFFFFFFll);
  const __m256i weyl0 = _mm256_set1_epi64x(kWeyl0);
  const __m256i weyl1 = _mm256_set1_epi64x(kWeyl1);
  const __m256i key0 = _mm256_set1_epi64x(static_cast<std::uint32_t>(key));
  const __m256i key1 =
      _mm256_set1_epi64x(static_cast<std::uint32_t>(key >> 32));
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m256i clo =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(counter_lo + i));
    const __m256i chi =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(counter_hi + i));
    __m256i c0 = _mm256_and_si256(clo, mask32);
    __m256i c1 = _mm256_srli_epi64(clo, 32);
    __m256i c2 = _mm256_and_si256(chi, mask32);
    __m256i c3 = _mm256_srli_epi64(chi, 32);
    __m256i k0 = key0;
    __m256i k1 = key1;
    for (int round = 0; round < 10; ++round) {
      const __m256i p0 = _mm256_mul_epu32(mul0, c0);
      const __m256i p1 = _mm256_mul_epu32(mul1, c2);
      const __m256i hi0 = _mm256_srli_epi64(p0, 32);
      const __m256i lo0 = _mm256_and_si256(p0, mask32);
      const __m256i hi1 = _mm256_srli_epi64(p1, 32);
      const __m256i lo1 = _mm256_and_si256(p1, mask32);
      c0 = _mm256_xor_si256(_mm256_xor_si256(hi1, c1), k0);
      c1 = lo1;
      c2 = _mm256_xor_si256(_mm256_xor_si256(hi0, c3), k1);
      c3 = lo0;
      k0 = _mm256_add_epi32(k0, weyl0);
      k1 = _mm256_add_epi32(k1, weyl1);
    }
    const __m256i word = _mm256_or_si256(_mm256_slli_epi64(c1, 32),
                                         _mm256_and_si256(c0, mask32));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), word);
  }
  for (; i < count; ++i) {
    out[i] = philox_u64(key, counter_hi[i], counter_lo[i]);
  }
}

// Two interleaved 8-lane blocks: the 10-round mul chain is latency-bound,
// and a second independent block roughly doubles throughput (~2.5 ns/draw
// vs ~12.7 serial on the machines this was tuned on). Full-mask maskz
// shifts and multiplies compute the same lanes as the unmasked forms,
// which trip GCC 12's -Wmaybe-uninitialized.
__attribute__((target("avx512f"))) void philox_u64_batch_avx512(
    std::uint64_t key, const std::uint64_t* counter_hi,
    const std::uint64_t* counter_lo, std::uint64_t* out,
    std::size_t count) noexcept {
  const __m512i mul0 = _mm512_set1_epi64(kMul0);
  const __m512i mul1 = _mm512_set1_epi64(kMul1);
  const __m512i mask32 = _mm512_set1_epi64(0xFFFFFFFFll);
  const __m512i weyl0 = _mm512_set1_epi64(kWeyl0);
  const __m512i weyl1 = _mm512_set1_epi64(kWeyl1);
  const __m512i key0 = _mm512_set1_epi64(static_cast<std::uint32_t>(key));
  const __m512i key1 = _mm512_set1_epi64(static_cast<std::uint32_t>(key >> 32));
  constexpr int kBlocks = 2;
  std::size_t i = 0;
  for (; i + 8 * kBlocks <= count; i += 8 * kBlocks) {
    __m512i c0[kBlocks], c1[kBlocks], c2[kBlocks], c3[kBlocks];
    for (int b = 0; b < kBlocks; ++b) {
      const __m512i clo = _mm512_loadu_si512(counter_lo + i + 8 * b);
      const __m512i chi = _mm512_loadu_si512(counter_hi + i + 8 * b);
      c0[b] = _mm512_and_si512(clo, mask32);
      c1[b] = _mm512_maskz_srli_epi64(0xFF, clo, 32);
      c2[b] = _mm512_and_si512(chi, mask32);
      c3[b] = _mm512_maskz_srli_epi64(0xFF, chi, 32);
    }
    __m512i k0 = key0;
    __m512i k1 = key1;
    for (int round = 0; round < 10; ++round) {
      for (int b = 0; b < kBlocks; ++b) {
        const __m512i p0 = _mm512_maskz_mul_epu32(0xFF, mul0, c0[b]);
        const __m512i p1 = _mm512_maskz_mul_epu32(0xFF, mul1, c2[b]);
        const __m512i hi0 = _mm512_maskz_srli_epi64(0xFF, p0, 32);
        const __m512i lo0 = _mm512_and_si512(p0, mask32);
        const __m512i hi1 = _mm512_maskz_srli_epi64(0xFF, p1, 32);
        const __m512i lo1 = _mm512_and_si512(p1, mask32);
        c0[b] = _mm512_xor_si512(_mm512_xor_si512(hi1, c1[b]), k0);
        c1[b] = lo1;
        c2[b] = _mm512_xor_si512(_mm512_xor_si512(hi0, c3[b]), k1);
        c3[b] = lo0;
      }
      k0 = _mm512_add_epi32(k0, weyl0);
      k1 = _mm512_add_epi32(k1, weyl1);
    }
    for (int b = 0; b < kBlocks; ++b) {
      const __m512i word =
          _mm512_or_si512(_mm512_maskz_slli_epi64(0xFF, c1[b], 32),
                          _mm512_and_si512(c0[b], mask32));
      _mm512_storeu_si512(out + i + 8 * b, word);
    }
  }
  for (; i < count; ++i) {
    out[i] = philox_u64(key, counter_hi[i], counter_lo[i]);
  }
}

#endif  // LNC_PHILOX_X86_SIMD

using BatchFn = void (*)(std::uint64_t, const std::uint64_t*,
                         const std::uint64_t*, std::uint64_t*,
                         std::size_t) noexcept;

BatchFn pick_batch_kernel() noexcept {
#ifdef LNC_PHILOX_X86_SIMD
  if (__builtin_cpu_supports("avx512f")) return philox_u64_batch_avx512;
  if (__builtin_cpu_supports("avx2")) return philox_u64_batch_avx2;
#endif
  return philox_u64_batch_portable;
}

}  // namespace

void philox_u64_batch(std::uint64_t key, const std::uint64_t* counter_hi,
                      const std::uint64_t* counter_lo, std::uint64_t* out,
                      std::size_t count) noexcept {
  static const BatchFn kernel = pick_batch_kernel();
  kernel(key, counter_hi, counter_lo, out, count);
}

}  // namespace lnc::rand
