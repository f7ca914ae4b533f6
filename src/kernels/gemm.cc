#include "src/kernels/gemm.h"

#include <algorithm>
#include <cstring>

#if defined(__AVX2__) || defined(__AVX512F__)
#include <immintrin.h>
#endif

#include <cstdint>

#include "src/common/fault_injection.h"
#include "src/kernels/activation.h"
#include "src/kernels/fixed_point.h"

namespace mlexray {
namespace {

// Register tile extents. The float tile is MR x 8: with B packed
// 8-interleaved the inner j loop vectorizes to one 8-wide FMA per row on
// AVX2 (or two 4-wide mul/adds on plain SSE), and the MR * 8 accumulators
// stay in vector registers. MR is a template parameter so short matrices
// (fully-connected with batch 1) still get fully unrolled code. The int8
// tile is MR x 16: one int32 accumulator lane per output column across the
// pair-interleaved panel.
constexpr std::int64_t kMr = 4;
constexpr std::int64_t kNrF = kGemmNrF32;
constexpr std::int64_t kNrIP = kGemmNrI8;

// Below this many multiply-accumulates the parallel_for rendezvous costs more
// than the arithmetic; run on the calling thread.
constexpr std::int64_t kMinFlopsForPool = 64 * 1024;

// MR x kNrF tile over a packed B panel: bp holds k groups of kNrF column
// values, contiguous per k step. SIMD runs across the kNrF output columns, so
// each output's per-element accumulation order (bias first, k ascending) is
// exactly the reference kernels' — results agree with the reference path to
// within FMA-contraction rounding. Accumulators are named vector variables,
// not arrays: GCC reliably keeps them in ymm registers, where an indexed
// array spills to the stack and throughput drops ~6x.
#if defined(__GNUC__) || defined(__clang__)
#define MLX_GEMM_VECTOR_TILE 1
using v8f = float __attribute__((vector_size(32)));
// Unaligned-load flavour for B panels and bias columns.
using v8f_u = float __attribute__((vector_size(32), aligned(4)));

template <int MR>
inline void tile_f32_packed(std::int64_t k, const float* a, std::int64_t lda,
                            const float* bp, const float* bias, Activation act,
                            float* c, std::int64_t ldc) {
  const v8f bias_v = *reinterpret_cast<const v8f_u*>(bias);
  v8f acc0 = bias_v, acc1 = bias_v, acc2 = bias_v, acc3 = bias_v;
  const float* a0 = a;
  const float* a1 = a + (MR > 1 ? lda : 0);
  const float* a2 = a + (MR > 2 ? 2 * lda : 0);
  const float* a3 = a + (MR > 3 ? 3 * lda : 0);
  (void)a1; (void)a2; (void)a3;
  (void)acc1; (void)acc2; (void)acc3;
  for (std::int64_t kk = 0; kk < k; ++kk) {
    const v8f bv = *reinterpret_cast<const v8f_u*>(bp + kk * kNrF);
    acc0 += a0[kk] * bv;
    if constexpr (MR > 1) acc1 += a1[kk] * bv;
    if constexpr (MR > 2) acc2 += a2[kk] * bv;
    if constexpr (MR > 3) acc3 += a3[kk] * bv;
  }
  float out[MR][kNrF];
  __builtin_memcpy(out[0], &acc0, sizeof(v8f));
  if constexpr (MR > 1) __builtin_memcpy(out[1], &acc1, sizeof(v8f));
  if constexpr (MR > 2) __builtin_memcpy(out[2], &acc2, sizeof(v8f));
  if constexpr (MR > 3) __builtin_memcpy(out[3], &acc3, sizeof(v8f));
  for (int i = 0; i < MR; ++i) {
    for (std::int64_t j = 0; j < kNrF; ++j) {
      c[i * ldc + j] = apply_activation_f32(out[i][j], act);
    }
  }
}
#else
template <int MR>
inline void tile_f32_packed(std::int64_t k, const float* a, std::int64_t lda,
                            const float* bp, const float* bias, Activation act,
                            float* c, std::int64_t ldc) {
  float acc[MR][kNrF];
  const float* ar[MR];
  for (int i = 0; i < MR; ++i) {
    ar[i] = a + i * lda;
    for (std::int64_t j = 0; j < kNrF; ++j) acc[i][j] = bias[j];
  }
  for (std::int64_t kk = 0; kk < k; ++kk) {
    const float* bv = bp + kk * kNrF;
    for (int i = 0; i < MR; ++i) {
      const float av = ar[i][kk];
      for (std::int64_t j = 0; j < kNrF; ++j) acc[i][j] += av * bv[j];
    }
  }
  for (int i = 0; i < MR; ++i) {
    for (std::int64_t j = 0; j < kNrF; ++j) {
      c[i * ldc + j] = apply_activation_f32(acc[i][j], act);
    }
  }
}
#endif

// Generic tile over unpacked B (any mr <= kMr, nr <= kNrF): the n % kNrF
// edge columns no full panel covers (every column when n < kNrF).
inline void tile_f32_edge(std::int64_t mr, std::int64_t nr, std::int64_t k,
                          const float* a, std::int64_t lda, const float* b,
                          std::int64_t ldb, const float* bias, Activation act,
                          float* c, std::int64_t ldc) {
  float acc[kMr][kNrF];
  for (std::int64_t i = 0; i < mr; ++i) {
    for (std::int64_t j = 0; j < nr; ++j) acc[i][j] = bias[j];
  }
  for (std::int64_t kk = 0; kk < k; ++kk) {
    for (std::int64_t i = 0; i < mr; ++i) {
      const float av = a[i * lda + kk];
      for (std::int64_t j = 0; j < nr; ++j) acc[i][j] += av * b[j * ldb + kk];
    }
  }
  for (std::int64_t i = 0; i < mr; ++i) {
    for (std::int64_t j = 0; j < nr; ++j) {
      c[i * ldc + j] = apply_activation_f32(acc[i][j], act);
    }
  }
}

// Pair-broadcast microkernels over a prepacked int8 panel: MR rows of A
// against one pair-interleaved panel of kNrIP (16) output columns. The
// panel's k2-major layout puts 16 columns x 2 consecutive k values (int16)
// in each 64-byte group — exactly one vpmaddwd B operand — and the matching
// A operand is a broadcast 32-bit (a[2k], a[2k+1]) pair, so a single
// instruction retires 32 multiply-accumulates with *one int32 accumulator
// lane per output column*: no horizontal reduction anywhere, which is what
// makes small-k GEMMs (MobileNet's 1x1 pointwise convs, k = channels) fast
// rather than reduce-bound. Column padding is zero-filled at pack time, so
// the last panel needs no scalar edge and an odd k pairs the final element
// with an explicit zero on the A side (never reading a[k]).
//
// Tiered by ISA: AVX-512BW (one 64-byte madd per k pair), AVX2 (two
// 32-byte madds), generic GNU vectors (exact int16 products widened and
// summed per pair), plain scalar. Integer accumulation is exact and
// order-free, so all tiers are bit-identical. Overflow: an int8*int8
// product is at most 2^14 and a pair at most 2^15, so int32 lanes are safe
// until k > 2^16 — far beyond any shape this runtime sees.

// The broadcast A operand: two consecutive activations as packed int16s.
// `full == false` zeroes the high half for the odd-k tail.
inline std::int32_t a_pair_i8(const std::int8_t* a, std::int64_t kk,
                              bool full) {
  const auto lo = static_cast<std::int32_t>(a[kk]);
  const std::int32_t hi = full ? static_cast<std::int32_t>(a[kk + 1]) : 0;
  return (lo & 0xFFFF) | (hi << 16);
}

#if defined(__AVX512BW__) && defined(__AVX512F__)

template <int MR>
inline void tile_i8_pairs(std::int64_t k, const std::int8_t* a,
                          std::int64_t lda, const std::int16_t* bp,
                          std::int32_t acc_out[][kNrIP]) {
  __m512i acc[MR];
  for (int i = 0; i < MR; ++i) acc[i] = _mm512_setzero_si512();
  const std::int64_t k2 = k / 2;
  for (std::int64_t p = 0; p < k2; ++p) {
    const __m512i bv = _mm512_loadu_si512(bp + p * 2 * kNrIP);
    for (int i = 0; i < MR; ++i) {
      const __m512i av =
          _mm512_set1_epi32(a_pair_i8(a + i * lda, 2 * p, true));
      acc[i] = _mm512_add_epi32(acc[i], _mm512_madd_epi16(av, bv));
    }
  }
  if (k & 1) {
    const __m512i bv = _mm512_loadu_si512(bp + k2 * 2 * kNrIP);
    for (int i = 0; i < MR; ++i) {
      const __m512i av =
          _mm512_set1_epi32(a_pair_i8(a + i * lda, k - 1, false));
      acc[i] = _mm512_add_epi32(acc[i], _mm512_madd_epi16(av, bv));
    }
  }
  for (int i = 0; i < MR; ++i) {
    _mm512_storeu_si512(acc_out[i], acc[i]);
  }
}

#elif defined(__AVX2__)

template <int MR>
inline void tile_i8_pairs(std::int64_t k, const std::int8_t* a,
                          std::int64_t lda, const std::int16_t* bp,
                          std::int32_t acc_out[][kNrIP]) {
  __m256i acc[MR][2];
  for (int i = 0; i < MR; ++i) {
    acc[i][0] = _mm256_setzero_si256();
    acc[i][1] = _mm256_setzero_si256();
  }
  const std::int64_t k2 = k / 2;
  auto step = [&](std::int64_t p, bool full, std::int64_t kk) {
    const __m256i bv0 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(bp + p * 2 * kNrIP));
    const __m256i bv1 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(bp + p * 2 * kNrIP + kNrIP));
    for (int i = 0; i < MR; ++i) {
      const __m256i av = _mm256_set1_epi32(a_pair_i8(a + i * lda, kk, full));
      acc[i][0] = _mm256_add_epi32(acc[i][0], _mm256_madd_epi16(av, bv0));
      acc[i][1] = _mm256_add_epi32(acc[i][1], _mm256_madd_epi16(av, bv1));
    }
  };
  for (std::int64_t p = 0; p < k2; ++p) step(p, true, 2 * p);
  if (k & 1) step(k2, false, k - 1);
  for (int i = 0; i < MR; ++i) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc_out[i]), acc[i][0]);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc_out[i] + 8),
                        acc[i][1]);
  }
}

#elif defined(__GNUC__) || defined(__clang__)

// Generic SIMD via GCC vector extensions (NEON etc.): exact int16 products
// per pair (|int8 * int8| <= 2^14), widened per column and summed into the
// 8-lane int32 accumulator each 16-int16 block owns.
using v16s16_p = std::int16_t __attribute__((vector_size(32), aligned(2)));
using v8s16_p = std::int16_t __attribute__((vector_size(16)));
using v8s32_p = std::int32_t __attribute__((vector_size(32)));

template <int MR>
inline void tile_i8_pairs(std::int64_t k, const std::int8_t* a,
                          std::int64_t lda, const std::int16_t* bp,
                          std::int32_t acc_out[][kNrIP]) {
  v8s32_p acc[MR][2] = {};
  const std::int64_t k2 = k / 2;
  auto step = [&](std::int64_t p, bool full, std::int64_t kk) {
    v16s16_p bv[2];
    __builtin_memcpy(&bv[0], bp + p * 2 * kNrIP, sizeof(bv[0]));
    __builtin_memcpy(&bv[1], bp + p * 2 * kNrIP + kNrIP, sizeof(bv[1]));
    for (int i = 0; i < MR; ++i) {
      const auto lo = static_cast<std::int16_t>(a[i * lda + kk]);
      const std::int16_t hi =
          full ? static_cast<std::int16_t>(a[i * lda + kk + 1])
               : std::int16_t{0};
      const v16s16_p vlo = (v16s16_p){} + lo;
      const v16s16_p vhi = (v16s16_p){} + hi;
      const v16s16_p av = __builtin_shufflevector(
          vlo, vhi, 0, 16, 1, 17, 2, 18, 3, 19, 4, 20, 5, 21, 6, 22, 7, 23);
      for (int h = 0; h < 2; ++h) {
        const v16s16_p prod = av * bv[h];  // exact in int16
        const v8s16_p even = __builtin_shufflevector(prod, prod, 0, 2, 4, 6,
                                                     8, 10, 12, 14);
        const v8s16_p odd = __builtin_shufflevector(prod, prod, 1, 3, 5, 7,
                                                    9, 11, 13, 15);
        acc[i][h] += __builtin_convertvector(even, v8s32_p) +
                     __builtin_convertvector(odd, v8s32_p);
      }
    }
  };
  for (std::int64_t p = 0; p < k2; ++p) step(p, true, 2 * p);
  if (k & 1) step(k2, false, k - 1);
  for (int i = 0; i < MR; ++i) {
    __builtin_memcpy(acc_out[i], &acc[i][0], sizeof(acc[i][0]));
    __builtin_memcpy(acc_out[i] + 8, &acc[i][1], sizeof(acc[i][1]));
  }
}

#else

template <int MR>
inline void tile_i8_pairs(std::int64_t k, const std::int8_t* a,
                          std::int64_t lda, const std::int16_t* bp,
                          std::int32_t acc_out[][kNrIP]) {
  for (int i = 0; i < MR; ++i) {
    for (std::int64_t j = 0; j < kNrIP; ++j) acc_out[i][j] = 0;
  }
  const std::int64_t k2 = k / 2;
  for (int i = 0; i < MR; ++i) {
    for (std::int64_t p = 0; p < k2; ++p) {
      const std::int32_t a0 = a[i * lda + 2 * p];
      const std::int32_t a1 = a[i * lda + 2 * p + 1];
      const std::int16_t* bq = bp + p * 2 * kNrIP;
      for (std::int64_t j = 0; j < kNrIP; ++j) {
        acc_out[i][j] += a0 * bq[2 * j] + a1 * bq[2 * j + 1];
      }
    }
    if (k & 1) {
      const std::int32_t a0 = a[i * lda + k - 1];
      const std::int16_t* bq = bp + k2 * 2 * kNrIP;
      for (std::int64_t j = 0; j < kNrIP; ++j) {
        acc_out[i][j] += a0 * bq[2 * j];
      }
    }
  }
}

#endif

inline void panel_i8_pairs(std::int64_t mr, std::int64_t k,
                           const std::int8_t* a, std::int64_t lda,
                           const std::int16_t* bp,
                           std::int32_t acc[kMr][kNrIP]) {
  switch (mr) {
    case 4: tile_i8_pairs<4>(k, a, lda, bp, acc); break;
    case 3: tile_i8_pairs<3>(k, a, lda, bp, acc); break;
    case 2: tile_i8_pairs<2>(k, a, lda, bp, acc); break;
    default: tile_i8_pairs<1>(k, a, lda, bp, acc); break;
  }
}

// k-major int8 matvec: raw dot products of one A row against nc B rows (B
// rows in NT layout *are* k-contiguous, i.e. already the k-major panel the
// shape wants). The pair-interleaved panels above are column-major per k
// pair, which is perfect when 4 A rows amortize each 64-byte panel load but
// leaves m==1 issuing one madd per 16 columns per k pair — memory-bound on
// the panel. Here the A chunk is widened once and reused across 4 columns,
// each column owning a full-width accumulator that is horizontally reduced
// once at the end (k is large for matvec shapes — FC layers — so one hsum
// per column is noise; it's the small-k pointwise convs that must avoid
// reduction, and those keep the panel path via m > 1).
//
// Accumulation is raw (no zero-point subtraction), matching the packed
// path's accumulators exactly — the caller applies the identical col_sums
// epilogue, so packed-vs-matvec results are bit-identical by construction.

#if defined(__AVX512BW__) && defined(__AVX512F__)

inline void matvec_i8_kmajor(std::int64_t nc, std::int64_t k,
                             const std::int8_t* a, const std::int8_t* b,
                             std::int64_t ldb, std::int32_t* acc_out) {
  std::int64_t j = 0;
  for (; j + 4 <= nc; j += 4) {
    const std::int8_t* b0 = b + j * ldb;
    const std::int8_t* b1 = b0 + ldb;
    const std::int8_t* b2 = b1 + ldb;
    const std::int8_t* b3 = b2 + ldb;
    __m512i acc0 = _mm512_setzero_si512();
    __m512i acc1 = _mm512_setzero_si512();
    __m512i acc2 = _mm512_setzero_si512();
    __m512i acc3 = _mm512_setzero_si512();
    std::int64_t kk = 0;
    for (; kk + 32 <= k; kk += 32) {
      // One 32-wide A widen feeds four 512-bit madds; per-lane pair sums
      // are <= 2^15, so int32 lanes are safe to k > 2^18.
      const __m512i av = _mm512_cvtepi8_epi16(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + kk)));
      acc0 = _mm512_add_epi32(
          acc0, _mm512_madd_epi16(av, _mm512_cvtepi8_epi16(_mm256_loadu_si256(
                    reinterpret_cast<const __m256i*>(b0 + kk)))));
      acc1 = _mm512_add_epi32(
          acc1, _mm512_madd_epi16(av, _mm512_cvtepi8_epi16(_mm256_loadu_si256(
                    reinterpret_cast<const __m256i*>(b1 + kk)))));
      acc2 = _mm512_add_epi32(
          acc2, _mm512_madd_epi16(av, _mm512_cvtepi8_epi16(_mm256_loadu_si256(
                    reinterpret_cast<const __m256i*>(b2 + kk)))));
      acc3 = _mm512_add_epi32(
          acc3, _mm512_madd_epi16(av, _mm512_cvtepi8_epi16(_mm256_loadu_si256(
                    reinterpret_cast<const __m256i*>(b3 + kk)))));
    }
    std::int32_t r0 = _mm512_reduce_add_epi32(acc0);
    std::int32_t r1 = _mm512_reduce_add_epi32(acc1);
    std::int32_t r2 = _mm512_reduce_add_epi32(acc2);
    std::int32_t r3 = _mm512_reduce_add_epi32(acc3);
    for (; kk < k; ++kk) {
      const std::int32_t av = a[kk];
      r0 += av * b0[kk];
      r1 += av * b1[kk];
      r2 += av * b2[kk];
      r3 += av * b3[kk];
    }
    acc_out[j] = r0;
    acc_out[j + 1] = r1;
    acc_out[j + 2] = r2;
    acc_out[j + 3] = r3;
  }
  for (; j < nc; ++j) {
    const std::int8_t* bj = b + j * ldb;
    std::int32_t r = 0;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      r += static_cast<std::int32_t>(a[kk]) *
           static_cast<std::int32_t>(bj[kk]);
    }
    acc_out[j] = r;
  }
}

#elif defined(__AVX2__)

inline std::int32_t hsum_epi32(__m256i v) {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  __m128i s = _mm_add_epi32(lo, hi);
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(s);
}

inline void matvec_i8_kmajor(std::int64_t nc, std::int64_t k,
                             const std::int8_t* a, const std::int8_t* b,
                             std::int64_t ldb, std::int32_t* acc_out) {
  std::int64_t j = 0;
  for (; j + 4 <= nc; j += 4) {
    const std::int8_t* b0 = b + j * ldb;
    const std::int8_t* b1 = b0 + ldb;
    const std::int8_t* b2 = b1 + ldb;
    const std::int8_t* b3 = b2 + ldb;
    __m256i acc0 = _mm256_setzero_si256();
    __m256i acc1 = _mm256_setzero_si256();
    __m256i acc2 = _mm256_setzero_si256();
    __m256i acc3 = _mm256_setzero_si256();
    std::int64_t kk = 0;
    for (; kk + 16 <= k; kk += 16) {
      // One A widen (int8 -> int16) feeds four madds; per-lane pair sums
      // are <= 2^15, so int32 lanes are safe to k > 2^18.
      const __m256i av = _mm256_cvtepi8_epi16(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + kk)));
      acc0 = _mm256_add_epi32(
          acc0, _mm256_madd_epi16(av, _mm256_cvtepi8_epi16(_mm_loadu_si128(
                    reinterpret_cast<const __m128i*>(b0 + kk)))));
      acc1 = _mm256_add_epi32(
          acc1, _mm256_madd_epi16(av, _mm256_cvtepi8_epi16(_mm_loadu_si128(
                    reinterpret_cast<const __m128i*>(b1 + kk)))));
      acc2 = _mm256_add_epi32(
          acc2, _mm256_madd_epi16(av, _mm256_cvtepi8_epi16(_mm_loadu_si128(
                    reinterpret_cast<const __m128i*>(b2 + kk)))));
      acc3 = _mm256_add_epi32(
          acc3, _mm256_madd_epi16(av, _mm256_cvtepi8_epi16(_mm_loadu_si128(
                    reinterpret_cast<const __m128i*>(b3 + kk)))));
    }
    std::int32_t r0 = hsum_epi32(acc0);
    std::int32_t r1 = hsum_epi32(acc1);
    std::int32_t r2 = hsum_epi32(acc2);
    std::int32_t r3 = hsum_epi32(acc3);
    for (; kk < k; ++kk) {
      const std::int32_t av = a[kk];
      r0 += av * b0[kk];
      r1 += av * b1[kk];
      r2 += av * b2[kk];
      r3 += av * b3[kk];
    }
    acc_out[j] = r0;
    acc_out[j + 1] = r1;
    acc_out[j + 2] = r2;
    acc_out[j + 3] = r3;
  }
  for (; j < nc; ++j) {
    const std::int8_t* bj = b + j * ldb;
    std::int32_t r = 0;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      r += static_cast<std::int32_t>(a[kk]) *
           static_cast<std::int32_t>(bj[kk]);
    }
    acc_out[j] = r;
  }
}

#else

// Portable tier: 4 independent column chains so the compiler can keep four
// scalar (or auto-vectorized) accumulators live. Integer math is exact, so
// this is bit-identical to the SIMD tier.
inline void matvec_i8_kmajor(std::int64_t nc, std::int64_t k,
                             const std::int8_t* a, const std::int8_t* b,
                             std::int64_t ldb, std::int32_t* acc_out) {
  std::int64_t j = 0;
  for (; j + 4 <= nc; j += 4) {
    const std::int8_t* b0 = b + j * ldb;
    const std::int8_t* b1 = b0 + ldb;
    const std::int8_t* b2 = b1 + ldb;
    const std::int8_t* b3 = b2 + ldb;
    std::int32_t r0 = 0, r1 = 0, r2 = 0, r3 = 0;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const std::int32_t av = a[kk];
      r0 += av * b0[kk];
      r1 += av * b1[kk];
      r2 += av * b2[kk];
      r3 += av * b3[kk];
    }
    acc_out[j] = r0;
    acc_out[j + 1] = r1;
    acc_out[j + 2] = r2;
    acc_out[j + 3] = r3;
  }
  for (; j < nc; ++j) {
    const std::int8_t* bj = b + j * ldb;
    std::int32_t r = 0;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      r += static_cast<std::int32_t>(a[kk]) *
           static_cast<std::int32_t>(bj[kk]);
    }
    acc_out[j] = r;
  }
}

#endif

}  // namespace

std::int64_t packed_b_f32_floats(std::int64_t n, std::int64_t k) {
  return (n / kNrF) * k * kNrF;
}

void pack_b_f32(std::int64_t n, std::int64_t k, const float* b,
                std::int64_t ldb, float* panels) {
  const std::int64_t panel_count = n / kNrF;
  for (std::int64_t panel = 0; panel < panel_count; ++panel) {
    const float* bsrc = b + panel * kNrF * ldb;
    float* pdst = panels + panel * k * kNrF;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      for (std::int64_t j = 0; j < kNrF; ++j) {
        pdst[kk * kNrF + j] = bsrc[j * ldb + kk];
      }
    }
  }
}

namespace {
std::int64_t packed_b_i8_panel_count(std::int64_t n) {
  return (n + kNrIP - 1) / kNrIP;
}
}  // namespace

std::int64_t packed_b_i8_bytes(std::int64_t n, std::int64_t k) {
  const std::int64_t k2 = (k + 1) / 2;
  return packed_b_i8_panel_count(n) * k2 * 2 * kNrIP *
         static_cast<std::int64_t>(sizeof(std::int16_t));
}

void pack_b_i8(std::int64_t n, std::int64_t k, const std::int8_t* b,
               std::int64_t ldb, std::int8_t* panels,
               std::int32_t* col_sums) {
  // Pair-interleaved, pre-widened int16 panels (see gemm.h): panel p holds,
  // for each k pair, columns [16p, 16p + 16) x 2 consecutive k entries.
  // Columns past n and the odd-k tail are zeros, so the microkernel never
  // needs an edge path and padding contributes exactly nothing.
  auto* p16 = reinterpret_cast<std::int16_t*>(panels);
  const std::int64_t k2 = (k + 1) / 2;
  for (std::int64_t panel = 0; panel < packed_b_i8_panel_count(n); ++panel) {
    std::int16_t* dst = p16 + panel * k2 * 2 * kNrIP;
    for (std::int64_t p = 0; p < k2; ++p) {
      for (std::int64_t j = 0; j < kNrIP; ++j) {
        const std::int64_t col = panel * kNrIP + j;
        for (std::int64_t e = 0; e < 2; ++e) {
          const std::int64_t kk = 2 * p + e;
          dst[(p * kNrIP + j) * 2 + e] =
              (col < n && kk < k) ? b[col * ldb + kk] : std::int16_t{0};
        }
      }
    }
  }
  for (std::int64_t j = 0; j < n; ++j) {
    std::int32_t sum = 0;
    const std::int8_t* row = b + j * ldb;
    for (std::int64_t kk = 0; kk < k; ++kk) sum += row[kk];
    col_sums[j] = sum;
  }
}

void gemm_f32_nt(std::int64_t m, std::int64_t n, std::int64_t k,
                 const float* a, std::int64_t lda, const float* b,
                 std::int64_t ldb, const float* bias, Activation act, float* c,
                 std::int64_t ldc, PoolRef pool, const PackedBF32& packed) {
  if (m <= 0 || n <= 0) return;
  MLX_CHECK_EQ(packed.panel_count, n / kNrF) << "B panels packed for another n";
  // Kernel-level fault point: lets tests originate an MLX_CHECK-style
  // failure inside a real kernel (not just the plan walk) and assert it is
  // contained at the session boundary.
  if (fault::enabled()) fault::check(fault_sites::kKernelGemm);
  const std::int64_t m_tiles = (m + kMr - 1) / kMr;
  auto row_block = [&](std::size_t tile_lo, std::size_t tile_hi) {
    for (std::size_t t = tile_lo; t < tile_hi; ++t) {
      const std::int64_t i0 = static_cast<std::int64_t>(t) * kMr;
      const std::int64_t mr = std::min(kMr, m - i0);
      const float* at = a + i0 * lda;
      float* ct = c + i0 * ldc;
      std::int64_t j0 = 0;
      for (; j0 + kNrF <= n; j0 += kNrF) {
        const float* bp = packed.panels + (j0 / kNrF) * k * kNrF;
        switch (mr) {
          case 4: tile_f32_packed<4>(k, at, lda, bp, bias + j0, act, ct + j0, ldc); break;
          case 3: tile_f32_packed<3>(k, at, lda, bp, bias + j0, act, ct + j0, ldc); break;
          case 2: tile_f32_packed<2>(k, at, lda, bp, bias + j0, act, ct + j0, ldc); break;
          default: tile_f32_packed<1>(k, at, lda, bp, bias + j0, act, ct + j0, ldc); break;
        }
      }
      for (; j0 < n; j0 += kNrF) {
        tile_f32_edge(mr, std::min(kNrF, n - j0), k, at, lda, b + j0 * ldb,
                      ldb, bias + j0, act, ct + j0, ldc);
      }
    }
  };
  if (pool && m_tiles > 1 && m * n * k >= kMinFlopsForPool) {
    pool.parallel_for(0, static_cast<std::size_t>(m_tiles), row_block);
  } else {
    row_block(0, static_cast<std::size_t>(m_tiles));
  }
}

void gemm_i8_nt(std::int64_t m, std::int64_t n, std::int64_t k,
                const std::int8_t* a, std::int64_t lda, const std::int8_t* b,
                std::int64_t ldb, const GemmQuant& q, std::int8_t* c,
                std::int64_t ldc, PoolRef pool, const PackedBI8& packed) {
  if (m <= 0 || n <= 0) return;
  // Shape dispatch: m == 1 (batch-1 FC / 1x1-output convs) walks raw
  // k-major B rows instead of the pair-interleaved panels — with a single A
  // row the panel walk has no load reuse and regressed matvec latency ~2.7x
  // (see ROADMAP note). Same raw accumulators + identical col_sums
  // epilogue, so the result is bit-exact vs the panel path (the naive-loop
  // parity tests pin both).
  if (m == 1) {
    constexpr std::int64_t kMvCols = 64;
    std::int32_t acc[kMvCols];
    for (std::int64_t j0 = 0; j0 < n; j0 += kMvCols) {
      const std::int64_t nc = std::min(kMvCols, n - j0);
      matvec_i8_kmajor(nc, k, a, b + j0 * ldb, ldb, acc);
      std::int64_t j = 0;
#if defined(__GNUC__) || defined(__clang__)
      const v8s32_fx zp_a = (v8s32_fx){} + q.a_zero_point;
      for (; j + 8 <= nc; j += 8) {
        const std::size_t col = static_cast<std::size_t>(j0 + j);
        v8s32_fx accv, cs, bs, mu, sh;
        __builtin_memcpy(&accv, acc + j, sizeof(accv));
        __builtin_memcpy(&cs, packed.col_sums + col, sizeof(cs));
        __builtin_memcpy(&bs, q.bias + col, sizeof(bs));
        __builtin_memcpy(&mu, q.multipliers + col, sizeof(mu));
        __builtin_memcpy(&sh, q.shifts + col, sizeof(sh));
        requant_clamp_store_i8_v8(accv - zp_a * cs + bs, mu, -sh,
                                  q.out_zero_point, q.act_min, q.act_max,
                                  c + j0 + j);
      }
#endif
      for (; j < nc; ++j) {
        const std::size_t col = static_cast<std::size_t>(j0 + j);
        const std::int32_t sum =
            acc[j] - q.a_zero_point * packed.col_sums[col];
        std::int32_t scaled = multiply_by_quantized_multiplier(
            sum + q.bias[col], q.multipliers[col], q.shifts[col]);
        std::int32_t v = scaled + q.out_zero_point;
        v = std::clamp(v, q.act_min, q.act_max);
        c[j0 + j] = static_cast<std::int8_t>(v);
      }
    }
    return;
  }
  const std::int64_t m_tiles = (m + kMr - 1) / kMr;
  const std::int64_t k2 = (k + 1) / 2;
  // Pair-broadcast microkernel over the pair-interleaved panels.
  // Accumulation is *raw* (no per-element zero-point subtraction); the
  // epilogue corrects with the prepacked column sums. Integer math is exact,
  // so the result equals sum_k (a - zp) * b to the bit.
  auto row_block = [&](std::size_t tile_lo, std::size_t tile_hi) {
    const auto* p16 = reinterpret_cast<const std::int16_t*>(packed.panels);
    for (std::size_t t = tile_lo; t < tile_hi; ++t) {
      const std::int64_t i0 = static_cast<std::int64_t>(t) * kMr;
      const std::int64_t mr = std::min(kMr, m - i0);
      const std::int8_t* at = a + i0 * lda;
      std::int8_t* ct = c + i0 * ldc;
      for (std::int64_t j0 = 0; j0 < n; j0 += kNrIP) {
        const std::int64_t nr = std::min(kNrIP, n - j0);
        std::int32_t acc[kMr][kNrIP];
        panel_i8_pairs(mr, k, at, lda, p16 + (j0 / kNrIP) * k2 * 2 * kNrIP,
                       acc);
        for (std::int64_t i = 0; i < mr; ++i) {
          std::int64_t j = 0;
#if defined(__GNUC__) || defined(__clang__)
          // Vectorized requant epilogue (requant_clamp_store_i8_v8 is the
          // shared fixed_point.h helper, bit-identical to the scalar tail
          // loop below). On small-k GEMMs the epilogue costs as much as the
          // dot products, so this matters.
          const v8s32_fx zp_a = (v8s32_fx){} + q.a_zero_point;
          for (; j + 8 <= nr; j += 8) {
            const std::size_t col = static_cast<std::size_t>(j0 + j);
            v8s32_fx accv, cs, bs, mu, sh;
            __builtin_memcpy(&accv, &acc[i][j], sizeof(accv));
            __builtin_memcpy(&cs, packed.col_sums + col, sizeof(cs));
            __builtin_memcpy(&bs, q.bias + col, sizeof(bs));
            __builtin_memcpy(&mu, q.multipliers + col, sizeof(mu));
            __builtin_memcpy(&sh, q.shifts + col, sizeof(sh));
            requant_clamp_store_i8_v8(accv - zp_a * cs + bs, mu, -sh,
                                      q.out_zero_point, q.act_min, q.act_max,
                                      ct + i * ldc + j0 + j);
          }
#endif
          for (; j < nr; ++j) {
            const std::size_t col = static_cast<std::size_t>(j0 + j);
            const std::int32_t sum =
                acc[i][j] - q.a_zero_point * packed.col_sums[col];
            std::int32_t scaled = multiply_by_quantized_multiplier(
                sum + q.bias[col], q.multipliers[col], q.shifts[col]);
            std::int32_t v = scaled + q.out_zero_point;
            v = std::clamp(v, q.act_min, q.act_max);
            ct[i * ldc + j0 + j] = static_cast<std::int8_t>(v);
          }
        }
      }
    }
  };
  if (pool && m_tiles > 1 && m * n * k >= kMinFlopsForPool) {
    pool.parallel_for(0, static_cast<std::size_t>(m_tiles), row_block);
  } else {
    row_block(0, static_cast<std::size_t>(m_tiles));
  }
}

}  // namespace mlexray
