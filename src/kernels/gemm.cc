#include "src/kernels/gemm.h"

#include <algorithm>
#include <cstring>
#include <type_traits>

#if defined(__AVX2__) || defined(__AVX512F__)
#include <immintrin.h>
#endif

#include <cstdint>

#include "src/common/fault_injection.h"
#include "src/kernels/activation.h"
#include "src/kernels/fixed_point.h"

namespace mlexray {
namespace {

// Register tile extents. The float tile is MR x 16 over two 8-interleaved
// B panels (MR x 8 when a single panel remains): one 8-wide FMA per row and
// panel on AVX2 (or two 4-wide mul/adds on plain SSE), with every
// accumulator in a vector register. MR is a template parameter so short
// matrices (fully-connected with batch 1) still get fully unrolled code.
// The int8 tile is MR x 16: one int32 accumulator lane per output column
// across the pair-interleaved panel.
constexpr std::int64_t kMr = 4;
constexpr std::int64_t kNrF = kGemmNrF32;
constexpr std::int64_t kNrIP = kGemmNrI8;

// MR x (NP * kNrF) tile over NP adjacent packed B panels: each panel holds
// k groups of kNrF column values, contiguous per k step. SIMD runs across
// the output columns, so each output's per-element accumulation order (bias
// first, k ascending) is exactly the reference kernels' — results agree with
// the reference path to within FMA-contraction rounding. Two panels give
// 4 x 2 independent accumulators, enough to cover the FMA latency; one
// panel (the n % 16 <= 8 tail) gets 4. Accumulators are named vector
// variables, not arrays: GCC reliably keeps them in ymm registers, where an
// indexed array spills to the stack and throughput drops ~6x. The last
// tile of a problem computes all lanes over zero-padded B and bias, and
// stores only its nr real columns. The fused activation runs on the
// accumulators through activate_v8 (activation.h).

// Unaligned-load flavour for B panels and bias columns.
using v8f_u = float __attribute__((vector_size(32), aligned(4)));

// Activates and stores one panel row: a single vector store when the
// panel is full, the nr < kNrF real columns lane by lane otherwise.
inline void store_v8(float* dst, const v8f& acc, Activation act,
                     std::int64_t nr) {
  v8f v = acc;
  activate_v8(v, act);
  if (nr >= kNrF) {
    __builtin_memcpy(dst, &v, sizeof(v));
  } else {
    for (std::int64_t j = 0; j < nr; ++j) dst[j] = v[j];
  }
}

template <int MR, int NP>
inline void tile_f32_packed(std::int64_t k, const float* a, std::int64_t lda,
                            const float* bp, const float* bias, Activation act,
                            float* c, std::int64_t ldc, std::int64_t nr) {
  const float* bq = bp + (NP > 1 ? k * kNrF : 0);  // the second panel
  const v8f bias0 = *reinterpret_cast<const v8f_u*>(bias);
  const v8f bias1 =
      NP > 1 ? *reinterpret_cast<const v8f_u*>(bias + kNrF) : v8f{};
  v8f acc00 = bias0, acc10 = bias0, acc20 = bias0, acc30 = bias0;
  v8f acc01 = bias1, acc11 = bias1, acc21 = bias1, acc31 = bias1;
  const float* a0 = a;
  const float* a1 = a + (MR > 1 ? lda : 0);
  const float* a2 = a + (MR > 2 ? 2 * lda : 0);
  const float* a3 = a + (MR > 3 ? 3 * lda : 0);
  for (std::int64_t kk = 0; kk < k; ++kk) {
    const v8f b0 = *reinterpret_cast<const v8f_u*>(bp + kk * kNrF);
    acc00 += a0[kk] * b0;
    if constexpr (MR > 1) acc10 += a1[kk] * b0;
    if constexpr (MR > 2) acc20 += a2[kk] * b0;
    if constexpr (MR > 3) acc30 += a3[kk] * b0;
    if constexpr (NP > 1) {
      const v8f b1 = *reinterpret_cast<const v8f_u*>(bq + kk * kNrF);
      acc01 += a0[kk] * b1;
      if constexpr (MR > 1) acc11 += a1[kk] * b1;
      if constexpr (MR > 2) acc21 += a2[kk] * b1;
      if constexpr (MR > 3) acc31 += a3[kk] * b1;
    }
  }
  // Direct calls rather than a per-row lambda: a lambda taking the
  // accumulators by reference keeps them addressable until it is inlined,
  // and GCC then sizes the 4x2 tile's frame too large to inline it into
  // tile_f32_rows.
  store_v8(c, acc00, act, nr);
  if constexpr (NP > 1) store_v8(c + kNrF, acc01, act, nr - kNrF);
  if constexpr (MR > 1) {
    store_v8(c + ldc, acc10, act, nr);
    if constexpr (NP > 1) store_v8(c + ldc + kNrF, acc11, act, nr - kNrF);
  }
  if constexpr (MR > 2) {
    store_v8(c + 2 * ldc, acc20, act, nr);
    if constexpr (NP > 1) store_v8(c + 2 * ldc + kNrF, acc21, act, nr - kNrF);
  }
  if constexpr (MR > 3) {
    store_v8(c + 3 * ldc, acc30, act, nr);
    if constexpr (NP > 1) store_v8(c + 3 * ldc + kNrF, acc31, act, nr - kNrF);
  }
}

template <int NP>
inline void tile_f32_rows(std::int64_t mr, std::int64_t k, const float* a,
                          std::int64_t lda, const float* bp, const float* bias,
                          Activation act, float* c, std::int64_t ldc,
                          std::int64_t nr) {
  switch (mr) {
    case 4: tile_f32_packed<4, NP>(k, a, lda, bp, bias, act, c, ldc, nr); break;
    case 3: tile_f32_packed<3, NP>(k, a, lda, bp, bias, act, c, ldc, nr); break;
    case 2: tile_f32_packed<2, NP>(k, a, lda, bp, bias, act, c, ldc, nr); break;
    default: tile_f32_packed<1, NP>(k, a, lda, bp, bias, act, c, ldc, nr); break;
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
// rather than reduce-bound. A arrives as a pre-widened int16 tile whose
// rows are padded to an even length with a zero (see the A sources below),
// so each pair is one 32-bit load; B's column padding and odd-k tail are
// zero-filled at pack time, so no tier needs an edge path.
//
// Tiered by ISA: AVX-512BW (one 64-byte madd per k pair), AVX2 (two
// 32-byte madds), and GNU vectors elsewhere (exact int16 products widened
// and summed per pair: vector extensions cannot spell vpmaddwd). Integer
// accumulation is exact and order-free, so all tiers are bit-identical.
// Overflow: an int8*int8 product is at most 2^14 and a pair at most 2^15,
// so int32 lanes are safe until k > 2^16 — far beyond any shape this
// runtime sees.

// The broadcast A operand for k pair p: two consecutive int16 activations.
inline std::int32_t a_pair(const std::int16_t* a, std::int64_t p) {
  std::int32_t pair;
  __builtin_memcpy(&pair, a + 2 * p, sizeof(pair));
  return pair;
}

#if defined(__AVX512BW__) && defined(__AVX512F__)

template <int MR>
inline void tile_i8_pairs(std::int64_t k2, const std::int16_t* a,
                          std::int64_t lda, const std::int16_t* bp,
                          std::int32_t acc_out[][kNrIP]) {
  __m512i acc[MR];
  for (int i = 0; i < MR; ++i) acc[i] = _mm512_setzero_si512();
  for (std::int64_t p = 0; p < k2; ++p) {
    const __m512i bv = _mm512_loadu_si512(bp + p * 2 * kNrIP);
    for (int i = 0; i < MR; ++i) {
      const __m512i av = _mm512_set1_epi32(a_pair(a + i * lda, p));
      acc[i] = _mm512_add_epi32(acc[i], _mm512_madd_epi16(av, bv));
    }
  }
  for (int i = 0; i < MR; ++i) {
    _mm512_storeu_si512(acc_out[i], acc[i]);
  }
}

#elif defined(__AVX2__)

template <int MR>
inline void tile_i8_pairs(std::int64_t k2, const std::int16_t* a,
                          std::int64_t lda, const std::int16_t* bp,
                          std::int32_t acc_out[][kNrIP]) {
  __m256i acc[MR][2];
  for (int i = 0; i < MR; ++i) {
    acc[i][0] = _mm256_setzero_si256();
    acc[i][1] = _mm256_setzero_si256();
  }
  for (std::int64_t p = 0; p < k2; ++p) {
    const __m256i bv0 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(bp + p * 2 * kNrIP));
    const __m256i bv1 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(bp + p * 2 * kNrIP + kNrIP));
    for (int i = 0; i < MR; ++i) {
      const __m256i av = _mm256_set1_epi32(a_pair(a + i * lda, p));
      acc[i][0] = _mm256_add_epi32(acc[i][0], _mm256_madd_epi16(av, bv0));
      acc[i][1] = _mm256_add_epi32(acc[i][1], _mm256_madd_epi16(av, bv1));
    }
  }
  for (int i = 0; i < MR; ++i) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc_out[i]), acc[i][0]);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc_out[i] + 8),
                        acc[i][1]);
  }
}

#else

// Generic SIMD via GNU vector extensions (NEON etc.): exact int16 products
// per pair (|int8 * int8| <= 2^14), widened per column and summed into the
// 8-lane int32 accumulator each 16-int16 block owns.
using v16s16_p = std::int16_t __attribute__((vector_size(32), aligned(2)));
using v8s16_p = std::int16_t __attribute__((vector_size(16)));
using v8s32_p = std::int32_t __attribute__((vector_size(32)));

template <int MR>
inline void tile_i8_pairs(std::int64_t k2, const std::int16_t* a,
                          std::int64_t lda, const std::int16_t* bp,
                          std::int32_t acc_out[][kNrIP]) {
  v8s32_p acc[MR][2] = {};
  for (std::int64_t p = 0; p < k2; ++p) {
    v16s16_p bv[2];
    __builtin_memcpy(&bv[0], bp + p * 2 * kNrIP, sizeof(bv[0]));
    __builtin_memcpy(&bv[1], bp + p * 2 * kNrIP + kNrIP, sizeof(bv[1]));
    for (int i = 0; i < MR; ++i) {
      // The pair broadcast to every int32 lane is (a[2p], a[2p+1]) repeated
      // across the 16 int16 lanes.
      const v16s16_p av = (v16s16_p)((v8s32_p){} + a_pair(a + i * lda, p));
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
  }
  for (int i = 0; i < MR; ++i) {
    __builtin_memcpy(acc_out[i], &acc[i][0], sizeof(acc[i][0]));
    __builtin_memcpy(acc_out[i] + 8, &acc[i][1], sizeof(acc[i][1]));
  }
}

#endif

inline void panel_i8_pairs(std::int64_t mr, std::int64_t k2,
                           const std::int16_t* a, std::int64_t lda,
                           const std::int16_t* bp,
                           std::int32_t acc[kMr][kNrIP]) {
  switch (mr) {
    case 4: tile_i8_pairs<4>(k2, a, lda, bp, acc); break;
    case 3: tile_i8_pairs<3>(k2, a, lda, bp, acc); break;
    case 2: tile_i8_pairs<2>(k2, a, lda, bp, acc); break;
    default: tile_i8_pairs<1>(k2, a, lda, bp, acc); break;
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

inline std::int32_t hsum_epi32(const __m256i& v) {
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

// Requantizes the raw accumulators of columns [j0, j0 + nr) into dst:
// zero-point correction through the packed column sums, bias, per-channel
// Q31 multiplier, output zero point, activation clamp. On small-k GEMMs the
// epilogue costs as much as the dot products, so every column takes the
// 8-lane form (requant_clamp_store_i8_v8, fixed_point.h): the per-column
// arrays are zero-padded to gemm_i8_padded_cols(n) and acc holds a lane for
// each padded column, so the last nr % 8 columns run one more 8-lane
// requant and only their real bytes are stored.
inline void requant_store_i8(const std::int32_t* acc, std::int64_t j0,
                             std::int64_t nr, const GemmQuant& q,
                             const std::int32_t* col_sums, std::int8_t* dst) {
  const v8s32_fx zp_a = (v8s32_fx){} + q.a_zero_point;
  for (std::int64_t j = 0; j < nr; j += kGemmRequantLanes) {
    const std::size_t col = static_cast<std::size_t>(j0 + j);
    v8s32_fx accv, cs, bs, mu, sh;
    __builtin_memcpy(&accv, acc + j, sizeof(accv));
    __builtin_memcpy(&cs, col_sums + col, sizeof(cs));
    __builtin_memcpy(&bs, q.bias + col, sizeof(bs));
    __builtin_memcpy(&mu, q.multipliers + col, sizeof(mu));
    __builtin_memcpy(&sh, q.shifts + col, sizeof(sh));
    const v8s32_fx sum = accv - zp_a * cs + bs;
    if (j + kGemmRequantLanes <= nr) {
      requant_clamp_store_i8_v8(sum, mu, -sh, q.out_zero_point, q.act_min,
                                q.act_max, dst + j);
    } else {
      std::int8_t tail[kGemmRequantLanes];
      requant_clamp_store_i8_v8(sum, mu, -sh, q.out_zero_point, q.act_min,
                                q.act_max, tail);
      std::memcpy(dst + j, tail, static_cast<std::size_t>(nr - j));
    }
  }
}

// One A row against all n raw k-major B rows, in column chunks.
void matvec_i8(std::int64_t n, std::int64_t k, const std::int8_t* a,
               const std::int8_t* b, std::int64_t ldb, const GemmQuant& q,
               const std::int32_t* col_sums, std::int8_t* c) {
  constexpr std::int64_t kMvCols = 64;
  static_assert(kMvCols % kGemmRequantLanes == 0);
  std::int32_t acc[kMvCols];
  for (std::int64_t j0 = 0; j0 < n; j0 += kMvCols) {
    const std::int64_t nc = std::min(kMvCols, n - j0);
    matvec_i8_kmajor(nc, k, a, b + j0 * ldb, ldb, acc);
    // The 8-lane requant reads the padded columns' lanes too.
    std::fill(acc + nc, acc + gemm_i8_padded_cols(nc), 0);
    requant_store_i8(acc, j0, nc, q, col_sums, c + j0);
  }
}

// ---------------------------------------------------------------------------
// Where a row tile's A comes from. The row-block drivers below call
// rows.tile(i0, mr, worker) once per MR-row tile and read the returned rows
// at stride rows.lda for every N panel. f32 tiles hold f32. int8 tiles
// hold the activations widened to int16, each row padded to an even length
// with a zero, so the microkernel's every k pair is one 32-bit load.
// ---------------------------------------------------------------------------

// Tile row stride: k for f32, k rounded up to even for int16.
template <typename D>
std::int64_t tile_lda(std::int64_t k) {
  return std::is_same_v<D, float> ? k : (k + 1) / 2 * 2;
}

// One worker's MR-row tile buffer, padded to 64 bytes.
template <typename D>
std::int64_t tile_slice_bytes(std::int64_t k) {
  const auto bytes =
      kMr * tile_lda<D>(k) * static_cast<std::int64_t>(sizeof(D));
  return (bytes + 63) / 64 * 64;
}

// Per-worker tile buffers carved from the caller's scratch.
template <typename D>
struct TileSlices {
  std::uint8_t* base;
  std::int64_t slice_bytes;
  D* operator()(std::size_t worker) const {
    return reinterpret_cast<D*>(
        base + static_cast<std::int64_t>(worker) * slice_bytes);
  }
};

template <typename D>
TileSlices<D> tile_slices(std::int64_t k, void* scratch) {
  MLX_CHECK(scratch != nullptr) << "GEMM A-tile scratch missing";
  return {static_cast<std::uint8_t*>(scratch), tile_slice_bytes<D>(k)};
}

// n values from src to dst, widened when the tile type is wider.
template <typename T, typename D>
inline void copy_run(D* dst, const T* src, std::int64_t n) {
  if constexpr (std::is_same_v<T, D>) {
    std::memcpy(dst, src, static_cast<std::size_t>(n) * sizeof(T));
  } else {
    for (std::int64_t i = 0; i < n; ++i) dst[i] = src[i];
  }
}

// A plain row-major f32 matrix (FC, pointwise conv): the tile's rows in
// place.
struct MatrixRows {
  const float* a;
  std::int64_t lda;
  const float* tile(std::int64_t i0, std::int64_t /*mr*/,
                    std::size_t /*worker*/) const {
    return a + i0 * lda;
  }
};

// A plain row-major int8 matrix (batched FC, pointwise conv): the tile's
// rows widened into the worker's slice.
struct WidenedRows {
  const std::int8_t* a;
  std::int64_t a_ld;
  std::int64_t k;
  TileSlices<std::int16_t> slices;
  std::int64_t lda;  // tile_lda<std::int16_t>(k)
  const std::int16_t* tile(std::int64_t i0, std::int64_t mr,
                           std::size_t worker) const {
    std::int16_t* dst = slices(worker);
    for (std::int64_t r = 0; r < mr; ++r) {
      std::int16_t* row = dst + r * lda;
      copy_run(row, a + (i0 + r) * a_ld, k);
      std::fill(row + k, row + lda, std::int16_t{0});
    }
    return dst;
  }
};

// Gathers the receptive fields of conv output pixels [i0, i0 + mr) into dst
// (row stride ldd >= g.patch(), the tail zero-filled), in OHWI (fy, fx, ic)
// order; taps outside the input hold `pad`. A filter row whose kw taps are
// all in bounds is one contiguous kw * in_ch run of the NHWC input and is
// copied whole.
template <typename T, typename D>
void gather_patches(const ConvGeometry& g, const T* x, D pad, std::int64_t i0,
                    std::int64_t mr, D* dst, std::int64_t ldd) {
  const std::int64_t run = g.kw * g.in_ch;
  std::int64_t ox = i0 % g.out_w;
  std::int64_t oy = (i0 / g.out_w) % g.out_h;
  std::int64_t n = i0 / (g.out_w * g.out_h);
  for (std::int64_t r = 0; r < mr; ++r) {
    const std::int64_t iy0 = oy * g.stride_h - g.pad_h;
    const std::int64_t ix0 = ox * g.stride_w - g.pad_w;
    const bool row_inside = ix0 >= 0 && ix0 + g.kw <= g.in_w;
    D* row = dst + r * ldd;
    for (int fy = 0; fy < g.kh; ++fy) {
      D* d = row + fy * run;
      const std::int64_t iy = iy0 + fy;
      if (iy < 0 || iy >= g.in_h) {
        std::fill_n(d, run, pad);
        continue;
      }
      const T* src = x + (n * g.in_h + iy) * g.in_w * g.in_ch;
      if (row_inside) {
        copy_run(d, src + ix0 * g.in_ch, run);
        continue;
      }
      for (int fx = 0; fx < g.kw; ++fx) {
        const std::int64_t ix = ix0 + fx;
        D* dt = d + fx * g.in_ch;
        if (ix < 0 || ix >= g.in_w) {
          std::fill_n(dt, g.in_ch, pad);
        } else {
          copy_run(dt, src + ix * g.in_ch, g.in_ch);
        }
      }
    }
    std::fill(row + g.patch(), row + ldd, D{0});
    if (++ox == g.out_w) {
      ox = 0;
      if (++oy == g.out_h) {
        oy = 0;
        ++n;
      }
    }
  }
}

// Conv receptive fields, gathered per tile into the worker's slice.
template <typename T, typename D = T>
struct PatchRows {
  const ConvGeometry& g;
  const T* x;
  D pad;
  TileSlices<D> slices;
  std::int64_t lda;  // tile_lda<D>(g.patch())
  const D* tile(std::int64_t i0, std::int64_t mr, std::size_t worker) const {
    D* dst = slices(worker);
    gather_patches(g, x, pad, i0, mr, dst, lda);
    return dst;
  }
};

// The row-block driver both GEMMs share: runs body(i0, mr, a_tile) for each
// MR-row tile of C, where a_tile holds the tile's A rows (stride rows.lda)
// and is fetched once for every N panel. Tiles are spread over `pool` (a
// null ref runs them inline); the worker id selects the worker's own
// gather buffer.
template <typename Rows, typename Body>
void for_each_row_tile(const Rows& rows, std::int64_t m, PoolRef pool,
                       const Body& body) {
  auto run = [&](std::size_t tile_lo, std::size_t tile_hi,
                 std::size_t worker) {
    for (std::size_t t = tile_lo; t < tile_hi; ++t) {
      const std::int64_t i0 = static_cast<std::int64_t>(t) * kMr;
      const std::int64_t mr = std::min(kMr, m - i0);
      body(i0, mr, rows.tile(i0, mr, worker));
    }
  };
  pool.parallel_for_workers(0, static_cast<std::size_t>((m + kMr - 1) / kMr),
                            run);
}

template <typename Rows>
void gemm_f32_rows(std::int64_t m, std::int64_t n, std::int64_t k,
                   const Rows& rows, const float* bias, Activation act,
                   float* c, std::int64_t ldc, PoolRef pool,
                   const PackedBF32& packed) {
  if (m <= 0 || n <= 0) return;
  MLX_CHECK_EQ(packed.panel_count, (n + kNrF - 1) / kNrF)
      << "B panels packed for another n";
  // Kernel-level fault point: lets tests originate an MLX_CHECK-style
  // failure inside a real kernel (not just the plan walk) and assert it is
  // contained at the session boundary.
  if (fault::enabled()) fault::check(fault_sites::kKernelGemm);
  // Column tiles are two panels wide while more than one panel remains;
  // only the last tile (at j_tail) can be partial. Its bias is read from a
  // zero-padded copy, so the tile never reads bias[j] past n.
  constexpr std::int64_t kTileCols = 2 * kNrF;
  const std::int64_t j_tail = n > kNrF ? (n - 1) / kTileCols * kTileCols : 0;
  float bias_tail[kTileCols] = {};
  std::copy(bias + j_tail, bias + n, bias_tail);
  for_each_row_tile(rows, m, pool,
                    [&](std::int64_t i0, std::int64_t mr, const float* at) {
    float* ct = c + i0 * ldc;
    for (std::int64_t j0 = 0; j0 < n; j0 += kTileCols) {
      const float* bp = packed.panels + (j0 / kNrF) * k * kNrF;
      const float* bj = j0 == j_tail ? bias_tail : bias + j0;
      const std::int64_t nr = std::min(kTileCols, n - j0);
      if (nr > kNrF) {
        tile_f32_rows<2>(mr, k, at, rows.lda, bp, bj, act, ct + j0, ldc, nr);
      } else {
        tile_f32_rows<1>(mr, k, at, rows.lda, bp, bj, act, ct + j0, ldc, nr);
      }
    }
  });
}

// The int8 GEMM over a source of int16 A tiles (m > 1; gemm_i8_nt and
// conv_gemm_i8 send m == 1 to matvec_i8 on the raw int8 row).
template <typename Rows>
void gemm_i8_rows(std::int64_t m, std::int64_t n, std::int64_t k,
                  const Rows& rows, const GemmQuant& q, std::int8_t* c,
                  std::int64_t ldc, PoolRef pool, const PackedBI8& packed) {
  if (m <= 0 || n <= 0) return;
  const std::int64_t k2 = (k + 1) / 2;
  const auto* p16 = reinterpret_cast<const std::int16_t*>(packed.panels);
  // Pair-broadcast microkernel over the pair-interleaved panels.
  // Accumulation is *raw* (no per-element zero-point subtraction); the
  // epilogue corrects with the prepacked column sums. Integer math is exact,
  // so the result equals sum_k (a - zp) * b to the bit.
  for_each_row_tile(rows, m, pool,
                    [&](std::int64_t i0, std::int64_t mr,
                        const std::int16_t* at) {
    std::int8_t* ct = c + i0 * ldc;
    for (std::int64_t j0 = 0; j0 < n; j0 += kNrIP) {
      std::int32_t acc[kMr][kNrIP];
      panel_i8_pairs(mr, k2, at, rows.lda,
                     p16 + (j0 / kNrIP) * k2 * 2 * kNrIP, acc);
      for (std::int64_t i = 0; i < mr; ++i) {
        requant_store_i8(acc[i], j0, std::min(kNrIP, n - j0), q,
                         packed.col_sums, ct + i * ldc + j0);
      }
    }
  });
}

}  // namespace

std::int64_t packed_b_f32_floats(std::int64_t n, std::int64_t k) {
  return (n + kNrF - 1) / kNrF * k * kNrF;
}

void pack_b_f32(std::int64_t n, std::int64_t k, const float* b,
                std::int64_t ldb, float* panels) {
  // Columns past n are zeros: the last panel's padded lanes accumulate
  // exactly their (zero) bias and are never stored.
  const std::int64_t panel_count = (n + kNrF - 1) / kNrF;
  for (std::int64_t panel = 0; panel < panel_count; ++panel) {
    float* pdst = panels + panel * k * kNrF;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      for (std::int64_t j = 0; j < kNrF; ++j) {
        const std::int64_t col = panel * kNrF + j;
        pdst[kk * kNrF + j] = col < n ? b[col * ldb + kk] : 0.0f;
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
  std::fill(col_sums + n, col_sums + gemm_i8_padded_cols(n), 0);
}

void gemm_f32_nt(std::int64_t m, std::int64_t n, std::int64_t k,
                 const float* a, std::int64_t lda, const float* bias,
                 Activation act, float* c, std::int64_t ldc, PoolRef pool,
                 const PackedBF32& packed) {
  gemm_f32_rows(m, n, k, MatrixRows{a, lda}, bias, act, c, ldc, pool, packed);
}

std::size_t gemm_i8_tile_bytes(std::int64_t k, std::size_t workers) {
  return static_cast<std::size_t>(tile_slice_bytes<std::int16_t>(k)) *
         workers;
}

void gemm_i8_nt(std::int64_t m, std::int64_t n, std::int64_t k,
                const std::int8_t* a, std::int64_t lda, const std::int8_t* b,
                std::int64_t ldb, const GemmQuant& q, std::int8_t* c,
                std::int64_t ldc, PoolRef pool, const PackedBI8& packed,
                void* a_tiles) {
  if (m <= 0 || n <= 0) return;
  // Shape dispatch: m == 1 (batch-1 FC / 1x1-output convs) walks raw
  // k-major B rows instead of the pair-interleaved panels — with a single A
  // row the panel walk has no load reuse and regressed matvec latency ~2.7x
  // (see ROADMAP note). Same raw accumulators + identical col_sums
  // epilogue, so the result is bit-exact vs the panel path (the naive-loop
  // parity tests pin both).
  if (m == 1) {
    matvec_i8(n, k, a, b, ldb, q, packed.col_sums, c);
    return;
  }
  gemm_i8_rows(m, n, k,
               WidenedRows{a, lda, k, tile_slices<std::int16_t>(k, a_tiles),
                           tile_lda<std::int16_t>(k)},
               q, c, ldc, pool, packed);
}

std::size_t conv_gather_bytes(const ConvGeometry& g, std::size_t elem_bytes,
                              std::size_t workers) {
  if (elem_bytes == sizeof(std::int8_t)) {
    return gemm_i8_tile_bytes(g.patch(), workers);
  }
  if (g.pointwise()) return 0;
  return static_cast<std::size_t>(tile_slice_bytes<float>(g.patch())) *
         workers;
}

void conv_gemm_f32(const ConvGeometry& g, const float* x, const float* bias,
                   Activation act, float* y, PoolRef pool,
                   const PackedBF32& packed, void* gather) {
  if (g.pointwise()) {
    gemm_f32_nt(g.rows(), g.out_ch, g.in_ch, x, g.in_ch, bias, act, y,
                g.out_ch, pool, packed);
    return;
  }
  const std::int64_t k = g.patch();
  gemm_f32_rows(g.rows(), g.out_ch, k,
                PatchRows<float>{g, x, 0.0f, tile_slices<float>(k, gather), k},
                bias, act, y, g.out_ch, pool, packed);
}

void conv_gemm_i8(const ConvGeometry& g, const std::int8_t* x,
                  const std::int8_t* w, const GemmQuant& q, std::int8_t* y,
                  PoolRef pool, const PackedBI8& packed, void* gather) {
  const std::int64_t k = g.patch();
  if (g.pointwise()) {
    gemm_i8_nt(g.rows(), g.out_ch, k, x, k, w, k, q, y, g.out_ch, pool,
               packed, gather);
    return;
  }
  // Padded taps hold the input zero point, so (tap - zp) * w contributes 0 —
  // identical to the reference kernel's skipped out-of-bounds taps.
  const auto pad = static_cast<std::int8_t>(q.a_zero_point);
  if (g.rows() == 1) {
    // One output pixel: the matvec reads its receptive field as raw int8,
    // gathered into the scratch (k bytes fit in one worker's int16 tile).
    MLX_CHECK(gather != nullptr) << "GEMM A-tile scratch missing";
    auto* row = static_cast<std::int8_t*>(gather);
    gather_patches(g, x, pad, 0, 1, row, k);
    matvec_i8(g.out_ch, k, row, w, k, q, packed.col_sums, y);
    return;
  }
  gemm_i8_rows(g.rows(), g.out_ch, k,
               PatchRows<std::int8_t, std::int16_t>{
                   g, x, pad, tile_slices<std::int16_t>(k, gather),
                   tile_lda<std::int16_t>(k)},
               q, y, g.out_ch, pool, packed);
}

}  // namespace mlexray
