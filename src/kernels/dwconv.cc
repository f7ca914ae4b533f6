#include "src/kernels/dwconv.h"

#include <algorithm>
#include <atomic>
#include <cstring>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

#include "src/kernels/activation.h"
#include "src/kernels/fixed_point.h"

namespace mlexray {
namespace {

std::atomic<int> g_tier_override{0};  // DwConvTier

// Stencil windows this large get the inline-bounds fallback instead of the
// per-pixel tap-pointer table (nothing in the model zoo comes close).
constexpr std::int64_t kMaxTaps = 64;

enum class Tier { kAvx2, kGeneric, kScalar };

Tier best_tier() {
#if defined(__AVX2__)
  return Tier::kAvx2;
#elif defined(__GNUC__) || defined(__clang__)
  return Tier::kGeneric;
#else
  return Tier::kScalar;
#endif
}

Tier resolve_tier() {
  switch (g_tier_override.load(std::memory_order_relaxed)) {
    case static_cast<int>(DwConvTier::kScalar):
      return Tier::kScalar;
    case static_cast<int>(DwConvTier::kGenericVector):
#if defined(__GNUC__) || defined(__clang__)
      return Tier::kGeneric;
#else
      return Tier::kScalar;
#endif
    default:
      return best_tier();
  }
}

// Per-pixel table of tap source pointers (channel 0 of the input pixel each
// filter tap reads); nullptr marks an out-of-bounds tap.
template <typename T>
inline void build_tap_src(const DwConvShape& s, const T* x, std::int64_t n,
                          std::int64_t oy, std::int64_t ox, const T** src) {
  std::int64_t t = 0;
  for (int fy = 0; fy < s.kh; ++fy) {
    const std::int64_t iy = oy * s.stride_h - s.pad_h + fy;
    const bool row_ok = iy >= 0 && iy < s.in_h;
    const T* row = row_ok ? x + (n * s.in_h + iy) * s.in_w * s.in_ch : nullptr;
    for (int fx = 0; fx < s.kw; ++fx) {
      const std::int64_t ix = ox * s.stride_w - s.pad_w + fx;
      src[t++] = (row_ok && ix >= 0 && ix < s.in_w) ? row + ix * s.in_ch
                                                    : nullptr;
    }
  }
}

// --- int8 epilogue ----------------------------------------------------------

inline void requant_store_i8(const PackedDwI8& p, std::int64_t c,
                             std::int32_t acc, std::int8_t* yp) {
  const auto ch = static_cast<std::size_t>(c);
  acc += p.acc_init[ch];
  const std::int32_t scaled =
      multiply_by_quantized_multiplier(acc, p.multipliers[ch], p.shifts[ch]);
  const std::int32_t q =
      std::clamp(scaled + p.out_zp, p.act_min, p.act_max);
  yp[c] = static_cast<std::int8_t>(q);
}

// Raw (no zero-point subtraction) dot product for one output channel from a
// tap table; out-of-bounds taps contribute in_zp * w, matching the full-tap
// weight sum folded into acc_init.
inline std::int32_t chan_acc_i8(const PackedDwI8& p, std::int64_t taps,
                                std::int64_t out_ch,
                                const std::int8_t* const* tap,
                                std::int64_t ic, std::int64_t oc) {
  std::int32_t acc = 0;
  for (std::int64_t t = 0; t < taps; ++t) {
    const std::int32_t xq = tap[t] != nullptr ? tap[t][ic] : p.in_zp;
    acc += xq * p.weights[t * out_ch + oc];
  }
  return acc;
}

// Scalar tier / depth-multiplier path / the last ch % 8 channels.
inline void pixel_i8_scalar(const DwConvShape& s, const PackedDwI8& p,
                            const std::int8_t* const* tap, std::int8_t* yp) {
  const std::int64_t taps = static_cast<std::int64_t>(s.kh) * s.kw;
  for (std::int64_t oc = 0; oc < s.out_ch; ++oc) {
    requant_store_i8(
        p, oc, chan_acc_i8(p, taps, s.out_ch, tap, oc / s.depth_mult, oc), yp);
  }
}

#if defined(__GNUC__) || defined(__clang__)

// Generic SIMD via GCC vector extensions: 16 channels per block, int8
// activations widened to int16, pre-widened int16 weights, exact int16
// products (|int8 * int8| <= 2^14) widened into two 8-lane int32
// accumulators. Integer math is exact, so this is bit-identical to the
// scalar tier in any accumulation order.
using v16s8_u = std::int8_t __attribute__((vector_size(16), aligned(1)));
using v8s8_u = std::int8_t __attribute__((vector_size(8), aligned(1)));
using v16s16 = std::int16_t __attribute__((vector_size(32)));
using v16s16_u = std::int16_t __attribute__((vector_size(32), aligned(2)));
using v8s16 = std::int16_t __attribute__((vector_size(16)));
using v8s16_u = std::int16_t __attribute__((vector_size(16), aligned(2)));
using v8s32 = std::int32_t __attribute__((vector_size(32)));

inline v16s16 dw_widen_i8x16(const std::int8_t* p) {
  v16s8_u v;
  __builtin_memcpy(&v, p, sizeof(v));
  return __builtin_convertvector(v, v16s16);
}

// Vectorized requant for the 8 channels at c, bit-identical to
// requant_store_i8 per lane (the conformance grid compares the vector tiers
// against the fully scalar tier byte for byte). The one int8 epilogue of
// both vector tiers, whose cost otherwise rivals the stencil loop for small
// windows.
inline void requant_store_i8_v8(const PackedDwI8& p, std::int64_t c,
                                v8s32_fx acc, std::int8_t* yp) {
  v8s32_fx init, mu, sh;
  __builtin_memcpy(&init, p.acc_init + c, sizeof(init));
  __builtin_memcpy(&mu, p.multipliers + c, sizeof(mu));
  __builtin_memcpy(&sh, p.shifts + c, sizeof(sh));
  requant_clamp_store_i8_v8(acc + init, mu, -sh, p.out_zp, p.act_min,
                            p.act_max, yp + c);
}

// The channels both vector tiers leave after their 16-lane blocks: one
// 8-lane block when at least 8 remain (same widening products as the
// 16-lane loop, half as wide), then the last ch % 8 channels scalar.
inline void pixel_i8_tail(const PackedDwI8& p, std::int64_t taps,
                          std::int64_t ch, const std::int8_t* const* tap,
                          std::int64_t c, std::int8_t* yp) {
  if (c + 8 <= ch) {
    const v8s16 zp_v = (v8s16){} + static_cast<std::int16_t>(p.in_zp);
    v8s32 acc{};
    for (std::int64_t t = 0; t < taps; ++t) {
      v8s16 xv = zp_v;
      if (tap[t] != nullptr) {
        v8s8_u x8;
        __builtin_memcpy(&x8, tap[t] + c, sizeof(x8));
        xv = __builtin_convertvector(x8, v8s16);
      }
      v8s16_u wv;
      __builtin_memcpy(&wv, p.weights + t * ch + c, sizeof(wv));
      acc += __builtin_convertvector(xv * wv, v8s32);  // exact in int16
    }
    requant_store_i8_v8(p, c, acc, yp);
    c += 8;
  }
  for (; c < ch; ++c) {
    requant_store_i8(p, c, chan_acc_i8(p, taps, ch, tap, c, c), yp);
  }
}

inline void pixel_i8_generic(const DwConvShape& s, const PackedDwI8& p,
                             const std::int8_t* const* tap, std::int8_t* yp) {
  const std::int64_t taps = static_cast<std::int64_t>(s.kh) * s.kw;
  const std::int64_t ch = s.out_ch;
  const v16s16 zp_v = (v16s16){} + static_cast<std::int16_t>(p.in_zp);
  std::int64_t c = 0;
  for (; c + kDwLanesI8 <= ch; c += kDwLanesI8) {
    v8s32 acc_lo{};
    v8s32 acc_hi{};
    for (std::int64_t t = 0; t < taps; ++t) {
      const v16s16 xv =
          tap[t] != nullptr ? dw_widen_i8x16(tap[t] + c) : zp_v;
      v16s16_u wv;
      __builtin_memcpy(&wv, p.weights + t * ch + c, sizeof(wv));
      const v16s16 prod = xv * wv;  // exact in int16
      const v8s16 lo =
          __builtin_shufflevector(prod, prod, 0, 1, 2, 3, 4, 5, 6, 7);
      const v8s16 hi =
          __builtin_shufflevector(prod, prod, 8, 9, 10, 11, 12, 13, 14, 15);
      acc_lo += __builtin_convertvector(lo, v8s32);
      acc_hi += __builtin_convertvector(hi, v8s32);
    }
    requant_store_i8_v8(p, c, acc_lo, yp);
    requant_store_i8_v8(p, c + 8, acc_hi, yp);
  }
  pixel_i8_tail(p, taps, ch, tap, c, yp);
}

#endif  // __GNUC__ || __clang__

#if defined(__AVX2__)

// AVX2 tier: same shape as the generic tier, but the widening loads/product
// splits are spelled with intrinsics (vpmovsxbw + vpmullw + vpmovsxwd) so
// the block never leaves the ymm registers regardless of the vectorizer's
// mood. The channel order stays linear (no in-lane unpack scramble), so the
// shared requant epilogue indexes channels directly.
inline void pixel_i8_avx2(const DwConvShape& s, const PackedDwI8& p,
                          const std::int8_t* const* tap, std::int8_t* yp) {
  const std::int64_t taps = static_cast<std::int64_t>(s.kh) * s.kw;
  const std::int64_t ch = s.out_ch;
  const __m256i zp_v = _mm256_set1_epi16(static_cast<short>(p.in_zp));
  std::int64_t c = 0;
  for (; c + kDwLanesI8 <= ch; c += kDwLanesI8) {
    __m256i acc_lo = _mm256_setzero_si256();
    __m256i acc_hi = _mm256_setzero_si256();
    for (std::int64_t t = 0; t < taps; ++t) {
      const __m256i xv =
          tap[t] != nullptr
              ? _mm256_cvtepi8_epi16(_mm_loadu_si128(
                    reinterpret_cast<const __m128i*>(tap[t] + c)))
              : zp_v;
      const __m256i wv = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(p.weights + t * ch + c));
      const __m256i prod = _mm256_mullo_epi16(xv, wv);  // exact in int16
      acc_lo = _mm256_add_epi32(
          acc_lo, _mm256_cvtepi16_epi32(_mm256_castsi256_si128(prod)));
      acc_hi = _mm256_add_epi32(
          acc_hi, _mm256_cvtepi16_epi32(_mm256_extracti128_si256(prod, 1)));
    }
    requant_store_i8_v8(p, c, reinterpret_cast<v8s32_fx>(acc_lo), yp);
    requant_store_i8_v8(p, c + 8, reinterpret_cast<v8s32_fx>(acc_hi), yp);
  }
  pixel_i8_tail(p, taps, ch, tap, c, yp);
}

#endif  // __AVX2__

// Inline-bounds fallback for windows too large for the tap table.
inline void pixel_i8_huge(const DwConvShape& s, const PackedDwI8& p,
                          const std::int8_t* x, std::int64_t n,
                          std::int64_t oy, std::int64_t ox, std::int8_t* yp) {
  for (std::int64_t oc = 0; oc < s.out_ch; ++oc) {
    const std::int64_t ic = oc / s.depth_mult;
    std::int32_t acc = 0;
    for (int fy = 0; fy < s.kh; ++fy) {
      const std::int64_t iy = oy * s.stride_h - s.pad_h + fy;
      for (int fx = 0; fx < s.kw; ++fx) {
        const std::int64_t ix = ox * s.stride_w - s.pad_w + fx;
        const bool ok = iy >= 0 && iy < s.in_h && ix >= 0 && ix < s.in_w;
        const std::int32_t xq =
            ok ? x[((n * s.in_h + iy) * s.in_w + ix) * s.in_ch + ic] : p.in_zp;
        acc += xq * p.weights[(static_cast<std::int64_t>(fy) * s.kw + fx) *
                                  s.out_ch +
                              oc];
      }
    }
    requant_store_i8(p, oc, acc, yp);
  }
}

// --- f32 pixels -------------------------------------------------------------
//
// Accumulation per channel is bias-first, taps in (fy, fx) order with
// out-of-bounds taps skipped — exactly the reference kernel's order, scalar
// and vector lanes alike, so all tiers produce bit-identical floats (only
// the lane width differs, never the per-channel operation sequence). Vector
// blocks apply the fused activation with activate_v8, which selects per lane
// with apply_activation_f32's comparisons instead of branching on each
// channel's sign.

inline void pixel_f32_scalar(const DwConvShape& s, const PackedDwF32& p,
                             Activation act, const float* const* tap,
                             float* yp) {
  const std::int64_t taps = static_cast<std::int64_t>(s.kh) * s.kw;
  for (std::int64_t oc = 0; oc < s.out_ch; ++oc) {
    const std::int64_t ic = oc / s.depth_mult;
    float acc = p.bias[oc];
    for (std::int64_t t = 0; t < taps; ++t) {
      if (tap[t] != nullptr) acc += tap[t][ic] * p.weights[t * s.out_ch + oc];
    }
    yp[oc] = apply_activation_f32(acc, act);
  }
}

#if defined(__GNUC__) || defined(__clang__)

using v8f_u = float __attribute__((vector_size(32), aligned(4)));

inline void pixel_f32_vector(const DwConvShape& s, const PackedDwF32& p,
                             Activation act, const float* const* tap,
                             float* yp) {
  const std::int64_t taps = static_cast<std::int64_t>(s.kh) * s.kw;
  const std::int64_t ch = s.out_ch;
  std::int64_t c = 0;
  for (; c + kDwLanesF32 <= ch; c += kDwLanesF32) {
    v8f_u acc;
    __builtin_memcpy(&acc, p.bias + c, sizeof(acc));
    for (std::int64_t t = 0; t < taps; ++t) {
      if (tap[t] == nullptr) continue;
      v8f_u xv, wv;
      __builtin_memcpy(&xv, tap[t] + c, sizeof(xv));
      __builtin_memcpy(&wv, p.weights + t * ch + c, sizeof(wv));
      acc += xv * wv;
    }
    const v8f out = activate_v8(acc, act);
    __builtin_memcpy(yp + c, &out, sizeof(out));
  }
  for (; c < ch; ++c) {
    float acc = p.bias[c];
    for (std::int64_t t = 0; t < taps; ++t) {
      if (tap[t] != nullptr) acc += tap[t][c] * p.weights[t * ch + c];
    }
    yp[c] = apply_activation_f32(acc, act);
  }
}

#endif  // __GNUC__ || __clang__

inline void pixel_f32_huge(const DwConvShape& s, const PackedDwF32& p,
                           Activation act, const float* x, std::int64_t n,
                           std::int64_t oy, std::int64_t ox, float* yp) {
  for (std::int64_t oc = 0; oc < s.out_ch; ++oc) {
    const std::int64_t ic = oc / s.depth_mult;
    float acc = p.bias[oc];
    for (int fy = 0; fy < s.kh; ++fy) {
      const std::int64_t iy = oy * s.stride_h - s.pad_h + fy;
      if (iy < 0 || iy >= s.in_h) continue;
      for (int fx = 0; fx < s.kw; ++fx) {
        const std::int64_t ix = ox * s.stride_w - s.pad_w + fx;
        if (ix < 0 || ix >= s.in_w) continue;
        acc += x[((n * s.in_h + iy) * s.in_w + ix) * s.in_ch + ic] *
               p.weights[(static_cast<std::int64_t>(fy) * s.kw + fx) *
                             s.out_ch +
                         oc];
      }
    }
    yp[oc] = apply_activation_f32(acc, act);
  }
}

}  // namespace

void pack_dw_weights_i8(std::int64_t taps, std::int64_t ch,
                        const std::int8_t* w, std::int16_t* out,
                        std::int32_t* w_sums) {
  for (std::int64_t c = 0; c < ch; ++c) w_sums[c] = 0;
  for (std::int64_t t = 0; t < taps; ++t) {
    for (std::int64_t c = 0; c < ch; ++c) {
      const std::int8_t v = w[t * ch + c];
      out[t * ch + c] = v;
      w_sums[c] += v;
    }
  }
}

void set_dwconv_tier_for_testing(DwConvTier tier) {
  g_tier_override.store(static_cast<int>(tier), std::memory_order_relaxed);
}

const char* dwconv_best_tier_name() {
  switch (best_tier()) {
    case Tier::kAvx2: return "avx2";
    case Tier::kGeneric: return "generic-vector";
    case Tier::kScalar: return "scalar";
  }
  return "scalar";
}

void dwconv2d_i8(const DwConvShape& s, const std::int8_t* x,
                 const PackedDwI8& p, std::int8_t* y, PoolRef pool) {
  const Tier tier = resolve_tier();
  const std::int64_t taps = static_cast<std::int64_t>(s.kh) * s.kw;
  const std::int64_t rows = s.batch * s.out_h;
  auto body = [&](std::size_t lo, std::size_t hi) {
    const std::int8_t* tap_src[kMaxTaps];
    for (std::size_t row = lo; row < hi; ++row) {
      const std::int64_t n = static_cast<std::int64_t>(row) / s.out_h;
      const std::int64_t oy = static_cast<std::int64_t>(row) % s.out_h;
      for (std::int64_t ox = 0; ox < s.out_w; ++ox) {
        std::int8_t* yp =
            y + ((n * s.out_h + oy) * s.out_w + ox) * s.out_ch;
        if (taps > kMaxTaps) {
          pixel_i8_huge(s, p, x, n, oy, ox, yp);
          continue;
        }
        build_tap_src(s, x, n, oy, ox, tap_src);
        if (s.depth_mult != 1 || tier == Tier::kScalar) {
          pixel_i8_scalar(s, p, tap_src, yp);
          continue;
        }
#if defined(__AVX2__)
        if (tier == Tier::kAvx2) {
          pixel_i8_avx2(s, p, tap_src, yp);
        } else {
          pixel_i8_generic(s, p, tap_src, yp);
        }
#elif defined(__GNUC__) || defined(__clang__)
        pixel_i8_generic(s, p, tap_src, yp);
#else
        pixel_i8_scalar(s, p, tap_src, yp);
#endif
      }
    }
  };
  if (pool && rows >= 8) {
    pool.parallel_for(0, static_cast<std::size_t>(rows), body,
                       /*min_chunk=*/2);
  } else {
    body(0, static_cast<std::size_t>(rows));
  }
}

void dwconv2d_f32(const DwConvShape& s, const float* x, const PackedDwF32& p,
                  Activation act, float* y, PoolRef pool) {
  const Tier tier = resolve_tier();
  const std::int64_t taps = static_cast<std::int64_t>(s.kh) * s.kw;
  const std::int64_t rows = s.batch * s.out_h;
  auto body = [&](std::size_t lo, std::size_t hi) {
    const float* tap_src[kMaxTaps];
    for (std::size_t row = lo; row < hi; ++row) {
      const std::int64_t n = static_cast<std::int64_t>(row) / s.out_h;
      const std::int64_t oy = static_cast<std::int64_t>(row) % s.out_h;
      for (std::int64_t ox = 0; ox < s.out_w; ++ox) {
        float* yp = y + ((n * s.out_h + oy) * s.out_w + ox) * s.out_ch;
        if (taps > kMaxTaps) {
          pixel_f32_huge(s, p, act, x, n, oy, ox, yp);
          continue;
        }
        build_tap_src(s, x, n, oy, ox, tap_src);
        if (s.depth_mult != 1 || tier == Tier::kScalar) {
          pixel_f32_scalar(s, p, act, tap_src, yp);
          continue;
        }
#if defined(__GNUC__) || defined(__clang__)
        pixel_f32_vector(s, p, act, tap_src, yp);
#else
        pixel_f32_scalar(s, p, act, tap_src, yp);
#endif
      }
    }
  };
  if (pool && rows >= 8) {
    pool.parallel_for(0, static_cast<std::size_t>(rows), body,
                       /*min_chunk=*/2);
  } else {
    body(0, static_cast<std::size_t>(rows));
  }
}

}  // namespace mlexray
