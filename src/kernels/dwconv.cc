#include "src/kernels/dwconv.h"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "src/kernels/activation.h"
#include "src/kernels/fixed_point.h"
#include "src/kernels/kernel.h"

namespace mlexray {
namespace {

// Per-pixel table of tap source pointers (channel 0 of the input pixel each
// filter tap reads); nullptr marks an out-of-bounds tap.
template <typename T>
inline void build_tap_src(const ConvGeometry& g, const T* x, std::int64_t n,
                          std::int64_t oy, std::int64_t ox, const T** src) {
  std::int64_t t = 0;
  for (int fy = 0; fy < g.kh; ++fy) {
    const std::int64_t iy = oy * g.stride_h - g.pad_h + fy;
    const bool row_ok = iy >= 0 && iy < g.in_h;
    const T* row = row_ok ? x + (n * g.in_h + iy) * g.in_w * g.in_ch : nullptr;
    for (int fx = 0; fx < g.kw; ++fx) {
      const std::int64_t ix = ox * g.stride_w - g.pad_w + fx;
      src[t++] = (row_ok && ix >= 0 && ix < g.in_w) ? row + ix * g.in_ch
                                                    : nullptr;
    }
  }
}

// Pointers per worker's tap table: whole 64-byte lines, so no two workers
// write the same line.
std::int64_t tap_table_stride(const ConvGeometry& g) {
  constexpr std::int64_t kPerLine = 64 / sizeof(void*);
  return (static_cast<std::int64_t>(g.kh) * g.kw + kPerLine - 1) / kPerLine *
         kPerLine;
}

// Runs pixel(tap, yp) for every output pixel, output rows spread over
// `pool`: each worker rebuilds the pixel's tap table in its own slice of
// `taps` (dwconv_tap_slots) before handing it over.
template <typename T, typename Pixel>
void for_each_pixel(const ConvGeometry& g, const T* x, T* y, PoolRef pool,
                    const T** taps, const Pixel& pixel) {
  const std::int64_t stride = tap_table_stride(g);
  pool.parallel_for_workers(
      0, static_cast<std::size_t>(g.batch * g.out_h),
      [&](std::size_t lo, std::size_t hi, std::size_t worker) {
        const T** tap = taps + static_cast<std::int64_t>(worker) * stride;
        for (std::size_t row = lo; row < hi; ++row) {
          const std::int64_t n = static_cast<std::int64_t>(row) / g.out_h;
          const std::int64_t oy = static_cast<std::int64_t>(row) % g.out_h;
          for (std::int64_t ox = 0; ox < g.out_w; ++ox) {
            build_tap_src(g, x, n, oy, ox, tap);
            pixel(tap, y + ((n * g.out_h + oy) * g.out_w + ox) * g.out_ch);
          }
        }
      },
      /*min_chunk=*/2);
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

// Scalar path: depth multipliers > 1 and the forced-scalar test switch.
// chan_acc_i8 also finishes the last ch % 8 channels of the vector path.
inline void pixel_i8_scalar(const ConvGeometry& g, const PackedDwI8& p,
                            const std::int8_t* const* tap, std::int8_t* yp) {
  const std::int64_t taps = static_cast<std::int64_t>(g.kh) * g.kw;
  for (std::int64_t oc = 0; oc < g.out_ch; ++oc) {
    requant_store_i8(
        p, oc, chan_acc_i8(p, taps, g.out_ch, tap, oc / g.depth_mult, oc), yp);
  }
}

// Vector path (GNU vector extensions): 16 channels per block, int8
// activations widened to int16, pre-widened int16 weights, exact int16
// products (|int8 * int8| <= 2^14) summed into two 8-lane int32
// accumulators. Integer math is exact, so this is bit-identical to the
// scalar path in any accumulation order.
using v16s8_u = std::int8_t __attribute__((vector_size(16), aligned(1)));
using v8s8_u = std::int8_t __attribute__((vector_size(8), aligned(1)));
using v16s16 = std::int16_t __attribute__((vector_size(32)));
using v16s16_u = std::int16_t __attribute__((vector_size(32), aligned(2)));
using v8s16 = std::int16_t __attribute__((vector_size(16)));
using v8s16_u = std::int16_t __attribute__((vector_size(16), aligned(2)));
using v8s32 = std::int32_t __attribute__((vector_size(32)));

inline void dw_widen_i8x16(const std::int8_t* p, v16s16& out) {
  v16s8_u v;
  __builtin_memcpy(&v, p, sizeof(v));
  out = __builtin_convertvector(v, v16s16);
}

// Vectorized requant for the 8 channels at c, bit-identical to
// requant_store_i8 per lane (the conformance grid compares the vector path
// against the forced-scalar path byte for byte). Its cost otherwise rivals
// the stencil loop for small windows.
inline void requant_store_i8_v8(const PackedDwI8& p, std::int64_t c,
                                const v8s32_fx& acc, std::int8_t* yp) {
  v8s32_fx init, mu, sh;
  __builtin_memcpy(&init, p.acc_init + c, sizeof(init));
  __builtin_memcpy(&mu, p.multipliers + c, sizeof(mu));
  __builtin_memcpy(&sh, p.shifts + c, sizeof(sh));
  requant_clamp_store_i8_v8(acc + init, mu, -sh, p.out_zp, p.act_min,
                            p.act_max, yp + c);
}

// The channels the vector path leaves after its 16-lane blocks: one 8-lane
// block when at least 8 remain (same widening products as the 16-lane
// loop, half as wide), then the last ch % 8 channels scalar.
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

inline void pixel_i8_vector(const ConvGeometry& g, const PackedDwI8& p,
                            const std::int8_t* const* tap, std::int8_t* yp) {
  const std::int64_t taps = static_cast<std::int64_t>(g.kh) * g.kw;
  const std::int64_t ch = g.out_ch;
  const v16s16 zp_v = (v16s16){} + static_cast<std::int16_t>(p.in_zp);
  std::int64_t c = 0;
  for (; c + kDwLanesI8 <= ch; c += kDwLanesI8) {
    // Each int32 lane of a product holds two adjacent channels as int16
    // halves. Two shifts sign-extend the halves in place, into one
    // accumulator per half, and one interleave per block restores channel
    // order: three instructions per tap where GCC 12 splits a widening
    // convert into eight.
    v8s32 acc_low{};
    v8s32 acc_high{};
    for (std::int64_t t = 0; t < taps; ++t) {
      v16s16 xv = zp_v;
      if (tap[t] != nullptr) dw_widen_i8x16(tap[t] + c, xv);
      v16s16_u wv;
      __builtin_memcpy(&wv, p.weights + t * ch + c, sizeof(wv));
      const v8s32 prod = (v8s32)(xv * wv);  // exact in int16
      acc_low += (prod << 16) >> 16;
      acc_high += prod >> 16;
    }
    const v8s32 even = kLittleEndian ? acc_low : acc_high;
    const v8s32 odd = kLittleEndian ? acc_high : acc_low;
    requant_store_i8_v8(
        p, c, __builtin_shufflevector(even, odd, 0, 8, 1, 9, 2, 10, 3, 11),
        yp);
    requant_store_i8_v8(
        p, c + 8,
        __builtin_shufflevector(even, odd, 4, 12, 5, 13, 6, 14, 7, 15), yp);
  }
  pixel_i8_tail(p, taps, ch, tap, c, yp);
}

// --- f32 pixels -------------------------------------------------------------
//
// Accumulation per channel is bias-first, taps in (fy, fx) order with
// out-of-bounds taps skipped — exactly the reference kernel's order, scalar
// and vector lanes alike, so both paths produce bit-identical floats (only
// the lane width differs, never the per-channel operation sequence). Vector
// blocks apply the fused activation with activate_v8, which selects per lane
// with apply_activation_f32's comparisons instead of branching on each
// channel's sign.

inline float chan_f32(const PackedDwF32& p, std::int64_t taps,
                      std::int64_t out_ch, Activation act,
                      const float* const* tap, std::int64_t ic,
                      std::int64_t oc) {
  float acc = p.bias[oc];
  for (std::int64_t t = 0; t < taps; ++t) {
    if (tap[t] != nullptr) acc += tap[t][ic] * p.weights[t * out_ch + oc];
  }
  return apply_activation_f32(acc, act);
}

inline void pixel_f32_scalar(const ConvGeometry& g, const PackedDwF32& p,
                             Activation act, const float* const* tap,
                             float* yp) {
  const std::int64_t taps = static_cast<std::int64_t>(g.kh) * g.kw;
  for (std::int64_t oc = 0; oc < g.out_ch; ++oc) {
    yp[oc] = chan_f32(p, taps, g.out_ch, act, tap, oc / g.depth_mult, oc);
  }
}

using v8f_u = float __attribute__((vector_size(32), aligned(4)));

inline void pixel_f32_vector(const ConvGeometry& g, const PackedDwF32& p,
                             Activation act, const float* const* tap,
                             float* yp) {
  const std::int64_t taps = static_cast<std::int64_t>(g.kh) * g.kw;
  const std::int64_t ch = g.out_ch;
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
    v8f out = acc;
    activate_v8(out, act);
    __builtin_memcpy(yp + c, &out, sizeof(out));
  }
  for (; c < ch; ++c) yp[c] = chan_f32(p, taps, ch, act, tap, c, c);
}

// The vector blocks hold consecutive output channels of consecutive input
// channels, so a depth multiplier > 1 (output channel oc reads input
// channel oc / depth_mult) takes the scalar path, as does the test switch.
bool use_scalar_path(const ConvGeometry& g) {
  return g.depth_mult != 1 ||
         force_scalar_kernels_for_testing.load(std::memory_order_relaxed);
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

std::int64_t dwconv_tap_slots(const ConvGeometry& g, std::size_t workers) {
  return tap_table_stride(g) * static_cast<std::int64_t>(workers);
}

void dwconv2d_i8(const ConvGeometry& g, const std::int8_t* x,
                 const PackedDwI8& p, std::int8_t* y, PoolRef pool,
                 const std::int8_t** taps) {
  const bool scalar = use_scalar_path(g);
  for_each_pixel(g, x, y, pool, taps,
                 [&](const std::int8_t* const* tap, std::int8_t* yp) {
                   if (scalar) {
                     pixel_i8_scalar(g, p, tap, yp);
                   } else {
                     pixel_i8_vector(g, p, tap, yp);
                   }
                 });
}

void dwconv2d_f32(const ConvGeometry& g, const float* x, const PackedDwF32& p,
                  Activation act, float* y, PoolRef pool, const float** taps) {
  const bool scalar = use_scalar_path(g);
  for_each_pixel(g, x, y, pool, taps,
                 [&](const float* const* tap, float* yp) {
                   if (scalar) {
                     pixel_f32_scalar(g, p, act, tap, yp);
                   } else {
                     pixel_f32_vector(g, p, act, tap, yp);
                   }
                 });
}

}  // namespace mlexray
