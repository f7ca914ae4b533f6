// Vectorized per-channel DepthwiseConv2D kernel family with plan-time
// weight packing.
//
// Depthwise conv has no GEMM to lean on: each output channel is a small
// kh x kw stencil over a single input channel, so the profitable SIMD axis
// is the channel dimension itself — the [1, kh, kw, ch] filter layout is
// already channel-contiguous per tap, and NHWC activations are channel-
// contiguous per pixel, so a vector register holds C adjacent channels and
// the kernel walks the window accumulating C stencils at once.
//
// Plan-time packing (see the prepare hooks in opt_kernels.cc) builds, once,
// everything the steady-state inner loop would otherwise recompute:
//
//  - f32: nothing to build — the [1, kh, kw, ch] filter already *is* the
//    tap-major panel layout the vector loop streams, so the packed view
//    points straight at the node's weights (no copy, and no prepare hook).
//  - int8: the filter widened to int16 (the widening multiply's weight
//    operand then loads directly, no per-iteration sign extension), plus a
//    per-channel fused accumulator bias
//        acc_init[c] = bias[c] - in_zp * sum_taps w[tap][c]
//    folding the activation zero point out of the inner loop entirely
//    (out-of-bounds taps are fed x = in_zp, so the raw dot product over all
//    taps minus in_zp * w_sum equals the reference kernel's skipped-tap
//    accumulation exactly), plus the per-channel Q31 requant tables and the
//    fused activation clamp range.
//
// The kernels have two paths. The vector path spells its blocks with GNU
// vector extensions, one source for every target. The scalar path covers
// depth multipliers > 1, and windows of more than 64 taps take an
// inline-bounds scalar fallback. Integer accumulation is exact and
// order-free, so both paths produce bit-identical int8 output; the f32
// paths keep the reference kernels' per-channel accumulation order
// (bias-first, taps in (fy, fx) order), so float output is bit-identical
// too. force_scalar_kernels_for_testing (kernel.h) runs the scalar path
// everywhere, so the conformance grid can assert that equivalence instead
// of assuming it.
#pragma once

#include <cstdint>

#include "src/common/thread_pool.h"
#include "src/graph/op_types.h"

namespace mlexray {

// Channels per vector block of the int8 / f32 inner loops. Exposed so the
// prepare hooks can size panels and the tests can target the vector tails.
inline constexpr std::int64_t kDwLanesI8 = 16;
inline constexpr std::int64_t kDwLanesF32 = 8;

// Geometry of one depthwise invocation. out_ch == in_ch * depth_mult;
// output channel oc convolves input channel oc / depth_mult with filter
// column oc (TFLite depth-multiplier semantics).
struct DwConvShape {
  std::int64_t batch = 0;
  std::int64_t in_h = 0, in_w = 0, in_ch = 0;
  std::int64_t out_h = 0, out_w = 0, out_ch = 0;
  int kh = 0, kw = 0;
  int stride_h = 1, stride_w = 1;
  std::int64_t pad_h = 0, pad_w = 0;  // top / left padding
  std::int64_t depth_mult = 1;
};

// Packed views (plain pointers into PreparedStorage or — for f32, whose
// source layout is already panel-shaped — the node's own weights).
struct PackedDwF32 {
  const float* weights = nullptr;  // [kh*kw][out_ch] tap-major
  const float* bias = nullptr;     // [out_ch]
};

struct PackedDwI8 {
  const std::int16_t* weights = nullptr;   // [kh*kw][out_ch], pre-widened
  const std::int32_t* acc_init = nullptr;  // [out_ch] bias - in_zp * w_sum
  const std::int32_t* multipliers = nullptr;  // [out_ch] Q31
  const int* shifts = nullptr;                // [out_ch]
  std::int32_t in_zp = 0;
  std::int32_t out_zp = 0;
  std::int32_t act_min = -128;
  std::int32_t act_max = 127;
};

// Packs the [1, kh, kw, ch] int8 filter: widens to int16 (same tap-major
// order) and returns per-channel tap sums (for acc_init).
void pack_dw_weights_i8(std::int64_t taps, std::int64_t ch,
                        const std::int8_t* w, std::int16_t* out,
                        std::int32_t* w_sums);

// y[n, oy, ox, c] = act(bias[c] + sum_taps x[tap, c / dm] * w[tap, c]),
// accumulation per channel in reference order. Rows are partitioned across
// the pool when it pays.
void dwconv2d_f32(const DwConvShape& s, const float* x, const PackedDwF32& p,
                  Activation act, float* y, PoolRef pool);

// Integer path: raw widening dot product over all taps (out-of-bounds taps
// read x = in_zp), then requant(acc + acc_init[c]) per channel. Bit-exact
// across the vector and scalar paths.
void dwconv2d_i8(const DwConvShape& s, const std::int8_t* x,
                 const PackedDwI8& p, std::int8_t* y, PoolRef pool);

}  // namespace mlexray
