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
// vector extensions, one source for every target; the scalar path covers
// depth multipliers > 1. Both read a pixel's taps through a kh x kw table
// of source pointers that each worker builds in its own slice of arena
// scratch, so every window size runs them. Integer accumulation is exact
// and order-free, so both paths produce bit-identical int8 output; the f32
// paths keep the reference kernels' per-channel accumulation order
// (bias-first, taps in (fy, fx) order), so float output is bit-identical
// too. force_scalar_kernels_for_testing (kernel.h) runs the scalar path
// everywhere, so the conformance grid can assert that equivalence instead
// of assuming it.
//
// Output rows are spread over the pool the caller passes; the kernels never
// decide whether to fan out (the ExecutionPlan does, per step).
#pragma once

#include <cstdint>

#include "src/common/thread_pool.h"
#include "src/graph/op_types.h"
#include "src/kernels/conv_utils.h"

namespace mlexray {

// Channels per vector block of the int8 / f32 inner loops. Exposed so the
// prepare hooks can size panels and the tests can target the vector tails.
inline constexpr std::int64_t kDwLanesI8 = 16;
inline constexpr std::int64_t kDwLanesF32 = 8;

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

// Tap-table scratch a dwconv2d_* call with `workers` participants needs, in
// pointers: one kh * kw table per worker, padded to a 64-byte line and
// indexed by the parallel_for_workers worker id. Size it from the executing
// context's worker count (KernelContext::worker_count()).
std::int64_t dwconv_tap_slots(const ConvGeometry& g, std::size_t workers);

// y[n, oy, ox, c] = act(bias[c] + sum_taps x[tap, c / dm] * w[tap, c]),
// accumulation per channel in reference order. `taps` holds
// dwconv_tap_slots(g, pool.parallelism()) pointers.
void dwconv2d_f32(const ConvGeometry& g, const float* x, const PackedDwF32& p,
                  Activation act, float* y, PoolRef pool, const float** taps);

// Integer path: raw widening dot product over all taps (out-of-bounds taps
// read x = in_zp), then requant(acc + acc_init[c]) per channel. Bit-exact
// across the vector and scalar paths.
void dwconv2d_i8(const ConvGeometry& g, const std::int8_t* x,
                 const PackedDwI8& p, std::int8_t* y, PoolRef pool,
                 const std::int8_t** taps);

}  // namespace mlexray
