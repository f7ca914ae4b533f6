// Activation helpers: float application of fused activations and int8
// lookup-table construction for standalone nonlinearities.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>

#include "src/graph/op_types.h"
#include "src/tensor/quant_params.h"

namespace mlexray {

inline float apply_activation_f32(float x, Activation activation) {
  switch (activation) {
    case Activation::kNone: return x;
    case Activation::kRelu: return x > 0.0f ? x : 0.0f;
    case Activation::kRelu6: return std::clamp(x, 0.0f, 6.0f);
    case Activation::kHardSwish: {
      float inner = std::clamp(x + 3.0f, 0.0f, 6.0f);
      return x * inner / 6.0f;
    }
  }
  return x;
}

// Eight float lanes (GNU vector extension: one ymm register on AVX, two
// xmm halves elsewhere).
using v8f = float __attribute__((vector_size(32)));

// The fused activation on eight lanes, in place: per lane the same
// comparisons and arithmetic as apply_activation_f32, so the result is
// bit-identical to the scalar form (relu6 is std::clamp's
// `x < lo ? lo : hi < x ? hi : x`). The lanes select rather than branch, so
// the cost does not depend on the data's signs. Every optimized f32
// epilogue (GEMM tile, depthwise pixel, Add/Sub) finishes with this.
//
// 32-byte vectors cross function boundaries by reference, here and in every
// kernel helper: by value, their ABI depends on whether AVX is enabled, and
// GCC warns (-Wpsabi) in every build without it.
inline void activate_v8(v8f& x, Activation act) {
  const v8f zero = {};
  const v8f six = zero + 6.0f;
  switch (act) {
    case Activation::kNone:
      return;
    case Activation::kRelu:
      x = x > zero ? x : zero;
      return;
    case Activation::kRelu6: {
      const v8f lo = x < zero ? zero : x;
      x = six < lo ? six : lo;
      return;
    }
    case Activation::kHardSwish: {
      v8f inner = x + 3.0f;
      inner = inner < zero ? zero : inner;
      inner = six < inner ? six : inner;
      x = x * inner / 6.0f;
      return;
    }
  }
}

inline float hardswish_f32(float x) {
  return apply_activation_f32(x, Activation::kHardSwish);
}

inline float sigmoid_f32(float x) { return 1.0f / (1.0f + std::exp(-x)); }

inline float tanh_f32(float x) { return std::tanh(x); }

// Integer clamp bounds implementing a fused activation on a quantized
// output: relu clamps at the zero point, relu6 at round(6/scale)+zp.
struct QuantActivationRange {
  std::int32_t min = -128;
  std::int32_t max = 127;
};

inline QuantActivationRange quant_activation_range(Activation activation,
                                                   float out_scale,
                                                   std::int32_t out_zp) {
  QuantActivationRange r;
  switch (activation) {
    case Activation::kNone:
    case Activation::kHardSwish:  // not clamp-representable; kept separate
      break;
    case Activation::kRelu:
      r.min = std::max<std::int32_t>(r.min, out_zp);
      break;
    case Activation::kRelu6: {
      r.min = std::max<std::int32_t>(r.min, out_zp);
      // From 256 quanta up, 6.0 lies past 127 for any zero point and clamps
      // nothing more; rounding it could overflow int32 at tiny scales.
      const float six = 6.0f / out_scale;
      if (six < 256.0f) {
        r.max = std::min<std::int32_t>(
            r.max, static_cast<std::int32_t>(std::lround(six)) + out_zp);
      }
      break;
    }
  }
  return r;
}

// Builds the 256-entry int8->int8 table for an arbitrary scalar function,
// honoring the input/output quantization (the standard way edge runtimes
// execute sigmoid/hardswish on integers).
template <typename Fn>
std::array<std::int8_t, 256> build_i8_lut(const QuantParams& in_q,
                                          const QuantParams& out_q, Fn fn) {
  std::array<std::int8_t, 256> table{};
  for (int i = 0; i < 256; ++i) {
    int q_in = i - 128;
    float real = in_q.scale() * static_cast<float>(q_in - in_q.zero_point());
    float result = fn(real);
    auto q_out = static_cast<std::int32_t>(std::lround(result / out_q.scale())) +
                 out_q.zero_point();
    table[static_cast<std::size_t>(i)] =
        static_cast<std::int8_t>(std::clamp<std::int32_t>(q_out, -128, 127));
  }
  return table;
}

}  // namespace mlexray
