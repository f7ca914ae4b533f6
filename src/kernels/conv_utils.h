// Shared convolution/pooling geometry and quantized-multiplier preparation.
#pragma once

#include <cstdint>
#include <vector>

#include "src/kernels/fixed_point.h"
#include "src/tensor/tensor.h"

namespace mlexray {

// TF-style SAME padding: total padding that centers the receptive field.
inline std::int64_t same_pad_before(std::int64_t in, int filter, int stride,
                                    std::int64_t out) {
  std::int64_t needed = (out - 1) * stride + filter - in;
  if (needed < 0) needed = 0;
  return needed / 2;
}

// Per-output-channel requantization factors for a quantized conv/fc node:
// effective_scale[c] = in_scale * w_scale[c] / out_scale.
struct RequantScales {
  std::vector<double> real;                 // reference kernels use doubles
  std::vector<std::int32_t> multipliers;    // optimized kernels use Q31 ints
  std::vector<int> shifts;
};

inline RequantScales prepare_requant(const QuantParams& in_q,
                                     const QuantParams& w_q,
                                     const QuantParams& out_q,
                                     std::int64_t out_channels) {
  RequantScales r;
  r.real.resize(static_cast<std::size_t>(out_channels));
  r.multipliers.resize(static_cast<std::size_t>(out_channels));
  r.shifts.resize(static_cast<std::size_t>(out_channels));
  for (std::int64_t c = 0; c < out_channels; ++c) {
    auto ch = static_cast<std::size_t>(c);
    double scale = static_cast<double>(in_q.scale()) *
                   w_q.scale(w_q.per_channel() ? ch : 0) / out_q.scale();
    r.real[ch] = scale;
    quantize_multiplier(scale, &r.multipliers[ch], &r.shifts[ch]);
  }
  return r;
}

// Writes the Q31 tables into caller-provided arrays (plan-owned prepared
// storage).
inline void fill_requant_tables(const QuantParams& in_q, const QuantParams& w_q,
                                const QuantParams& out_q,
                                std::int64_t out_channels,
                                std::int32_t* multipliers, int* shifts) {
  for (std::int64_t c = 0; c < out_channels; ++c) {
    auto ch = static_cast<std::size_t>(c);
    double scale = static_cast<double>(in_q.scale()) *
                   w_q.scale(w_q.per_channel() ? ch : 0) / out_q.scale();
    quantize_multiplier(scale, &multipliers[ch], &shifts[ch]);
  }
}

}  // namespace mlexray
