// Statistics over tensors and between tensor pairs. Each reads an f32
// tensor's own data in place and dequantizes any other dtype through
// Tensor::to_f32 first.
//
// normalized_rmse() implements the paper's §3.4 drift metric:
//   rMSE-hat = rMSE / (max_i(e_i) - min_i(e_i))
// where e is the reference layer output. The validator uses it to localise
// error-prone layers; linf_error is the exact alternative, for localization
// at threshold 0.
#pragma once

#include <cstdint>

#include "src/tensor/tensor.h"

namespace mlexray {

struct TensorSummary {
  float min = 0.0f;
  float max = 0.0f;
  double mean = 0.0;
  double stddev = 0.0;
  std::int64_t count = 0;
};

TensorSummary summarize(const Tensor& tensor);

// Root-mean-square error between two same-shaped tensors (dequantized).
double rmse(const Tensor& a, const Tensor& b);

// rMSE normalized by the reference tensor's value range (paper §3.4), in
// one pass that takes the reference min/max beside the error. Returns 0
// when the reference range is degenerate and the tensors match, +inf when
// the range is degenerate but the tensors differ.
double normalized_rmse(const Tensor& test, const Tensor& reference);

// Max absolute element difference.
double linf_error(const Tensor& a, const Tensor& b);

// True when all elements differ by at most tolerance (after dequantization).
bool all_close(const Tensor& a, const Tensor& b, double tolerance);

}  // namespace mlexray
