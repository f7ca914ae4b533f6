#include "src/tensor/tensor_stats.h"

#include <cmath>
#include <limits>

namespace mlexray {

namespace {

// The f32 values of `t`: an f32 tensor's own data, read in place; any other
// dtype's to_f32() conversion, held in `converted`.
const float* f32_values(const Tensor& t, Tensor& converted) {
  if (t.dtype() == DType::kF32) return t.data<float>();
  converted = t.to_f32();
  return converted.data<float>();
}

void check_comparable(const Tensor& a, const Tensor& b) {
  MLX_CHECK_EQ(a.num_elements(), b.num_elements())
      << "tensor size mismatch " << a.shape().to_string() << " vs "
      << b.shape().to_string();
}

}  // namespace

TensorSummary summarize(const Tensor& tensor) {
  Tensor converted;
  const float* p = f32_values(tensor, converted);
  TensorSummary s;
  s.count = tensor.num_elements();
  if (s.count == 0) return s;
  s.min = std::numeric_limits<float>::infinity();
  s.max = -std::numeric_limits<float>::infinity();
  double sum = 0.0;
  double sum_sq = 0.0;
  for (std::int64_t i = 0; i < s.count; ++i) {
    s.min = std::min(s.min, p[i]);
    s.max = std::max(s.max, p[i]);
    sum += p[i];
    sum_sq += static_cast<double>(p[i]) * p[i];
  }
  s.mean = sum / static_cast<double>(s.count);
  double var = sum_sq / static_cast<double>(s.count) - s.mean * s.mean;
  s.stddev = std::sqrt(std::max(0.0, var));
  return s;
}

double rmse(const Tensor& a, const Tensor& b) {
  check_comparable(a, b);
  Tensor ca, cb;
  const float* pa = f32_values(a, ca);
  const float* pb = f32_values(b, cb);
  const std::int64_t n = a.num_elements();
  if (n == 0) return 0.0;
  double sum_sq = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    double d = static_cast<double>(pa[i]) - pb[i];
    sum_sq += d * d;
  }
  return std::sqrt(sum_sq / static_cast<double>(n));
}

double normalized_rmse(const Tensor& test, const Tensor& reference) {
  check_comparable(test, reference);
  Tensor ct, cr;
  const float* pt = f32_values(test, ct);
  const float* pr = f32_values(reference, cr);
  const std::int64_t n = test.num_elements();
  // An empty pair has zero error over a degenerate range.
  if (n == 0) return 0.0;
  // One pass takes rmse()'s squared error and summarize()'s reference
  // min/max, each in its own arithmetic and order.
  double sum_sq = 0.0;
  float ref_min = std::numeric_limits<float>::infinity();
  float ref_max = -std::numeric_limits<float>::infinity();
  for (std::int64_t i = 0; i < n; ++i) {
    double d = static_cast<double>(pt[i]) - pr[i];
    sum_sq += d * d;
    ref_min = std::min(ref_min, pr[i]);
    ref_max = std::max(ref_max, pr[i]);
  }
  const double err = std::sqrt(sum_sq / static_cast<double>(n));
  const double range = static_cast<double>(ref_max) - ref_min;
  if (range <= 0.0) {
    return err == 0.0 ? 0.0 : std::numeric_limits<double>::infinity();
  }
  return err / range;
}

double linf_error(const Tensor& a, const Tensor& b) {
  check_comparable(a, b);
  Tensor ca, cb;
  const float* pa = f32_values(a, ca);
  const float* pb = f32_values(b, cb);
  double worst = 0.0;
  for (std::int64_t i = 0; i < a.num_elements(); ++i) {
    worst = std::max(worst, std::abs(static_cast<double>(pa[i]) - pb[i]));
  }
  return worst;
}

bool all_close(const Tensor& a, const Tensor& b, double tolerance) {
  if (a.num_elements() != b.num_elements()) return false;
  return linf_error(a, b) <= tolerance;
}

}  // namespace mlexray
