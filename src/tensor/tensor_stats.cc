#include "src/tensor/tensor_stats.h"

#include <cmath>
#include <limits>

namespace mlexray {

TensorSummary summarize(const Tensor& tensor) {
  Tensor f = tensor.to_f32();
  const float* p = f.data<float>();
  TensorSummary s;
  s.count = f.num_elements();
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

namespace {

void check_comparable(const Tensor& a, const Tensor& b) {
  MLX_CHECK_EQ(a.num_elements(), b.num_elements())
      << "tensor size mismatch " << a.shape().to_string() << " vs "
      << b.shape().to_string();
}

}  // namespace

double rmse(const Tensor& a, const Tensor& b) {
  check_comparable(a, b);
  Tensor fa = a.to_f32();
  Tensor fb = b.to_f32();
  const float* pa = fa.data<float>();
  const float* pb = fb.data<float>();
  const std::int64_t n = fa.num_elements();
  if (n == 0) return 0.0;
  double sum_sq = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    double d = static_cast<double>(pa[i]) - pb[i];
    sum_sq += d * d;
  }
  return std::sqrt(sum_sq / static_cast<double>(n));
}

double normalized_rmse(const Tensor& test, const Tensor& reference) {
  double err = rmse(test, reference);
  TensorSummary ref = summarize(reference);
  double range = static_cast<double>(ref.max) - ref.min;
  if (range <= 0.0) {
    return err == 0.0 ? 0.0 : std::numeric_limits<double>::infinity();
  }
  return err / range;
}

double linf_error(const Tensor& a, const Tensor& b) {
  check_comparable(a, b);
  Tensor fa = a.to_f32();
  Tensor fb = b.to_f32();
  const float* pa = fa.data<float>();
  const float* pb = fb.data<float>();
  double worst = 0.0;
  for (std::int64_t i = 0; i < fa.num_elements(); ++i) {
    worst = std::max(worst, std::abs(static_cast<double>(pa[i]) - pb[i]));
  }
  return worst;
}

bool all_close(const Tensor& a, const Tensor& b, double tolerance) {
  if (a.num_elements() != b.num_elements()) return false;
  return linf_error(a, b) <= tolerance;
}

}  // namespace mlexray
