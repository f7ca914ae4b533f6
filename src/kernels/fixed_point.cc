#include "src/kernels/fixed_point.h"

#include <cmath>

#include "src/common/error.h"

namespace mlexray {

void quantize_multiplier(double real_multiplier, std::int32_t* multiplier,
                         int* shift) {
  MLX_CHECK_GT(real_multiplier, 0.0);
  MLX_CHECK_LT(real_multiplier, 1.0)
      << "requant multiplier must be < 1 (normalize upstream)";
  int exponent = 0;
  double significand = std::frexp(real_multiplier, &exponent);
  // significand in [0.5, 1); scale to Q31.
  auto q = static_cast<std::int64_t>(std::round(significand * (1LL << 31)));
  MLX_CHECK_LE(q, 1LL << 31);
  if (q == (1LL << 31)) {
    q /= 2;
    ++exponent;
  }
  MLX_CHECK_LE(exponent, 0) << "multiplier >= 1 after rounding";
  *multiplier = static_cast<std::int32_t>(q);
  *shift = exponent;
}

void quantize_multiplier_any(double real_multiplier, std::int32_t* multiplier,
                             int* shift) {
  MLX_CHECK_GT(real_multiplier, 0.0);
  int exponent = 0;
  double significand = std::frexp(real_multiplier, &exponent);
  auto q = static_cast<std::int64_t>(std::round(significand * (1LL << 31)));
  MLX_CHECK_LE(q, 1LL << 31);
  if (q == (1LL << 31)) {
    q /= 2;
    ++exponent;
  }
  MLX_CHECK_LE(exponent, 30) << "requant multiplier out of range";
  *multiplier = static_cast<std::int32_t>(q);
  *shift = exponent;
}

}  // namespace mlexray
