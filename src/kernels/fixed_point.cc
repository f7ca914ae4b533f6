#include "src/kernels/fixed_point.h"

#include <cmath>
#include <limits>

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

std::int32_t saturating_rounding_doubling_high_mul(std::int32_t a,
                                                   std::int32_t b) {
  bool overflow = (a == b) && (a == std::numeric_limits<std::int32_t>::min());
  if (overflow) return std::numeric_limits<std::int32_t>::max();
  std::int64_t ab = static_cast<std::int64_t>(a) * b;
  std::int32_t nudge = ab >= 0 ? (1 << 30) : (1 - (1 << 30));
  return static_cast<std::int32_t>((ab + nudge) / (1LL << 31));
}

std::int32_t rounding_divide_by_pot(std::int32_t x, int exponent) {
  MLX_CHECK(exponent >= 0 && exponent <= 31);
  if (exponent == 0) return x;
  // Built unsigned, so exponent 31 cannot overflow.
  const auto mask =
      static_cast<std::int32_t>((std::uint32_t{1} << exponent) - 1);
  const std::int32_t remainder = x & mask;
  std::int32_t result = x >> exponent;
  std::int32_t threshold = (mask >> 1) + ((x < 0) ? 1 : 0);
  if (remainder > threshold) ++result;
  return result;
}

std::int32_t multiply_by_quantized_multiplier(std::int32_t x,
                                              std::int32_t multiplier,
                                              int shift) {
  // shift <= 0 for multipliers < 1 (our only use case).
  std::int32_t high = saturating_rounding_doubling_high_mul(x, multiplier);
  return rounding_divide_by_pot(high, -shift);
}

std::int32_t saturating_left_shift(std::int32_t x, int left) {
  if (left <= 0) return x;
  MLX_CHECK_LE(left, 31);
  const std::int64_t wide = static_cast<std::int64_t>(x) << left;
  if (wide > std::numeric_limits<std::int32_t>::max()) {
    return std::numeric_limits<std::int32_t>::max();
  }
  if (wide < std::numeric_limits<std::int32_t>::min()) {
    return std::numeric_limits<std::int32_t>::min();
  }
  return static_cast<std::int32_t>(wide);
}

std::int32_t multiply_by_quantized_multiplier_any(std::int32_t x,
                                                  std::int32_t multiplier,
                                                  int shift) {
  const std::int32_t high = saturating_rounding_doubling_high_mul(
      saturating_left_shift(x, shift), multiplier);
  return rounding_divide_by_pot(high, shift > 0 ? 0 : -shift);
}

}  // namespace mlexray
