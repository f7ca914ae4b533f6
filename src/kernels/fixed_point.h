// Integer-only requantization arithmetic (gemmlowp-style): the one int8
// rounding rule of both resolvers.
//
// The real rescale factor in_scale*w_scale/out_scale is pre-quantized into
// a Q31 multiplier plus a power-of-two shift and applied with a
// rounding-doubling high multiply, as production edge runtimes requantize.
// The reference kernels call these scalar functions in their plain loops,
// as TFLite's reference int8 kernels share its optimized kernels'
// arithmetic, so a per-layer diff of the two resolvers is exact: any
// difference is a kernel bug. FixedPoint.SpecWithinOneQuantumOfRealArithmetic
// bounds the spec itself against real arithmetic.
//
// The scalar functions are the spec, defined inline so the reference
// kernels' plain loops and the optimized kernels' scalar tails make no call
// per element. Every optimized int8 epilogue runs the 8-lane form instead
// (requant_clamp_store_i8_v8), which reaches the same bits by a cheaper
// route: a round-half-up high multiply, exact for every multiplier
// quantize_multiplier{,_any} produce, then a byte-gather narrow.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>

#include "src/common/error.h"

namespace mlexray {

// Decomposes real_multiplier (must be in (0, 1)) into a Q31 fixed-point
// multiplier and a right shift: real ≈ multiplier * 2^-31 * 2^shift. The
// conv / depthwise / FC epilogues use it: their 8-lane requant applies only
// shifts <= 0.
void quantize_multiplier(double real_multiplier, std::int32_t* multiplier,
                         int* shift);

// General form: real_multiplier may be >= 1 (shift then comes out positive).
// Conv/FC/dwconv requant ratios are always < 1, but the elementwise family's
// output rescale (e.g. mul's sa*sb/so under adversarial scale choices) is
// not, so the Q31 prep there uses this variant.
void quantize_multiplier_any(double real_multiplier, std::int32_t* multiplier,
                             int* shift);

// Saturating rounding doubling high multiply of two Q31 values.
inline std::int32_t saturating_rounding_doubling_high_mul(std::int32_t a,
                                                          std::int32_t b) {
  if (a == b && a == std::numeric_limits<std::int32_t>::min()) {
    return std::numeric_limits<std::int32_t>::max();
  }
  const std::int64_t ab = static_cast<std::int64_t>(a) * b;
  const std::int32_t nudge = ab >= 0 ? (1 << 30) : (1 - (1 << 30));
  return static_cast<std::int32_t>((ab + nudge) / (1LL << 31));
}

// Rounding arithmetic right shift (round-to-nearest, ties away from zero
// matching gemmlowp's RoundingDivideByPOT).
inline std::int32_t rounding_divide_by_pot(std::int32_t x, int exponent) {
  MLX_CHECK(exponent >= 0 && exponent <= 31);
  if (exponent == 0) return x;
  // Built unsigned, so exponent 31 cannot overflow.
  const auto mask =
      static_cast<std::int32_t>((std::uint32_t{1} << exponent) - 1);
  const std::int32_t remainder = x & mask;
  std::int32_t result = x >> exponent;
  const std::int32_t threshold = (mask >> 1) + ((x < 0) ? 1 : 0);
  if (remainder > threshold) ++result;
  return result;
}

// Saturating left shift to int32 (identity for left <= 0). The positive-shift
// requant path pre-shifts its argument with this before the high multiply, so
// overflowing inputs pin to the int32 rails instead of wrapping (they clamp to
// the int8 activation range afterwards either way).
inline std::int32_t saturating_left_shift(std::int32_t x, int left) {
  if (left <= 0) return x;
  MLX_CHECK_LE(left, 31);
  const std::int64_t wide = static_cast<std::int64_t>(x) << left;
  return static_cast<std::int32_t>(std::clamp<std::int64_t>(
      wide, std::numeric_limits<std::int32_t>::min(),
      std::numeric_limits<std::int32_t>::max()));
}

// Applies a quantize_multiplier{,_any} decomposition:
// result ≈ x * multiplier * 2^-31 * 2^shift. A positive shift pre-scales x
// (TFLite ordering); a non-positive one is a rounding right shift after the
// high multiply.
inline std::int32_t multiply_by_quantized_multiplier(std::int32_t x,
                                                     std::int32_t multiplier,
                                                     int shift) {
  const std::int32_t high = saturating_rounding_doubling_high_mul(
      saturating_left_shift(x, shift), multiplier);
  return rounding_divide_by_pot(high, shift > 0 ? 0 : -shift);
}

// Clamps an int32 to the int8 representable range.
inline std::int8_t clamp_to_i8(std::int32_t v) {
  if (v < -128) return -128;
  if (v > 127) return 127;
  return static_cast<std::int8_t>(v);
}

// Eight-lane vector form of multiply_by_quantized_multiplier, in place on
// `x` and bit-identical per lane to the scalar function
// (FixedPoint.VectorRequantMatchesScalar compares them lane by lane). GNU
// vector extensions, so one definition serves every target.
//
// The high multiply rounds half up, (x * m + 2^30) >> 31, where the scalar
// spec nudges toward zero and truncates. The two agree for every x: for
// x * m >= 0 both add 2^30 and floor; for x * m < 0,
// trunc((x * m + 1 - 2^30) / 2^31) = floor((x * m + 2^30) / 2^31), since
// ceil(t / d) = floor((t + d - 1) / d). The scalar form's INT_MIN * INT_MIN
// saturation cannot trigger: quantize_multiplier{,_any} produce multipliers
// in [2^30, 2^31), always positive. The 64-bit products run in place on the
// even and the odd 32-bit lanes, each sign-extended with shifts, so no half
// is split off, converted or truncation-corrected.
//
// `shift_exp` lanes hold the *negated* shift (>= 0), i.e. the
// rounding_divide_by_pot exponent.
using v8s32_fx = std::int32_t __attribute__((vector_size(32), aligned(4)));
inline constexpr bool kLittleEndian =
    __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__;

inline void multiply_by_quantized_multiplier_v8(v8s32_fx& x,
                                                const v8s32_fx& multiplier,
                                                const v8s32_fx& shift_exp) {
  using v4s64 = std::int64_t __attribute__((vector_size(32)));
  const v4s64 half = (v4s64){} + (std::int64_t{1} << 30);
  const v4s64 x64 = (v4s64)x;
  const v4s64 m64 = (v4s64)multiplier;
  // Rounded products of the low and the high 32-bit half of each 64-bit
  // lane, each half sign-extended in place (the low halves are lanes 0, 2,
  // 4, 6 on a little-endian target).
  const v4s64 lo_prod = ((x64 << 32) >> 32) * ((m64 << 32) >> 32) + half;
  const v4s64 hi_prod = (x64 >> 32) * (m64 >> 32) + half;
  // Each result is bits 31..62 of its rounded product: shift the low
  // halves' results down into place and the high halves' up, then blend.
  const v8s32_fx lo = (v8s32_fx)(lo_prod >> 31);
  const v8s32_fx hi = (v8s32_fx)(hi_prod << 1);
  const v8s32_fx high =
      kLittleEndian
          ? __builtin_shufflevector(lo, hi, 0, 9, 2, 11, 4, 13, 6, 15)
          : __builtin_shufflevector(lo, hi, 8, 1, 10, 3, 12, 5, 14, 7);
  // rounding_divide_by_pot with a per-lane exponent (exponent 0 lanes fall
  // through all three terms as identities, matching the scalar early out).
  // The mask 2^e - 1 is built unsigned, so exponent 31 cannot overflow.
  using v8u32 = std::uint32_t __attribute__((vector_size(32)));
  const v8s32_fx mask =
      (v8s32_fx)((((v8u32){} + 1) << (v8u32)shift_exp) - 1);
  const v8s32_fx remainder = high & mask;
  v8s32_fx result = high >> shift_exp;
  const v8s32_fx threshold = (mask >> 1) + ((high < 0) & 1);
  result += (remainder > threshold) & 1;
  x = result;
}

// The shared int8 kernel epilogue for 8 consecutive output channels:
// requantize, add the output zero point, clamp to the fused activation
// range, narrow to int8, store. Every int8 GEMM, depthwise and elementwise
// epilogue calls this, so the bit-exactness contract their conformance
// grids assert lives in exactly one place. The clamped lanes already fit
// in int8, so the narrowing just gathers each lane's low byte: one
// 16-byte-result shuffle (one vpermb with AVX-512VBMI, two vpshufb, a
// permute and an or on AVX2). GCC 12 scalarizes the equivalent
// __builtin_convertvector to int8 into ~32 instructions at x86-64-v3.
inline void requant_clamp_store_i8_v8(const v8s32_fx& acc,
                                      const v8s32_fx& multiplier,
                                      const v8s32_fx& shift_exp,
                                      std::int32_t out_zp,
                                      std::int32_t act_min,
                                      std::int32_t act_max,
                                      std::int8_t* dst) {
  using v32s8 = std::int8_t __attribute__((vector_size(32)));
  using v16s8 = std::int8_t __attribute__((vector_size(16)));
  v8s32_fx v = acc;
  multiply_by_quantized_multiplier_v8(v, multiplier, shift_exp);
  v += (v8s32_fx){} + out_zp;
  const v8s32_fx vmax = (v8s32_fx){} + act_max;
  const v8s32_fx vmin = (v8s32_fx){} + act_min;
  v = v > vmax ? vmax : v;
  v = v < vmin ? vmin : v;
  constexpr int b = kLittleEndian ? 0 : 3;  // the low byte of a lane
  const v32s8 bytes = (v32s8)v;
  const v16s8 out = __builtin_shufflevector(
      bytes, bytes, b, 4 + b, 8 + b, 12 + b, 16 + b, 20 + b, 24 + b, 28 + b,
      b, 4 + b, 8 + b, 12 + b, 16 + b, 20 + b, 24 + b, 28 + b);
  __builtin_memcpy(dst, &out, 8);
}

// The int8 kernels' widening load: 8 consecutive int8 values as int32
// lanes. The bytes enter as the low half of a 16-byte vector and widen
// int8 -> int16 -> int32, which compiles to five instructions on AVX2
// (vpmovsxbw, two vpmovsxwd, a shift and an insert). GCC 12 scalarizes the
// direct 8 x int8 -> 8 x int32 convert into ~31.
inline void load_widen_i8_v8(const std::int8_t* src, v8s32_fx& out) {
  using v2s64 = std::int64_t __attribute__((vector_size(16)));
  using v16s8 = std::int8_t __attribute__((vector_size(16)));
  using v16s16 = std::int16_t __attribute__((vector_size(32)));
  using v8s16 = std::int16_t __attribute__((vector_size(16)));
  std::int64_t bits;
  __builtin_memcpy(&bits, src, sizeof(bits));
  const v16s16 w16 =
      __builtin_convertvector((v16s8)(v2s64){bits, 0}, v16s16);
  const v8s16 w8 =
      __builtin_shufflevector(w16, w16, 0, 1, 2, 3, 4, 5, 6, 7);
  out = __builtin_convertvector(w8, v8s32_fx);
}

}  // namespace mlexray
