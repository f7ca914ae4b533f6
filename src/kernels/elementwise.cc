// Int8 elementwise/reduction kernel family — see elementwise.h for the
// design contract, and tests/test_elementwise_grid.cc for the vector-vs-
// scalar conformance grid that locks it in.
#include "src/kernels/elementwise.h"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "src/kernels/activation.h"
#include "src/kernels/fixed_point.h"
#include "src/kernels/kernel.h"

namespace mlexray {

// ---------------------------------------------------------------------------
// The shared int8 parameter builders, run by the prepare hooks here and per
// invoke by the reference kernels.
// ---------------------------------------------------------------------------

PackedEwAddI8 build_packed_add_i8(const KernelContext& ctx) {
  const QuantParams& aq = ctx.input(0).quant();
  const QuantParams& bq = ctx.input(1).quant();
  const QuantParams& oq = ctx.output->quant();
  PackedEwAddI8 p;
  const double sa = aq.scale();
  const double sb = bq.scale();
  const double so = oq.scale();
  const double twice_max = 2.0 * std::max(sa, sb);
  int shift = 0;
  quantize_multiplier(sa / twice_max, &p.a_mult, &shift);
  p.a_shift = shift;
  quantize_multiplier(sb / twice_max, &p.b_mult, &shift);
  p.b_shift = shift;
  quantize_multiplier_any(
      twice_max / (static_cast<double>(1 << kAddLeftShift) * so), &p.out_mult,
      &shift);
  p.out_shift = shift;
  p.za = aq.zero_point();
  p.zb = bq.zero_point();
  p.zo = oq.zero_point();
  const QuantActivationRange range = quant_activation_range(
      ctx.node->attrs.activation, oq.scale(), oq.zero_point());
  p.act_min = range.min;
  p.act_max = range.max;
  p.broadcast_b = ctx.input(0).shape() == ctx.input(1).shape() ? 0 : 1;
  p.is_sub = ctx.node->type == OpType::kSub ? 1 : 0;
  return p;
}

PackedEwMulI8 build_packed_mul_i8(const KernelContext& ctx) {
  const QuantParams& aq = ctx.input(0).quant();
  const QuantParams& bq = ctx.input(1).quant();
  const QuantParams& oq = ctx.output->quant();
  PackedEwMulI8 p;
  int shift = 0;
  quantize_multiplier_any(
      static_cast<double>(aq.scale()) * bq.scale() / oq.scale(), &p.mult,
      &shift);
  p.shift = shift;
  p.za = aq.zero_point();
  p.zb = bq.zero_point();
  p.zo = oq.zero_point();
  p.broadcast_b = ctx.input(0).shape() == ctx.input(1).shape() ? 0 : 1;
  return p;
}

PackedEwMeanI8 build_packed_mean_i8(const KernelContext& ctx) {
  const QuantParams& iq = ctx.input(0).quant();
  const QuantParams& oq = ctx.output->quant();
  const Shape& is = ctx.input(0).shape();
  const std::int64_t hw = is.dim(1) * is.dim(2);
  // The integer sum of hw (x - zp) terms must stay in int32.
  MLX_CHECK_LT(hw, std::int64_t{1} << 23);
  PackedEwMeanI8 p;
  int shift = 0;
  quantize_multiplier_any(static_cast<double>(iq.scale()) / oq.scale() /
                              static_cast<double>(hw),
                          &p.mult, &shift);
  p.shift = shift;
  p.in_zp = iq.zero_point();
  p.out_zp = oq.zero_point();
  return p;
}

namespace {

struct PackedEwLutI8 {
  const std::int8_t* table = nullptr;  // 256 entries, int8 -> int8
};

template <typename Packed, Packed (*kBuild)(const KernelContext&)>
void ew_prepare(const KernelContext& ctx) {
  auto* root = ctx.prepared->allocate_array<Packed>(1);
  *root = kBuild(ctx);
  ctx.prepared->set_root(root);
}

// The vector spans requantize with the 8-lane epilogue, which has no
// positive-shift form (an output multiplier >= 1), so such blocks take the
// scalar spans, as does every block under the test switch.
bool use_scalar_path(std::int32_t out_shift) {
  return out_shift > 0 ||
         force_scalar_kernels_for_testing.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Add / Sub.
// ---------------------------------------------------------------------------

// A span is `len` contiguous elements of a and y with a (possibly shorter-
// strided) contiguous b: the same-shape path runs one whole-tensor span, the
// broadcast path one span per pixel against the shared [N,1,1,C] row.
using AddSpanFn = void (*)(const PackedEwAddI8&, const std::int8_t*,
                           const std::int8_t*, std::int8_t*, std::int64_t);

void add_span_scalar(const PackedEwAddI8& p, const std::int8_t* a,
                     const std::int8_t* b, std::int8_t* y, std::int64_t len) {
  for (std::int64_t i = 0; i < len; ++i) y[i] = add_emit_scalar(p, a[i], b[i]);
}

// Requires p.out_shift <= 0 (see use_scalar_path).
void add_span_vec(const PackedEwAddI8& p, const std::int8_t* a,
                  const std::int8_t* b, std::int8_t* y, std::int64_t len) {
  const v8s32_fx za_v = (v8s32_fx){} + p.za;
  const v8s32_fx zb_v = (v8s32_fx){} + p.zb;
  const v8s32_fx am_v = (v8s32_fx){} + p.a_mult;
  const v8s32_fx ae_v = (v8s32_fx){} + (-p.a_shift);
  const v8s32_fx bm_v = (v8s32_fx){} + p.b_mult;
  const v8s32_fx be_v = (v8s32_fx){} + (-p.b_shift);
  const v8s32_fx om_v = (v8s32_fx){} + p.out_mult;
  const v8s32_fx oe_v = (v8s32_fx){} + (-p.out_shift);
  std::int64_t i = 0;
  for (; i + 8 <= len; i += 8) {
    v8s32_fx as, bs;
    load_widen_i8_v8(a + i, as);
    as = (as - za_v) << kAddLeftShift;
    load_widen_i8_v8(b + i, bs);
    bs = (bs - zb_v) << kAddLeftShift;
    multiply_by_quantized_multiplier_v8(as, am_v, ae_v);
    multiply_by_quantized_multiplier_v8(bs, bm_v, be_v);
    const v8s32_fx acc = p.is_sub != 0 ? as - bs : as + bs;
    requant_clamp_store_i8_v8(acc, om_v, oe_v, p.zo, p.act_min, p.act_max,
                              y + i);
  }
  for (; i < len; ++i) y[i] = add_emit_scalar(p, a[i], b[i]);
}

void addsub_i8_opt(const KernelContext& ctx) {
  const PackedEwAddI8& p = ctx.prepared_root<PackedEwAddI8>();
  const Tensor& a = ctx.input(0);
  const Tensor& b = ctx.input(1);
  const std::int8_t* pa = a.data<std::int8_t>();
  const std::int8_t* pb = b.data<std::int8_t>();
  std::int8_t* y = ctx.output->data<std::int8_t>();
  const AddSpanFn span =
      use_scalar_path(p.out_shift) ? add_span_scalar : add_span_vec;
  if (p.broadcast_b == 0) {
    span(p, pa, pb, y, ctx.output->num_elements());
    return;
  }
  const Shape& as = a.shape();
  const std::int64_t hw = as.dim(1) * as.dim(2);
  const std::int64_t ch = as.dim(3);
  for (std::int64_t n = 0; n < as.dim(0); ++n) {
    const std::int8_t* brow = pb + n * ch;
    for (std::int64_t px = 0; px < hw; ++px) {
      const std::int64_t off = (n * hw + px) * ch;
      span(p, pa + off, brow, y + off, ch);
    }
  }
}

// ---------------------------------------------------------------------------
// Mul (zero-point-free product, single Q31 requant, plain int8 clamp —
// kMul carries no fused activation).
// ---------------------------------------------------------------------------

using MulSpanFn = void (*)(const PackedEwMulI8&, const std::int8_t*,
                           const std::int8_t*, std::int8_t*, std::int64_t);

void mul_span_scalar(const PackedEwMulI8& p, const std::int8_t* a,
                     const std::int8_t* b, std::int8_t* y, std::int64_t len) {
  for (std::int64_t i = 0; i < len; ++i) y[i] = mul_emit_scalar(p, a[i], b[i]);
}

// Requires p.shift <= 0.
void mul_span_vec(const PackedEwMulI8& p, const std::int8_t* a,
                  const std::int8_t* b, std::int8_t* y, std::int64_t len) {
  const v8s32_fx za_v = (v8s32_fx){} + p.za;
  const v8s32_fx zb_v = (v8s32_fx){} + p.zb;
  const v8s32_fx m_v = (v8s32_fx){} + p.mult;
  const v8s32_fx e_v = (v8s32_fx){} + (-p.shift);
  std::int64_t i = 0;
  for (; i + 8 <= len; i += 8) {
    v8s32_fx av, bv;
    load_widen_i8_v8(a + i, av);
    av -= za_v;
    load_widen_i8_v8(b + i, bv);
    requant_clamp_store_i8_v8(av * (bv - zb_v), m_v, e_v, p.zo, -128, 127,
                              y + i);
  }
  for (; i < len; ++i) y[i] = mul_emit_scalar(p, a[i], b[i]);
}

void mul_i8_opt(const KernelContext& ctx) {
  const PackedEwMulI8& p = ctx.prepared_root<PackedEwMulI8>();
  const Tensor& a = ctx.input(0);
  const Tensor& b = ctx.input(1);
  const std::int8_t* pa = a.data<std::int8_t>();
  const std::int8_t* pb = b.data<std::int8_t>();
  std::int8_t* y = ctx.output->data<std::int8_t>();
  const MulSpanFn span =
      use_scalar_path(p.shift) ? mul_span_scalar : mul_span_vec;
  if (p.broadcast_b == 0) {
    span(p, pa, pb, y, ctx.output->num_elements());
    return;
  }
  const Shape& as = a.shape();
  const std::int64_t hw = as.dim(1) * as.dim(2);
  const std::int64_t ch = as.dim(3);
  for (std::int64_t n = 0; n < as.dim(0); ++n) {
    const std::int8_t* brow = pb + n * ch;
    for (std::int64_t px = 0; px < hw; ++px) {
      const std::int64_t off = (n * hw + px) * ch;
      span(p, pa + off, brow, y + off, ch);
    }
  }
}

// ---------------------------------------------------------------------------
// Mean: exact integer sum over H*W per (batch, channel), one fixed-point
// rounding through a multiplier that folds in/(out*hw).
// ---------------------------------------------------------------------------

using MeanFn = void (*)(const PackedEwMeanI8&, const std::int8_t*,
                        std::int64_t, std::int64_t, std::int8_t*);

void mean_scalar(const PackedEwMeanI8& p, const std::int8_t* x,
                 std::int64_t hw, std::int64_t ch, std::int8_t* y) {
  for (std::int64_t c = 0; c < ch; ++c) y[c] = mean_channel(p, x, hw, ch, c);
}

// Requires p.shift <= 0 (always true when the output inherits the input
// quantization, since the multiplier then is exactly 1/hw).
void mean_vec(const PackedEwMeanI8& p, const std::int8_t* x, std::int64_t hw,
              std::int64_t ch, std::int8_t* y) {
  const v8s32_fx m_v = (v8s32_fx){} + p.mult;
  const v8s32_fx e_v = (v8s32_fx){} + (-p.shift);
  const v8s32_fx init_v =
      (v8s32_fx){} - static_cast<std::int32_t>(hw) * p.in_zp;
  std::int64_t c = 0;
  for (; c + 8 <= ch; c += 8) {
    v8s32_fx acc = init_v;
    for (std::int64_t px = 0; px < hw; ++px) {
      v8s32_fx xv;
      load_widen_i8_v8(x + px * ch + c, xv);
      acc += xv;
    }
    requant_clamp_store_i8_v8(acc, m_v, e_v, p.out_zp, -128, 127, y + c);
  }
  for (; c < ch; ++c) y[c] = mean_channel(p, x, hw, ch, c);
}

void mean_i8_opt(const KernelContext& ctx) {
  const PackedEwMeanI8& p = ctx.prepared_root<PackedEwMeanI8>();
  const Tensor& in = ctx.input(0);
  const Shape& is = in.shape();
  const std::int64_t hw = is.dim(1) * is.dim(2);
  const std::int64_t ch = is.dim(3);
  const std::int8_t* x = in.data<std::int8_t>();
  std::int8_t* y = ctx.output->data<std::int8_t>();
  const MeanFn mean = use_scalar_path(p.shift) ? mean_scalar : mean_vec;
  for (std::int64_t n = 0; n < is.dim(0); ++n) {
    mean(p, x + n * hw * ch, hw, ch, y + n * ch);
  }
}

// ---------------------------------------------------------------------------
// LUT activations (Logistic / HardSwish / Tanh). The table is built with the
// same build_i8_lut the reference kernels use — so the optimized path is
// bit-exact with reference (0 quanta) — but at plan time, into
// PreparedStorage, instead of 256 expf/lround calls per invoke. The lookup
// loop is byte arithmetic with a single path.
// ---------------------------------------------------------------------------

template <float (*Fn)(float)>
void ew_lut_prepare(const KernelContext& ctx) {
  auto* root = ctx.prepared->allocate_array<PackedEwLutI8>(1);
  auto* table = ctx.prepared->allocate_array<std::int8_t>(256);
  const auto built =
      build_i8_lut(ctx.input(0).quant(), ctx.output->quant(), Fn);
  std::memcpy(table, built.data(), built.size());
  root->table = table;
  ctx.prepared->set_root(root);
}

void ew_lut_i8_opt(const KernelContext& ctx) {
  const Tensor& in = ctx.input(0);
  const std::int8_t* table = ctx.prepared_root<PackedEwLutI8>().table;
  const std::int8_t* src = in.data<std::int8_t>();
  std::int8_t* dst = ctx.output->data<std::int8_t>();
  const std::int64_t n = in.num_elements();
  for (std::int64_t i = 0; i < n; ++i) {
    dst[i] = table[static_cast<std::size_t>(static_cast<int>(src[i]) + 128)];
  }
}

}  // namespace

void register_elementwise_i8_kernels(KernelMap& map) {
  map[{OpType::kAdd, true}] = {
      addsub_i8_opt, ew_prepare<PackedEwAddI8, build_packed_add_i8>};
  map[{OpType::kSub, true}] = {
      addsub_i8_opt, ew_prepare<PackedEwAddI8, build_packed_add_i8>};
  map[{OpType::kMul, true}] = {
      mul_i8_opt, ew_prepare<PackedEwMulI8, build_packed_mul_i8>};
  map[{OpType::kMean, true}] = {
      mean_i8_opt, ew_prepare<PackedEwMeanI8, build_packed_mean_i8>};
  map[{OpType::kSigmoid, true}] = {ew_lut_i8_opt,
                                   ew_lut_prepare<sigmoid_f32>};
  map[{OpType::kHardSwish, true}] = {ew_lut_i8_opt,
                                     ew_lut_prepare<hardswish_f32>};
  map[{OpType::kTanh, true}] = {ew_lut_i8_opt, ew_lut_prepare<tanh_f32>};
}

}  // namespace mlexray
