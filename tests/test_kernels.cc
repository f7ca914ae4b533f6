#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <string>
#include <vector>

#include "src/graph/builder.h"
#include "src/interpreter/session.h"
#include "src/kernels/activation.h"
#include "src/kernels/conv_utils.h"
#include "src/kernels/elementwise.h"
#include "src/kernels/fixed_point.h"
#include "src/kernels/kernel.h"
#include "src/quant/quantizer.h"
#include "src/tensor/tensor_stats.h"
#include "tests/differential.h"

namespace mlexray {
namespace {

TEST(FixedPoint, QuantizeMultiplierRoundTrips) {
  for (double real : {0.5, 0.25, 0.1, 0.0123, 0.9999, 3e-5}) {
    std::int32_t m = 0;
    int shift = 0;
    quantize_multiplier(real, &m, &shift);
    double reconstructed = static_cast<double>(m) / (1LL << 31) *
                           std::pow(2.0, shift);
    EXPECT_NEAR(reconstructed / real, 1.0, 1e-6) << real;
  }
}

TEST(FixedPoint, MultiplyMatchesDouble) {
  std::int32_t m = 0;
  int shift = 0;
  quantize_multiplier(0.00372, &m, &shift);
  for (std::int32_t x : {-100000, -1234, -1, 0, 1, 999, 123456}) {
    std::int32_t got = multiply_by_quantized_multiplier(x, m, shift);
    auto want = static_cast<std::int32_t>(std::lround(x * 0.00372));
    EXPECT_NEAR(got, want, 1) << x;
  }
}

TEST(FixedPoint, RoundingDivideByPot) {
  EXPECT_EQ(rounding_divide_by_pot(8, 2), 2);
  EXPECT_EQ(rounding_divide_by_pot(10, 2), 3);   // 2.5 rounds away
  EXPECT_EQ(rounding_divide_by_pot(-10, 2), -3);
  EXPECT_EQ(rounding_divide_by_pot(9, 2), 2);
}

TEST(FixedPoint, ClampToI8) {
  EXPECT_EQ(clamp_to_i8(300), 127);
  EXPECT_EQ(clamp_to_i8(-300), -128);
  EXPECT_EQ(clamp_to_i8(5), 5);
}

// The 8-lane requant (the epilogue of every optimized int8 kernel) against
// the scalar spec, lane by lane. x covers the int32 rails and the values
// around +-2^30 plus seeded random ones; multipliers cover the ends of
// quantize_multiplier's range [2^30, 2^31) plus random ones; exponents run
// 0..31. Lane l of each call takes multiplier ms[(j + l) % |ms|] and
// exponent (e + l) % 32, so every x meets every multiplier and exponent,
// and lanes in one vector never share them.
TEST(FixedPoint, VectorRequantMatchesScalar) {
  constexpr std::int32_t kMin = std::numeric_limits<std::int32_t>::min();
  constexpr std::int32_t kMax = std::numeric_limits<std::int32_t>::max();
  constexpr std::int32_t k30 = 1 << 30;
  std::vector<std::int32_t> xs = {kMin,    kMin + 1, k30 - 1,  k30,
                                  k30 + 1, -k30 - 1, -k30,     -k30 + 1,
                                  -1,      0,        1,        kMax};
  std::vector<std::int32_t> ms = {k30, k30 + 1, kMax};
  Pcg32 rng(20);
  while (xs.size() < 512) {
    xs.push_back(static_cast<std::int32_t>(rng.next_u32()));
  }
  for (int i = 0; i < 13; ++i) {
    ms.push_back(k30 + static_cast<std::int32_t>(rng.next_below(1u << 30)));
  }
  const std::int32_t out_zp = -3;
  const std::int32_t act_min = -100;
  const std::int32_t act_max = 90;
  std::int64_t mismatches = 0;
  for (int e = 0; e < 32; ++e) {
    for (std::size_t j = 0; j < ms.size(); ++j) {
      for (std::size_t i = 0; i < xs.size(); i += 8) {
        v8s32_fx xv = {}, mv = {}, ev = {};
        for (int l = 0; l < 8; ++l) {
          xv[l] = xs[i + static_cast<std::size_t>(l)];
          mv[l] = ms[(j + static_cast<std::size_t>(l)) % ms.size()];
          ev[l] = (e + l) % 32;
        }
        v8s32_fx got = xv;
        multiply_by_quantized_multiplier_v8(got, mv, ev);
        std::int32_t want[8];
        // The epilogue's contract: requantized value + zero point fits in
        // int32 (every kernel's accumulators sit far inside it). Only the
        // rails at small exponents leave it; their stores are not checked.
        bool in_contract = true;
        for (int l = 0; l < 8; ++l) {
          want[l] = multiply_by_quantized_multiplier(xv[l], mv[l], -ev[l]);
          const std::int64_t shifted = std::int64_t{want[l]} + out_zp;
          in_contract = in_contract && shifted >= kMin && shifted <= kMax;
        }
        std::int8_t stored[8] = {};
        if (in_contract) {
          requant_clamp_store_i8_v8(xv, mv, ev, out_zp, act_min, act_max,
                                    stored);
        }
        for (int l = 0; l < 8; ++l) {
          const bool store_ok =
              !in_contract ||
              stored[l] == std::clamp(want[l] + out_zp, act_min, act_max);
          if (got[l] != want[l] || !store_ok) {
            if (++mismatches <= 5) {
              ADD_FAILURE() << "x=" << xv[l] << " m=" << mv[l]
                            << " exp=" << ev[l] << ": vector " << got[l]
                            << " / stored " << int{stored[l]} << ", scalar "
                            << want[l];
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
}

// The int8 spec both resolvers run, against real arithmetic: their parity
// says nothing about its accuracy, this does. Every result lies within one
// output quantum of the real result, rounded half away from zero and
// clamped to the output's (activation) range:
//  - the conv / depthwise / FC requant, multiply_by_quantized_multiplier
//    with quantize_multiplier(r), against round(acc * r) for random int32
//    accumulators (and the rails) and r = q * 2^-e, q in [0.5, 1), at
//    every exponent e in 0..31;
//  - Add/Sub and Mul over all 256 x 256 int8 operand pairs, and Mean over
//    the sums of random images of random size, each for 64 random draws of
//    scales, zero points and (Add/Sub) fused activation; every fourth draw
//    puts the output multiplier at or above 1.
// Measured maximum on each of the five rules: 1 quantum.
TEST(FixedPoint, SpecWithinOneQuantumOfRealArithmetic) {
  Pcg32 rng(26);
  const auto rounded = [](double real, std::int32_t zp, std::int32_t lo,
                          std::int32_t hi) {
    return std::clamp<std::int64_t>(std::llround(real) + zp, lo, hi);
  };

  std::int64_t conv_max = 0;
  for (int e = 0; e < 32; ++e) {
    for (int k = 0; k < 32; ++k) {
      const double r = std::ldexp(0.5 + 0.499 * rng.uniform(0.0f, 1.0f), -e);
      std::int32_t m = 0;
      int shift = 0;
      quantize_multiplier(r, &m, &shift);
      for (int i = 0; i < 66; ++i) {
        const auto acc =
            i == 0   ? std::numeric_limits<std::int32_t>::min()
            : i == 1 ? std::numeric_limits<std::int32_t>::max()
                     : static_cast<std::int32_t>(rng.next_u32());
        const std::int64_t got =
            multiply_by_quantized_multiplier(acc, m, shift);
        const std::int64_t want = std::llround(static_cast<double>(acc) * r);
        conv_max = std::max(conv_max, std::abs(got - want));
      }
    }
  }
  EXPECT_LE(conv_max, 1);

  // Each draw: input scales in [2^-10, 1], random zero points, and per op
  // an output scale around its usual size or one that puts the output
  // multiplier at or above 1.
  const Activation acts[] = {Activation::kNone, Activation::kRelu,
                             Activation::kRelu6};
  const auto zero_point = [&] {
    return static_cast<std::int32_t>(rng.next_below(256)) - 128;
  };
  const auto log_uniform = [&](float lo, float hi) {
    return std::exp2(rng.uniform(lo, hi));
  };
  std::int64_t add_max = 0, sub_max = 0, mul_max = 0, mean_max = 0;
  for (int i = 0; i < 64; ++i) {
    const bool big_multiplier = i % 4 == 0;
    Node node;
    node.name = "op";
    Tensor a = Tensor::i8(Shape{1, 1, 1, 1});
    Tensor b = Tensor::i8(Shape{1, 1, 1, 1});
    Tensor out = Tensor::i8(Shape{1, 1, 1, 1});
    KernelContext ctx;
    ctx.node = &node;
    ctx.inputs = {&a, &b};
    ctx.output = &out;
    const float sa = log_uniform(-10.0f, 0.0f);
    const float sb = log_uniform(-10.0f, 0.0f);
    const std::int32_t za = zero_point();
    const std::int32_t zb = zero_point();
    a.quant() = QuantParams::per_tensor(sa, za);
    b.quant() = QuantParams::per_tensor(sb, zb);

    // Add / Sub: the output multiplier is 2 max(sa, sb) / (2^20 so).
    for (OpType type : {OpType::kAdd, OpType::kSub}) {
      node.type = type;
      node.attrs.activation = acts[rng.next_below(3)];
      const float so = std::max(sa, sb) * (big_multiplier
                                               ? log_uniform(-22.0f, -19.0f)
                                               : log_uniform(-3.0f, 3.0f));
      const std::int32_t zo = zero_point();
      out.quant() = QuantParams::per_tensor(so, zo);
      const PackedEwAddI8 p = build_packed_add_i8(ctx);
      const QuantActivationRange range =
          quant_activation_range(node.attrs.activation, so, zo);
      std::int64_t& worst = type == OpType::kAdd ? add_max : sub_max;
      for (int qa = -128; qa < 128; ++qa) {
        for (int qb = -128; qb < 128; ++qb) {
          const double bterm = static_cast<double>(sb) * (qb - zb);
          const double real = static_cast<double>(sa) * (qa - za) +
                              (type == OpType::kSub ? -bterm : bterm);
          const std::int64_t want =
              rounded(real / so, zo, range.min, range.max);
          const std::int64_t got =
              add_emit_scalar(p, static_cast<std::int8_t>(qa),
                              static_cast<std::int8_t>(qb));
          worst = std::max(worst, std::abs(got - want));
        }
      }
    }

    // Mul: the output multiplier is sa sb / so.
    {
      node.type = OpType::kMul;
      node.attrs.activation = Activation::kNone;
      const float so = sa * sb * (big_multiplier ? log_uniform(-3.0f, 0.0f)
                                                 : log_uniform(0.0f, 10.0f));
      const std::int32_t zo = zero_point();
      out.quant() = QuantParams::per_tensor(so, zo);
      const PackedEwMulI8 p = build_packed_mul_i8(ctx);
      for (int qa = -128; qa < 128; ++qa) {
        for (int qb = -128; qb < 128; ++qb) {
          const double real = static_cast<double>(sa) * (qa - za) * sb *
                              (qb - zb);
          const std::int64_t want = rounded(real / so, zo, -128, 127);
          const std::int64_t got =
              mul_emit_scalar(p, static_cast<std::int8_t>(qa),
                              static_cast<std::int8_t>(qb));
          mul_max = std::max(mul_max, std::abs(got - want));
        }
      }
    }

    // Mean over an h x w image: the output multiplier is sa / (so hw).
    {
      const std::int64_t h = 1 + rng.next_below(64);
      const std::int64_t w = 1 + rng.next_below(64);
      const auto hw = static_cast<double>(h * w);
      Tensor x = Tensor::i8(Shape{1, h, w, 1});
      x.quant() = a.quant();
      ctx.inputs = {&x};
      node.type = OpType::kMean;
      const float so = big_multiplier
                           ? sa / static_cast<float>(hw) *
                                 log_uniform(-3.0f, 0.0f)
                           : sa * log_uniform(-2.0f, 2.0f);
      const std::int32_t zo = zero_point();
      out.quant() = QuantParams::per_tensor(so, zo);
      const PackedEwMeanI8 p = build_packed_mean_i8(ctx);
      for (int frame = 0; frame < 16; ++frame) {
        std::int8_t* px = x.data<std::int8_t>();
        std::int64_t sum = 0;
        for (std::int64_t j = 0; j < h * w; ++j) {
          px[j] = static_cast<std::int8_t>(zero_point());
          sum += px[j] - za;
        }
        const double real = static_cast<double>(sa) * sum / hw;
        const std::int64_t want = rounded(real / so, zo, -128, 127);
        const std::int64_t got = mean_channel(p, px, h * w, 1, 0);
        mean_max = std::max(mean_max, std::abs(got - want));
      }
      ctx.inputs = {&a, &b};
    }
  }
  EXPECT_LE(add_max, 1);
  EXPECT_LE(sub_max, 1);
  EXPECT_LE(mul_max, 1);
  EXPECT_LE(mean_max, 1);
}

// --- the window rule on its own ---

// A graph of one `kind` node sliding a kh x kw window with strides (sh, sw)
// over a [1, in_h, in_w, 2] input, built through graph shape inference.
Graph window_graph(OpType kind, int in_h, int in_w, int kh, int kw, int sh,
                   int sw, Padding padding) {
  Graph g;
  Node x;
  x.type = OpType::kInput;
  x.name = "x";
  x.output_shape = Shape{1, in_h, in_w, 2};
  g.add_node(std::move(x));
  Node n;
  n.type = kind;
  n.name = "window";
  n.inputs = {0};
  n.attrs.stride_h = sh;
  n.attrs.stride_w = sw;
  n.attrs.padding = padding;
  if (kind == OpType::kConv2D) {
    n.weights = {Tensor::f32(Shape{3, kh, kw, 2}), Tensor::f32(Shape{3})};
  } else if (kind == OpType::kDepthwiseConv2D) {
    n.weights = {Tensor::f32(Shape{1, kh, kw, 2}), Tensor::f32(Shape{2})};
  } else {
    n.attrs.filter_h = kh;
    n.attrs.filter_w = kw;
  }
  g.add_node(std::move(n));
  return g;
}

// One axis of TF's window rule, tap by tap: an input extent, window and
// stride, the output extent, and the input position of each of the window's
// k taps per output index (-1 where out of bounds).
struct AxisTaps {
  int in = 0, k = 0, s = 0;
  std::int64_t out = 0;
  std::vector<std::vector<std::int64_t>> pos;  // [output index][tap]
};
AxisTaps enumerate_axis(int in, int k, int s, Padding padding) {
  AxisTaps a;
  a.in = in;
  a.k = k;
  a.s = s;
  a.out = padding == Padding::kSame ? (in + s - 1) / s : (in - k) / s + 1;
  const std::int64_t before =
      padding == Padding::kSame
          ? std::max<std::int64_t>((a.out - 1) * s + k - in, 0) / 2
          : 0;
  for (std::int64_t o = 0; o < a.out; ++o) {
    std::vector<std::int64_t>& taps = a.pos.emplace_back();
    for (int f = 0; f < k; ++f) {
      const std::int64_t i = o * s - before + f;
      taps.push_back(i >= 0 && i < in ? i : -1);
    }
  }
  return a;
}

// Every input size 1-9, window 1-5 and stride 1-3 on each axis, both
// paddings and every windowed op: each output pixel's box
// (ConvGeometry::window) visits exactly the in-bounds taps of a per-tap
// enumeration, in (fy, fx) order and each at its filter tap, and is never
// empty. The columns sweep independently of the rows, so a swapped axis
// shows. MaxPool2D has no optimized twin, so this is the only independent
// check of its window.
TEST(WindowRule, BoxMatchesPerTapEnumeration) {
  struct Tap {
    std::int64_t iy, ix;
    int fy, fx;
    bool operator==(const Tap&) const = default;
  };
  std::vector<Tap> want, got;
  int cases = 0;
  for (const Padding padding : {Padding::kSame, Padding::kValid}) {
    std::vector<AxisTaps> axes;  // every setting shape inference accepts
    for (int in = 1; in <= 9; ++in) {
      for (int k = 1; k <= 5; ++k) {
        for (int s = 1; s <= 3; ++s) {
          if (padding == Padding::kSame || k <= in) {
            axes.push_back(enumerate_axis(in, k, s, padding));
          }
        }
      }
    }
    for (const OpType kind : {OpType::kConv2D, OpType::kDepthwiseConv2D,
                              OpType::kAvgPool2D, OpType::kMaxPool2D}) {
      for (const AxisTaps& rows : axes) {
        for (const AxisTaps& cols : axes) {
          const Graph g = window_graph(kind, rows.in, cols.in, rows.k, cols.k,
                                       rows.s, cols.s, padding);
          const Node& node = g.node(1);
          const ConvGeometry geo =
              conv_geometry(node, g.node(0).output_shape, node.output_shape);
          const auto where = [&] {
            return std::string(op_type_name(kind)) +
                   (padding == Padding::kSame ? " SAME" : " VALID") + " in " +
                   std::to_string(rows.in) + "x" + std::to_string(cols.in) +
                   " window " + std::to_string(rows.k) + "x" +
                   std::to_string(cols.k) + " stride " +
                   std::to_string(rows.s) + "x" + std::to_string(cols.s);
          };
          ASSERT_EQ(geo.out_h, rows.out) << where();
          ASSERT_EQ(geo.out_w, cols.out) << where();
          ASSERT_EQ(geo.kh, rows.k) << where();
          ASSERT_EQ(geo.kw, cols.k) << where();
          ++cases;
          for (std::int64_t oy = 0; oy < geo.out_h; ++oy) {
            for (std::int64_t ox = 0; ox < geo.out_w; ++ox) {
              want.clear();
              for (int fy = 0; fy < rows.k; ++fy) {
                for (int fx = 0; fx < cols.k; ++fx) {
                  const std::int64_t iy = rows.pos[oy][fy];
                  const std::int64_t ix = cols.pos[ox][fx];
                  if (iy >= 0 && ix >= 0) want.push_back({iy, ix, fy, fx});
                }
              }
              const WindowBox box = geo.window(oy, ox);
              got.clear();
              for (std::int64_t iy = box.y0; iy < box.y1; ++iy) {
                for (std::int64_t ix = box.x0; ix < box.x1; ++ix) {
                  got.push_back({iy, ix, box.fy(iy), box.fx(ix)});
                }
              }
              ASSERT_TRUE(box.y0 < box.y1 && box.x0 < box.x1)
                  << where() << ": empty box at (" << oy << ", " << ox << ")";
              ASSERT_EQ(box.area(), static_cast<std::int64_t>(want.size()))
                  << where() << " at (" << oy << ", " << ox << ")";
              ASSERT_TRUE(got == want)
                  << where() << ": box differs at (" << oy << ", " << ox
                  << ")";
            }
          }
        }
      }
    }
  }
  // Per op: 135 SAME settings per axis, and the 105 VALID ones whose
  // window fits the input.
  EXPECT_EQ(cases, 4 * (135 * 135 + 105 * 105));
}

// --- float reference vs optimized parity, parameterized over geometry ---

struct ConvCase {
  int in_size, in_ch, out_ch, kernel, stride;
  Padding padding;
};

class ConvParity : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvParity, RefMatchesOptimized) {
  const ConvCase& c = GetParam();
  Pcg32 rng(99);
  GraphBuilder b("conv", &rng);
  int x = b.input(Shape{1, c.in_size, c.in_size, c.in_ch});
  b.conv2d(x, c.out_ch, c.kernel, c.kernel, c.stride, c.padding,
           Activation::kRelu6, "conv");
  Graph m = b.finish({1});

  RefOpResolver ref;
  BuiltinOpResolver opt;
  Model ref_model(&m, &ref);
  Session ri(&ref_model);
  Model opt_model(&m, &opt, /*num_threads=*/2);
  Session oi(&opt_model);
  Tensor input = random_input(Shape{1, c.in_size, c.in_size, c.in_ch}, rng);
  ri.set_input(0, input);
  oi.set_input(0, input);
  ri.invoke();
  oi.invoke();
  EXPECT_LT(linf_error(ri.output(0), oi.output(0)), 1e-4);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvParity,
    ::testing::Values(ConvCase{8, 3, 4, 3, 1, Padding::kSame},
                      ConvCase{8, 3, 4, 3, 2, Padding::kSame},
                      ConvCase{9, 2, 5, 3, 2, Padding::kSame},
                      ConvCase{8, 4, 4, 1, 1, Padding::kSame},
                      ConvCase{8, 3, 4, 3, 1, Padding::kValid},
                      ConvCase{7, 1, 2, 5, 2, Padding::kSame},
                      ConvCase{16, 8, 8, 3, 2, Padding::kSame}));

struct DwCase {
  int in_size, ch, kernel, stride;
  Padding padding;
};

class DwConvParity : public ::testing::TestWithParam<DwCase> {};

TEST_P(DwConvParity, RefMatchesOptimized) {
  const DwCase& c = GetParam();
  Pcg32 rng(123);
  GraphBuilder b("dw", &rng);
  int x = b.input(Shape{1, c.in_size, c.in_size, c.ch});
  b.depthwise_conv2d(x, c.kernel, c.kernel, c.stride, c.padding,
                     Activation::kRelu, "dw");
  Graph m = b.finish({1});
  RefOpResolver ref;
  BuiltinOpResolver opt;
  Model ref_model(&m, &ref);
  Session ri(&ref_model);
  Model opt_model(&m, &opt, 2);
  Session oi(&opt_model);
  Tensor input = random_input(Shape{1, c.in_size, c.in_size, c.ch}, rng);
  ri.set_input(0, input);
  oi.set_input(0, input);
  ri.invoke();
  oi.invoke();
  EXPECT_LT(linf_error(ri.output(0), oi.output(0)), 1e-4);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, DwConvParity,
    ::testing::Values(DwCase{8, 3, 3, 1, Padding::kSame},
                      DwCase{8, 4, 3, 2, Padding::kSame},
                      DwCase{9, 5, 3, 2, Padding::kSame},
                      DwCase{6, 2, 5, 1, Padding::kSame},
                      DwCase{8, 3, 3, 1, Padding::kValid},
                      // 81 taps: every window size runs the tap-table
                      // pixels, these on the vector path.
                      DwCase{12, 5, 9, 1, Padding::kSame},
                      DwCase{13, 9, 9, 2, Padding::kValid},
                      DwCase{11, 17, 9, 2, Padding::kSame}));

// The int8 9x9 window, large enough to fan out over per-worker tap tables,
// on the differential runner's resolver and scalar-path axes.
TEST(QuantKernels, DwConvHugeWindowTracksReference) {
  for (int dm : {1, 2}) {
    Pcg32 rng(static_cast<std::uint64_t>(40 + dm));
    GraphBuilder b("qdw9", &rng);
    const Shape in_shape{2, 13, 13, 17};
    int x = b.input(in_shape);
    b.depthwise_conv2d(x, 9, 9, 2, Padding::kSame, Activation::kRelu6, "dw",
                       dm);
    Graph m = b.finish({1});
    draw_biases(m, static_cast<std::uint64_t>(60 + dm));
    Calibrator calib(&m);
    Pcg32 drng(static_cast<std::uint64_t>(50 + dm));
    for (int i = 0; i < 4; ++i) calib.observe({random_input(in_shape, drng)});
    const Cell cell{"dm " + std::to_string(dm), quantize_model(m, calib),
                    {{random_input(in_shape, drng)}}};

    RefOpResolver ref;
    BuiltinOpResolver opt;
    const Capture oi = capture(cell, {&opt, 2});
    EXPECT_TRUE(
        layers_agree(capture(cell, reference_side(oi.side, &ref)).trace,
                     oi.trace))
        << cell.name << ": resolver";
    EXPECT_TRUE(
        layers_agree(oi.trace, capture(cell, scalar_side(oi.side)).trace))
        << cell.name << ": scalar path";
  }
}

TEST(KernelParity, PadRefMatchesOptimized) {
  Pcg32 rng(5);
  GraphBuilder b("pad", &rng);
  int x = b.input(Shape{1, 5, 6, 3});
  b.pad(x, 1, 2, 0, 1, "p");
  Graph m = b.finish({1});
  RefOpResolver ref;
  BuiltinOpResolver opt;
  Model ref_model(&m, &ref);
  Session ri(&ref_model);
  Model opt_model(&m, &opt);
  Session oi(&opt_model);
  Tensor input = random_input(Shape{1, 5, 6, 3}, rng);
  ri.set_input(0, input);
  oi.set_input(0, input);
  ri.invoke();
  oi.invoke();
  EXPECT_EQ(linf_error(ri.output(0), oi.output(0)), 0.0);
}

TEST(KernelParity, FullyConnectedRefMatchesOptimized) {
  Pcg32 rng(6);
  GraphBuilder b("fc", &rng);
  int x = b.input(Shape{1, 4, 4, 3});
  b.fully_connected(x, 10, Activation::kNone, "fc");
  Graph m = b.finish({1});
  RefOpResolver ref;
  BuiltinOpResolver opt;
  Model ref_model(&m, &ref);
  Session ri(&ref_model);
  Model opt_model(&m, &opt, 2);
  Session oi(&opt_model);
  Tensor input = random_input(Shape{1, 4, 4, 3}, rng);
  ri.set_input(0, input);
  oi.set_input(0, input);
  ri.invoke();
  oi.invoke();
  EXPECT_LT(linf_error(ri.output(0), oi.output(0)), 1e-4);
}

// --- individual op semantics ---

TEST(Kernels, SoftmaxRowsSumToOne) {
  Pcg32 rng(7);
  GraphBuilder b("sm", &rng);
  int x = b.input(Shape{1, 6});
  b.softmax(x, "sm");
  Graph m = b.finish({1});
  RefOpResolver ref;
  Model model(&m, &ref);
  Session session(&model);
  session.set_input(0, Tensor::f32(Shape{1, 6}, {1, 2, 3, -1, 0, 5}));
  session.invoke();
  const float* p = session.output(0).data<float>();
  float sum = 0;
  for (int i = 0; i < 6; ++i) sum += p[i];
  EXPECT_NEAR(sum, 1.0f, 1e-5);
  EXPECT_GT(p[5], p[0]);
}

TEST(Kernels, MeanComputesSpatialAverage) {
  Pcg32 rng(8);
  GraphBuilder b("mean", &rng);
  int x = b.input(Shape{1, 2, 2, 1});
  b.mean(x, "m");
  Graph m = b.finish({1});
  RefOpResolver ref;
  Model model(&m, &ref);
  Session session(&model);
  session.set_input(0, Tensor::f32(Shape{1, 2, 2, 1}, {1, 2, 3, 6}));
  session.invoke();
  EXPECT_FLOAT_EQ(session.output(0).data<float>()[0], 3.0f);
}

TEST(Kernels, MulBroadcastsSqueezeExciteGate) {
  Pcg32 rng(9);
  GraphBuilder b("mul", &rng);
  int x = b.input(Shape{1, 2, 2, 2});
  int g = b.mean(x, "gate");  // [1,1,1,2]
  b.mul(x, g, "scaled");
  Graph m = b.finish({2});
  RefOpResolver ref;
  Model model(&m, &ref);
  Session session(&model);
  session.set_input(0, Tensor::f32(Shape{1, 2, 2, 2},
                                  {1, 2, 1, 2, 1, 2, 1, 2}));
  session.invoke();
  // gate = (1,2); out = x * gate per channel.
  const float* p = session.output(0).data<float>();
  EXPECT_FLOAT_EQ(p[0], 1.0f);
  EXPECT_FLOAT_EQ(p[1], 4.0f);
}

TEST(Kernels, HardSwishMatchesFormula) {
  Pcg32 rng(10);
  GraphBuilder b("hs", &rng);
  int x = b.input(Shape{1, 5});
  b.hardswish(x, "h");
  Graph m = b.finish({1});
  RefOpResolver ref;
  Model model(&m, &ref);
  Session session(&model);
  session.set_input(0, Tensor::f32(Shape{1, 5}, {-4, -1, 0, 1, 4}));
  session.invoke();
  const float* p = session.output(0).data<float>();
  EXPECT_FLOAT_EQ(p[0], 0.0f);
  EXPECT_FLOAT_EQ(p[1], -1.0f * 2.0f / 6.0f);
  EXPECT_FLOAT_EQ(p[2], 0.0f);
  EXPECT_FLOAT_EQ(p[4], 4.0f);
}

TEST(Kernels, BatchNormInferenceUsesMovingStats) {
  Pcg32 rng(11);
  GraphBuilder b("bn", &rng);
  int x = b.input(Shape{1, 1, 1, 2});
  int bn = b.batch_norm(x, "bn");
  Graph m = b.finish({bn});
  // gamma=2, beta=1, mean=3, var=4 for channel 0.
  Node& node = m.node(bn);
  node.weights[0].data<float>()[0] = 2.0f;
  node.weights[1].data<float>()[0] = 1.0f;
  node.weights[2].data<float>()[0] = 3.0f;
  node.weights[3].data<float>()[0] = 4.0f;
  RefOpResolver ref;
  Model model(&m, &ref);
  Session session(&model);
  session.set_input(0, Tensor::f32(Shape{1, 1, 1, 2}, {5.0f, 0.0f}));
  session.invoke();
  float expected = 2.0f * (5.0f - 3.0f) / std::sqrt(4.0f + 1e-5f) + 1.0f;
  EXPECT_NEAR(session.output(0).data<float>()[0], expected, 1e-4);
}

// --- quantized kernels ---

// A small conv net quantized end-to-end should track the float model.
TEST(QuantKernels, QuantizedConvTracksFloat) {
  Pcg32 rng(21);
  GraphBuilder b("qconv", &rng);
  int x = b.input(Shape{1, 8, 8, 3});
  int c = b.conv2d(x, 6, 3, 3, 1, Padding::kSame, Activation::kRelu, "c1");
  c = b.conv2d(c, 4, 3, 3, 2, Padding::kSame, Activation::kNone, "c2");
  Graph m = b.finish({c});

  Calibrator calib(&m);
  Pcg32 drng(22);
  for (int i = 0; i < 8; ++i) {
    calib.observe({random_input(Shape{1, 8, 8, 3}, drng)});
  }
  Graph qm = quantize_model(m, calib);

  RefOpResolver ref;
  Model f32_model(&m, &ref);
  Session fi(&f32_model);
  Model int8_ref_model(&qm, &ref);
  Session qi_ref(&int8_ref_model);
  BuiltinOpResolver opt;
  Model int8_opt_model(&qm, &opt);
  Session qi_opt(&int8_opt_model);

  Pcg32 erng(23);
  Tensor input = random_input(Shape{1, 8, 8, 3}, erng);
  fi.set_input(0, input);
  qi_ref.set_input(0, input);
  qi_opt.set_input(0, input);
  fi.invoke();
  qi_ref.invoke();
  qi_opt.invoke();

  // Quantized output stays within a few quantization steps of float.
  EXPECT_LT(normalized_rmse(qi_ref.output(0), fi.output(0)), 0.05);
  EXPECT_LT(normalized_rmse(qi_opt.output(0), fi.output(0)), 0.05);
  // Reference and optimized integer paths run one arithmetic.
  EXPECT_TRUE(same_bytes(qi_opt.output(0), qi_ref.output(0)));
}

TEST(QuantKernels, DwConvBugEmulationWrecksOutput) {
  Pcg32 rng(31);
  GraphBuilder b("qdw", &rng);
  int x = b.input(Shape{1, 8, 8, 8});
  int d = b.depthwise_conv2d(x, 3, 3, 1, Padding::kSame, Activation::kNone,
                             "dw");
  Graph m = b.finish({d});
  // Large-ish activations to force accumulator magnitudes past int16.
  Calibrator calib(&m);
  Pcg32 drng(32);
  for (int i = 0; i < 4; ++i) {
    Tensor t = Tensor::f32(Shape{1, 8, 8, 8});
    float* p = t.data<float>();
    for (std::int64_t j = 0; j < t.num_elements(); ++j) p[j] = drng.uniform(-8, 8);
    calib.observe({t});
  }
  Graph qm = quantize_model(m, calib);

  BuiltinOpResolver good(KernelBugConfig::none());
  BuiltinOpResolver bad(KernelBugConfig::as_shipped());
  Model good_model(&qm, &good);
  Session gi(&good_model);
  Model bad_model(&qm, &bad);
  Session bi(&bad_model);
  Tensor input = Tensor::f32(Shape{1, 8, 8, 8});
  Pcg32 erng(33);
  float* p = input.data<float>();
  for (std::int64_t j = 0; j < input.num_elements(); ++j) p[j] = erng.uniform(-8, 8);
  gi.set_input(0, input);
  bi.set_input(0, input);
  gi.invoke();
  bi.invoke();
  // The wrapped accumulator must visibly diverge (benign quantization noise
  // between the two resolvers is ~0.005 on this net).
  EXPECT_GT(normalized_rmse(bi.output(0), gi.output(0)), 0.05);
}

TEST(QuantKernels, AvgPoolBugEmulationCollapsesOutput) {
  Pcg32 rng(41);
  GraphBuilder b("qap", &rng);
  int x = b.input(Shape{1, 8, 8, 4});
  int p = b.avg_pool(x, 8, 1, Padding::kValid, "se_pool");
  Graph m = b.finish({p});
  Calibrator calib(&m);
  Pcg32 drng(42);
  for (int i = 0; i < 4; ++i) {
    calib.observe({random_input(Shape{1, 8, 8, 4}, drng)});
  }
  Graph qm = quantize_model(m, calib);

  RefOpResolver good(KernelBugConfig::none());
  RefOpResolver bad(KernelBugConfig::as_shipped());
  Model good_model(&qm, &good);
  Session gi(&good_model);
  Model bad_model(&qm, &bad);
  Session bi(&bad_model);
  Pcg32 erng(43);
  Tensor input = random_input(Shape{1, 8, 8, 4}, erng);
  gi.set_input(0, input);
  bi.set_input(0, input);
  gi.invoke();
  bi.invoke();
  RefOpResolver float_ref;
  Model float_model(&m, &float_ref);
  Session fi(&float_model);
  fi.set_input(0, input);
  fi.invoke();
  // The buggy pool (wrong shift, no zero point) produces invalid output:
  // far outside one quantum of the correct mean.
  EXPECT_GT(normalized_rmse(bi.output(0), gi.output(0)), 0.5);
  // The correct kernels agree with the float mean within quantization noise.
  EXPECT_LT(normalized_rmse(gi.output(0), fi.output(0)), 0.05);
}

// The optimized int8 AvgPool walks channels contiguously; this is the
// per-channel loop it replaced, which it and the reference kernel must
// match byte for byte: the in-bounds taps of each channel summed, then
// divided by their count, rounding half away from zero.
std::vector<std::int8_t> avgpool_i8_channel_loop(const Tensor& in,
                                                 const Shape& os, int f,
                                                 int stride, Padding padding) {
  const Shape& is = in.shape();
  const std::int64_t ch = is.dim(3);
  const auto pad_before = [&](std::int64_t in, std::int64_t out) {
    return padding == Padding::kSame
               ? std::max<std::int64_t>((out - 1) * stride + f - in, 0) / 2
               : 0;
  };
  const std::int64_t pad_h = pad_before(is.dim(1), os.dim(1));
  const std::int64_t pad_w = pad_before(is.dim(2), os.dim(2));
  const std::int8_t* x = in.data<std::int8_t>();
  std::vector<std::int8_t> y(static_cast<std::size_t>(os.num_elements()));
  for (std::int64_t n = 0; n < os.dim(0); ++n) {
    for (std::int64_t oy = 0; oy < os.dim(1); ++oy) {
      for (std::int64_t ox = 0; ox < os.dim(2); ++ox) {
        for (std::int64_t c = 0; c < ch; ++c) {
          std::int32_t sum = 0;
          int count = 0;
          for (int fy = 0; fy < f; ++fy) {
            const std::int64_t iy = oy * stride - pad_h + fy;
            if (iy < 0 || iy >= is.dim(1)) continue;
            for (int fx = 0; fx < f; ++fx) {
              const std::int64_t ix = ox * stride - pad_w + fx;
              if (ix < 0 || ix >= is.dim(2)) continue;
              sum += x[((n * is.dim(1) + iy) * is.dim(2) + ix) * ch + c];
              ++count;
            }
          }
          const std::int32_t q = count > 0
                                     ? (sum >= 0 ? (sum + count / 2) / count
                                                 : (sum - count / 2) / count)
                                     : 0;
          y[static_cast<std::size_t>(
              ((n * os.dim(1) + oy) * os.dim(2) + ox) * ch + c)] =
              clamp_to_i8(q);
        }
      }
    }
  }
  return y;
}

TEST(QuantKernels, AvgPoolOptMatchesChannelLoopExactly) {
  struct PoolCase {
    Shape in, out;
    int f, stride;
    Padding padding;
  };
  const PoolCase cases[] = {
      // The squeeze-excite global pools of mobilenet_v3_mini.
      {Shape{1, 16, 16, 32}, Shape{1, 1, 1, 32}, 16, 1, Padding::kValid},
      {Shape{1, 8, 8, 72}, Shape{1, 1, 1, 72}, 8, 1, Padding::kValid},
      // 3x3 SAME stride 2: clipped windows on every edge, odd channels,
      // batch 2.
      {Shape{2, 9, 9, 5}, Shape{2, 5, 5, 5}, 3, 2, Padding::kSame},
      {Shape{2, 10, 7, 13}, Shape{2, 5, 4, 13}, 3, 2, Padding::kSame},
  };
  BuiltinOpResolver opt;
  RefOpResolver ref;
  Pcg32 rng(61);
  for (const PoolCase& pc : cases) {
    Node node;
    node.type = OpType::kAvgPool2D;
    node.name = "pool";
    node.attrs.filter_h = node.attrs.filter_w = pc.f;
    node.attrs.stride_h = node.attrs.stride_w = pc.stride;
    node.attrs.padding = pc.padding;
    node.output_shape = pc.out;
    node.output_dtype = DType::kI8;
    const QuantParams q = QuantParams::per_tensor(0.05f, 9);
    node.output_quant = q;
    Tensor in = Tensor::i8(pc.in);
    in.quant() = q;
    std::int8_t* px = in.data<std::int8_t>();
    for (std::int64_t i = 0; i < in.num_elements(); ++i) {
      px[i] = static_cast<std::int8_t>(
          static_cast<int>(rng.next_below(256)) - 128);
    }
    Tensor out = Tensor::i8(pc.out);
    out.quant() = q;
    ScratchArena arena;
    KernelContext ctx;
    ctx.node = &node;
    ctx.inputs = {&in};
    ctx.output = &out;
    ctx.arena = &arena;
    const std::vector<std::int8_t> want =
        avgpool_i8_channel_loop(in, pc.out, pc.f, pc.stride, pc.padding);
    for (const OpResolver* resolver :
         std::initializer_list<const OpResolver*>{&opt, &ref}) {
      std::memset(out.raw_data(), 0x55, out.byte_size());
      resolver->find(node).invoke(ctx);
      EXPECT_EQ(
          std::memcmp(out.data<std::int8_t>(), want.data(), want.size()), 0)
          << resolver->name() << ": " << pc.in.dim(1) << "x" << pc.in.dim(2)
          << "x" << pc.in.dim(3) << " window " << pc.f << " stride "
          << pc.stride;
    }
  }
}

// The int8 AvgPool averages quantized values, so its output must carry its
// input's quantization. The quantizer always gives it that; a graph edited
// to break it (a scale or a zero point) fails by name under both resolvers.
TEST(QuantKernels, AvgPoolRejectsMismatchedQuantization) {
  Pcg32 rng(44);
  GraphBuilder b("qap", &rng);
  const Shape in_shape{1, 8, 8, 4};
  int x = b.input(in_shape);
  b.avg_pool(x, 2, 2, Padding::kValid, "edited_pool");
  Graph m = b.finish({1});
  Calibrator calib(&m);
  for (int i = 0; i < 4; ++i) calib.observe({random_input(in_shape, rng)});
  const Graph qm = quantize_model(m, calib);
  const Tensor input = random_input(in_shape, rng);
  for (bool edit_scale : {true, false}) {
    Graph edited = qm;
    for (Node& n : edited.nodes) {
      if (n.name != "edited_pool") continue;
      ASSERT_EQ(n.type, OpType::kAvgPool2D);
      if (edit_scale) {
        n.output_quant.scales[0] *= 2.0f;
      } else {
        n.output_quant.zero_points[0] += 1;
      }
    }
    BuiltinOpResolver opt;
    RefOpResolver ref;
    for (const OpResolver* resolver :
         std::initializer_list<const OpResolver*>{&opt, &ref}) {
      Model model(&edited, resolver);
      Session session(&model);
      session.set_input(0, input);
      try {
        session.invoke();
        ADD_FAILURE() << resolver->name() << " ran the edited pool";
      } catch (const MlxError& e) {
        EXPECT_NE(std::string(e.what()).find("'edited_pool'"),
                  std::string::npos)
            << resolver->name() << ": " << e.what();
      }
    }
  }
}

TEST(QuantKernels, QuantizeDequantizeRoundTrip) {
  Pcg32 rng(51);
  GraphBuilder b("qdq", &rng);
  int x = b.input(Shape{1, 4, 4, 2});
  Graph m = b.finish({x});
  // Build a quantized identity: input -> quantize -> dequantize. The eval
  // sample is part of calibration so no clipping occurs (clipping behaviour
  // is exercised separately by the calibration ablation).
  Pcg32 erng(53);
  Tensor input = random_input(Shape{1, 4, 4, 2}, erng);
  Calibrator calib(&m);
  Pcg32 drng(52);
  for (int i = 0; i < 4; ++i) calib.observe({random_input(Shape{1, 4, 4, 2}, drng)});
  calib.observe({input});
  Graph qm = quantize_model(m, calib);
  RefOpResolver ref;
  Model model(&qm, &ref);
  Session session(&model);
  session.set_input(0, input);
  session.invoke();
  // round-trip error bounded by one quantization step (range 4 / 255).
  EXPECT_LT(linf_error(session.output(0), input), 4.2 / 255.0);
}

// --- vectorized Quantize/Dequantize vs scalar reference ---------------------
//
// The optimized resolver overrides the e2e int8 path's endpoint kernels with
// SIMD variants; both must be bit-exact with the shared scalar reference.
// Odd lengths exercise every vector-tail split; scale 0.25 (a power of two)
// makes x = (k + 0.5) * scale divide back to an exact .5 tie, pinning the
// half-away-from-zero rounding the reference's std::lround uses.

TEST(QuantizeKernels, OptQuantizeMatchesRefAtOddLengths) {
  RefOpResolver ref;
  BuiltinOpResolver opt;
  Pcg32 rng(314);
  for (std::int64_t n : {1LL, 3LL, 5LL, 7LL, 9LL, 15LL, 17LL, 31LL, 33LL,
                         63LL, 67LL, 255LL, 257LL, 1001LL}) {
    Node node;
    node.id = 0;
    node.type = OpType::kQuantize;
    node.name = "quantize";
    node.output_shape = Shape{n};
    node.output_dtype = DType::kI8;
    node.output_quant = QuantParams::per_tensor(0.25f, 3);

    Tensor in = Tensor::f32(Shape{n});
    float* p = in.data<float>();
    for (std::int64_t i = 0; i < n; ++i) {
      switch (i % 4) {
        case 0:  // exact .5 tie after division by scale
          p[i] = (static_cast<float>(i % 97) - 48.0f + 0.5f) * 0.25f;
          break;
        case 1:  // saturating magnitudes
          p[i] = rng.uniform(-1000.0f, 1000.0f);
          break;
        default:
          p[i] = rng.uniform(-40.0f, 40.0f);
      }
    }
    Tensor out_ref(DType::kI8, Shape{n});
    out_ref.quant() = node.output_quant;
    Tensor out_opt(DType::kI8, Shape{n});
    out_opt.quant() = node.output_quant;

    KernelContext ctx;
    ctx.node = &node;
    ctx.inputs = {&in};
    ctx.output = &out_ref;
    ref.find(node).invoke(ctx);
    ctx.output = &out_opt;
    opt.find(node).invoke(ctx);
    EXPECT_TRUE(same_bytes(out_ref, out_opt)) << "n=" << n;
  }
}

TEST(QuantizeKernels, OptDequantizeMatchesRefAtOddLengths) {
  RefOpResolver ref;
  BuiltinOpResolver opt;
  Pcg32 rng(159);
  for (std::int64_t n : {1LL, 3LL, 7LL, 9LL, 17LL, 33LL, 67LL, 255LL, 257LL,
                         1001LL}) {
    Node node;
    node.id = 0;
    node.type = OpType::kDequantize;
    node.name = "dequantize";
    node.output_shape = Shape{n};
    node.output_dtype = DType::kF32;

    Tensor in(DType::kI8, Shape{n});
    in.quant() = QuantParams::per_tensor(0.0371f, -5);
    std::int8_t* p = in.data<std::int8_t>();
    for (std::int64_t i = 0; i < n; ++i) {
      p[i] = static_cast<std::int8_t>(static_cast<int>(rng.next_below(255)) -
                                      127);
    }
    Tensor out_ref = Tensor::f32(Shape{n});
    Tensor out_opt = Tensor::f32(Shape{n});

    KernelContext ctx;
    ctx.node = &node;
    ctx.inputs = {&in};
    ctx.output = &out_ref;
    ref.find(node).invoke(ctx);
    ctx.output = &out_opt;
    opt.find(node).invoke(ctx);
    EXPECT_TRUE(same_bytes(out_ref, out_opt)) << "n=" << n;
  }
}

TEST(Resolver, MissingKernelThrows) {
  Pcg32 rng(61);
  GraphBuilder b("emb", &rng);
  int ids = b.input(Shape{1, 4}, DType::kI32, "tokens");
  int e = b.embedding(ids, 10, 4, "emb");
  Graph m = b.finish({e});
  Node fake = m.node(e);
  fake.output_dtype = DType::kI8;  // no int8 embedding kernel exists
  RefOpResolver ref;
  EXPECT_THROW(ref.find(fake), MlxError);
}

}  // namespace
}  // namespace mlexray
