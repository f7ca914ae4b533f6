// Opt-vs-ref kernel equivalence over a parameterized geometry/activation
// grid, on the differential runner's resolver axis (tests/differential.h),
// plus the GEMM cores against naive loops and the scratch arena's reuse.
//
// Float parity is asserted to <= 4 ULP per element: the GEMM core
// accumulates each output bias-first in ascending k order — exactly the
// reference kernels' order — so the only tolerated difference is FMA
// contraction asymmetry between the two compiled loops (the compiler fuses
// mul+add in one and not the other; observed distance on GCC12/-march=native
// is 0-1 ULP). A geometry or ordering bug shows up as thousands of ULPs.
// Int8 parity is asserted byte for byte: both resolvers accumulate exactly
// in int32 and requantize through the one Q31 fixed-point spec
// (fixed_point.h), so any difference is a kernel bug. Every cell carries
// seeded nonzero biases, so a kernel that drops or reorders its bias fails.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>

#include "src/convert/converter.h"
#include "src/graph/builder.h"
#include "src/interpreter/session.h"
#include "src/kernels/activation.h"
#include "src/kernels/fixed_point.h"
#include "src/kernels/gemm.h"
#include "src/models/zoo.h"
#include "src/quant/quantizer.h"
#include "tests/differential.h"

namespace mlexray {
namespace {

// One opt-vs-ref case. Conv2D sweeps the implicit-GEMM geometry: 1x1, 3x3
// and 5x5 filters; out_ch 8, 12 and 20 (a full f32 panel, then the n % 8 and
// n % 16 partial last tiles); the odd in_ch kInCh; SAME/VALID, stride 1/2;
// batch 1 and 3 over a 9x9 input, whose output area is odd for every
// geometry but 3x3/VALID/s2 — so 4-row tiles straddle image boundaries;
// and 1 or 2 threads (per-worker gather buffers). DepthwiseConv2D and
// FullyConnected keep their activation x dtype coverage.
struct GridCase {
  OpType op;
  int kernel;
  int out_ch;
  Padding padding;
  int stride;
  int batch;
  int threads;
  Activation act;
  bool quantized;

  friend std::ostream& operator<<(std::ostream& os, const GridCase& c) {
    return os << op_type_name(c.op) << "/k" << c.kernel << "/o" << c.out_ch
              << (c.padding == Padding::kSame ? "/Same" : "/Valid") << "/s"
              << c.stride << "/b" << c.batch << "/t" << c.threads << "/act"
              << static_cast<int>(c.act) << (c.quantized ? "/i8" : "/f32");
  }
};

constexpr int kInCh = 5;
constexpr Activation kActs[] = {Activation::kNone, Activation::kRelu,
                                Activation::kRelu6};

std::vector<GridCase> make_grid() {
  std::vector<GridCase> grid;
  for (int kernel : {1, 3, 5}) {
    for (int out_ch : {8, 12, 20}) {
      for (Padding padding : {Padding::kSame, Padding::kValid}) {
        for (int stride : {1, 2}) {
          for (int batch : {1, 3}) {
            for (int threads : {1, 2}) {
              for (bool quantized : {false, true}) {
                // Activations cycle across cases instead of multiplying
                // the grid.
                const Activation act = kActs[grid.size() % 3];
                grid.push_back({OpType::kConv2D, kernel, out_ch, padding,
                                stride, batch, threads, act, quantized});
              }
            }
          }
        }
      }
    }
  }
  for (Padding padding : {Padding::kSame, Padding::kValid}) {
    for (int stride : {1, 2}) {
      for (Activation act : kActs) {
        for (bool quantized : {false, true}) {
          grid.push_back({OpType::kDepthwiseConv2D, 3, kInCh, padding, stride,
                          1, 2, act, quantized});
        }
      }
    }
  }
  // FullyConnected has no geometry axes; cover activation x dtype.
  for (Activation act : kActs) {
    for (bool quantized : {false, true}) {
      grid.push_back({OpType::kFullyConnected, 1, 10, Padding::kSame, 1, 1, 2,
                      act, quantized});
    }
  }
  return grid;
}

class KernelGrid : public ::testing::TestWithParam<GridCase> {};

TEST_P(KernelGrid, OptMatchesRef) {
  const GridCase& c = GetParam();
  const Shape in_shape{c.batch, 9, 9, kInCh};
  Pcg32 rng(1234);
  GraphBuilder b("grid", &rng);
  int x = b.input(in_shape);
  switch (c.op) {
    case OpType::kConv2D:
      b.conv2d(x, c.out_ch, c.kernel, c.kernel, c.stride, c.padding, c.act,
               "op");
      break;
    case OpType::kDepthwiseConv2D:
      b.depthwise_conv2d(x, c.kernel, c.kernel, c.stride, c.padding, c.act,
                         "op");
      break;
    case OpType::kFullyConnected:
      b.fully_connected(x, c.out_ch, c.act, "op");
      break;
    default:
      MLX_FAIL() << "unexpected grid op";
  }
  Graph m = b.finish({1});
  draw_biases(m, 1235);

  Pcg32 drng(77);
  Tensor input = random_input(in_shape, drng);
  Cell cell{"grid", m, {{input}}};
  if (c.quantized) {
    Calibrator calib(&m);
    Pcg32 crng(88);
    for (int i = 0; i < 6; ++i) calib.observe({random_input(in_shape, crng)});
    calib.observe({input});
    cell.graph = quantize_model(m, calib);
  }

  RefOpResolver ref;
  BuiltinOpResolver opt;
  const Capture os = capture(cell, {&opt, c.threads});
  // Identical accumulation order: f32 may differ only by FMA-contraction
  // rounding, at most a few ULPs where a real geometry bug is thousands.
  // One integer arithmetic on both resolvers: int8 has the same bytes.
  EXPECT_TRUE(layers_agree(capture(cell, reference_side(os.side, &ref)).trace,
                           os.trace, c.quantized ? 0 : 4))
      << c;
}

INSTANTIATE_TEST_SUITE_P(GeometryActDtype, KernelGrid,
                         ::testing::ValuesIn(make_grid()));

// The int8 implicit-GEMM conv against the definition written out here: an
// explicit im2col of the quantized input (padded taps at the input zero
// point), a naive int32 dot product per output, and the Q31 per-channel
// requantization. Integer math is exact, so the kernel must match bit for
// bit — at every geometry, including tiles that straddle images and run on
// a second worker's gather buffer.
TEST(ImplicitGemmConv, Int8MatchesIm2colNaiveLoopExactly) {
  struct ConvCase {
    int kernel, out_ch, stride;
    Padding padding;
    Activation act;
    Shape in_shape{3, 9, 9, kInCh};
  };
  // The last two have one output pixel, so they take the matvec on a raw
  // int8 row: gathered (3x3) or in place (1x1).
  for (const ConvCase& cc :
       {ConvCase{3, 12, 1, Padding::kSame, Activation::kRelu},
        ConvCase{3, 20, 2, Padding::kSame, Activation::kNone},
        ConvCase{5, 8, 1, Padding::kValid, Activation::kRelu6},
        ConvCase{5, 12, 2, Padding::kSame, Activation::kNone},
        ConvCase{1, 20, 2, Padding::kValid, Activation::kRelu},
        ConvCase{1, 12, 1, Padding::kSame, Activation::kNone},
        ConvCase{3, 20, 1, Padding::kValid, Activation::kNone,
                 Shape{1, 3, 3, kInCh}},
        ConvCase{1, 12, 1, Padding::kValid, Activation::kRelu,
                 Shape{1, 1, 1, kInCh}}}) {
    const Shape& in_shape = cc.in_shape;
    Pcg32 rng(500 + cc.kernel * 10 + cc.out_ch);
    GraphBuilder b("exact", &rng);
    int x = b.input(in_shape);
    b.conv2d(x, cc.out_ch, cc.kernel, cc.kernel, cc.stride, cc.padding,
             cc.act, "conv");
    Graph m = b.finish({1});
    draw_biases(m, 502);
    Calibrator calib(&m);
    Pcg32 crng(501);
    for (int i = 0; i < 4; ++i) calib.observe({random_input(in_shape, crng)});
    // Every node an output, so the conv's int8 input and output are
    // readable after invoke.
    const Graph qm = every_node_an_output(quantize_model(m, calib));
    BuiltinOpResolver opt;
    Model model(&qm, &opt, /*num_threads=*/2);
    Session session(&model);
    session.set_input(0, random_input(in_shape, crng));
    session.invoke();

    const Node* conv = nullptr;
    for (const Node& n : qm.nodes) {
      if (n.type == OpType::kConv2D) conv = &n;
    }
    ASSERT_NE(conv, nullptr);
    const Tensor& xq = session.node_output(conv->inputs[0]);
    const Tensor& yq = session.node_output(conv->id);
    const Tensor& w = conv->weights[0];
    const std::int32_t* bias = conv->weights[1].data<std::int32_t>();
    const Shape& is = xq.shape();
    const Shape& os = yq.shape();
    const std::int64_t k = cc.kernel * cc.kernel * is.dim(3);
    const std::int32_t in_zp = xq.quant().zero_point();
    const std::int32_t out_zp = yq.quant().zero_point();
    const auto pad_before = [&](std::int64_t in, std::int64_t out) {
      return cc.padding == Padding::kSame
                 ? std::max<std::int64_t>(
                       0, (out - 1) * cc.stride + cc.kernel - in) / 2
                 : 0;
    };
    const std::int64_t pad_h = pad_before(is.dim(1), os.dim(1));
    const std::int64_t pad_w = pad_before(is.dim(2), os.dim(2));

    // im2col: one row per output pixel, columns in OHWI (fy, fx, ic) order.
    const std::int64_t rows = os.dim(0) * os.dim(1) * os.dim(2);
    std::vector<std::int32_t> col(static_cast<std::size_t>(rows * k));
    const std::int8_t* xp = xq.data<std::int8_t>();
    for (std::int64_t r = 0; r < rows; ++r) {
      const std::int64_t n = r / (os.dim(1) * os.dim(2));
      const std::int64_t oy = r / os.dim(2) % os.dim(1);
      const std::int64_t ox = r % os.dim(2);
      for (int fy = 0; fy < cc.kernel; ++fy) {
        for (int fx = 0; fx < cc.kernel; ++fx) {
          const std::int64_t iy = oy * cc.stride - pad_h + fy;
          const std::int64_t ix = ox * cc.stride - pad_w + fx;
          const bool inside =
              iy >= 0 && iy < is.dim(1) && ix >= 0 && ix < is.dim(2);
          for (std::int64_t ic = 0; ic < is.dim(3); ++ic) {
            col[static_cast<std::size_t>(
                r * k + (fy * cc.kernel + fx) * is.dim(3) + ic)] =
                inside ? xp[((n * is.dim(1) + iy) * is.dim(2) + ix) *
                                is.dim(3) +
                            ic]
                       : in_zp;
          }
        }
      }
    }
    const QuantActivationRange range = quant_activation_range(
        cc.act, yq.quant().scale(), out_zp);
    std::vector<std::int8_t> expected(static_cast<std::size_t>(rows) *
                                      static_cast<std::size_t>(cc.out_ch));
    for (std::int64_t j = 0; j < cc.out_ch; ++j) {
      const auto ch = static_cast<std::size_t>(j);
      std::int32_t multiplier = 0;
      int shift = 0;
      quantize_multiplier(static_cast<double>(xq.quant().scale()) *
                              w.quant().scale(ch) / yq.quant().scale(),
                          &multiplier, &shift);
      const std::int8_t* wj = w.data<std::int8_t>() + j * k;
      for (std::int64_t r = 0; r < rows; ++r) {
        std::int32_t acc = bias[j];
        for (std::int64_t kk = 0; kk < k; ++kk) {
          acc += (col[static_cast<std::size_t>(r * k + kk)] - in_zp) * wj[kk];
        }
        const std::int32_t v =
            multiply_by_quantized_multiplier(acc, multiplier, shift) + out_zp;
        expected[static_cast<std::size_t>(r * cc.out_ch + j)] =
            static_cast<std::int8_t>(std::clamp(v, range.min, range.max));
      }
    }
    ASSERT_EQ(yq.num_elements(), static_cast<std::int64_t>(expected.size()));
    EXPECT_EQ(std::memcmp(yq.data<std::int8_t>(), expected.data(),
                          expected.size()),
              0)
        << "k" << cc.kernel << "/o" << cc.out_ch << "/s" << cc.stride;
  }
}

// --- packed GEMMs vs a naive triple loop -----------------------------------

// One accumulation step as the kernels compile it: a fused multiply-add
// where the target has FMA (GCC contracts their `acc += a * b` into one), a
// rounded product plus a rounded sum where it does not. Spelling it out
// keeps the naive loop's rounding independent of how this file's loops
// happen to be contracted.
inline float madd(float acc, float a, float b) {
#if defined(__FMA__)
  return std::fma(a, b, acc);
#else
  return acc + a * b;
#endif
}

// Problem data for one GEMM shape, in f32 and int8, plus naive triple-loop
// references written here rather than borrowed from the kernels.
struct GemmData {
  std::int64_t m, n, k;
  std::vector<float> a, b, bias;
  std::vector<std::int8_t> a8, b8;
  std::vector<std::int32_t> bias32, multipliers;
  std::vector<int> shifts;
  GemmQuant quant;

  GemmData(std::int64_t m_in, std::int64_t n_in, std::int64_t k_in,
           std::uint64_t seed)
      : m(m_in), n(n_in), k(k_in) {
    Pcg32 rng(seed);
    a.resize(static_cast<std::size_t>(m * k));
    b.resize(static_cast<std::size_t>(n * k));
    bias.resize(static_cast<std::size_t>(n));
    // A spans [-4, 4] so outputs cross both relu6 clamps.
    for (float& v : a) v = rng.uniform(-4, 4);
    for (float& v : b) v = rng.uniform(-1, 1);
    for (float& v : bias) v = rng.uniform(-1, 1);
    a8.resize(a.size());
    b8.resize(b.size());
    for (auto& v : a8) {
      v = static_cast<std::int8_t>(static_cast<int>(rng.next_below(255)) - 127);
    }
    for (auto& v : b8) {
      v = static_cast<std::int8_t>(static_cast<int>(rng.next_below(255)) - 127);
    }
    // The int8 epilogue's per-column arrays hold gemm_i8_padded_cols(n)
    // entries, zero past n (gemm.h).
    bias32.resize(static_cast<std::size_t>(gemm_i8_padded_cols(n)));
    multipliers.resize(bias32.size());
    shifts.resize(bias32.size());
    for (std::size_t j = 0; j < static_cast<std::size_t>(n); ++j) {
      bias32[j] = static_cast<std::int32_t>(rng.next_below(200)) - 100;
      quantize_multiplier(0.004 + 0.0001 * static_cast<double>(j),
                          &multipliers[j], &shifts[j]);
    }
    quant.a_zero_point = 5;
    quant.bias = bias32.data();
    quant.multipliers = multipliers.data();
    quant.shifts = shifts.data();
    quant.out_zero_point = -3;
  }

  std::vector<float> run_f32(Activation act) const {
    std::vector<float> c(static_cast<std::size_t>(m * n));
    std::vector<float> panels(
        static_cast<std::size_t>(packed_b_f32_floats(n, k)));
    pack_b_f32(n, k, b.data(), k, panels.data());
    gemm_f32_nt(m, n, k, a.data(), k, bias.data(), act, c.data(), n, nullptr,
                PackedBF32{panels.data(), (n + kGemmNrF32 - 1) / kGemmNrF32});
    return c;
  }

  // Bias first, then k ascending: the reference kernels' order per output.
  std::vector<float> naive_f32(Activation act) const {
    std::vector<float> c(static_cast<std::size_t>(m * n));
    for (std::int64_t i = 0; i < m; ++i) {
      for (std::int64_t j = 0; j < n; ++j) {
        float acc = bias[static_cast<std::size_t>(j)];
        for (std::int64_t kk = 0; kk < k; ++kk) {
          acc = madd(acc, a[static_cast<std::size_t>(i * k + kk)],
                     b[static_cast<std::size_t>(j * k + kk)]);
        }
        if (act == Activation::kRelu) acc = acc > 0.0f ? acc : 0.0f;
        if (act == Activation::kRelu6) acc = std::clamp(acc, 0.0f, 6.0f);
        c[static_cast<std::size_t>(i * n + j)] = acc;
      }
    }
    return c;
  }

  std::vector<std::int8_t> run_i8() const {
    std::vector<std::int8_t> c(static_cast<std::size_t>(m * n));
    std::vector<std::int8_t> panels(
        static_cast<std::size_t>(packed_b_i8_bytes(n, k)));
    std::vector<std::int32_t> col_sums(bias32.size());
    pack_b_i8(n, k, b8.data(), k, panels.data(), col_sums.data());
    std::vector<std::int16_t> a_tiles(gemm_i8_tile_bytes(k, 1) /
                                      sizeof(std::int16_t));
    gemm_i8_nt(m, n, k, a8.data(), k, b8.data(), k, quant, c.data(), n,
               nullptr, PackedBI8{panels.data(), col_sums.data()},
               a_tiles.data());
    return c;
  }

  // Per-element zero-point subtraction, exact int32 sum, Q31 requant.
  std::vector<std::int8_t> naive_i8() const {
    std::vector<std::int8_t> c(static_cast<std::size_t>(m * n));
    for (std::int64_t i = 0; i < m; ++i) {
      for (std::int64_t j = 0; j < n; ++j) {
        const auto col = static_cast<std::size_t>(j);
        std::int32_t acc = 0;
        for (std::int64_t kk = 0; kk < k; ++kk) {
          acc += (a8[static_cast<std::size_t>(i * k + kk)] -
                  quant.a_zero_point) *
                 b8[static_cast<std::size_t>(j * k + kk)];
        }
        const std::int32_t v =
            multiply_by_quantized_multiplier(acc + bias32[col],
                                             multipliers[col], shifts[col]) +
            quant.out_zero_point;
        c[static_cast<std::size_t>(i * n + j)] = static_cast<std::int8_t>(
            std::clamp(v, quant.act_min, quant.act_max));
      }
    }
    return c;
  }
};

using GemmShape = std::array<std::int64_t, 3>;  // m, n, k

// f32: B packed into zero-padded 8-column panels. Covers two-panel tiles
// with a partial second panel (n = 12, 20), a lone partial panel (n = 1, 3,
// 5), full panels (n = 16, 24), m % 4 row tails and m == 1 (the batch-1 FC
// shape), each with no activation, relu and relu6 applied on the vector
// accumulators. Same accumulation order as the naive loop, so only
// FMA-contraction rounding may differ: the grid's 4-ULP bound.
TEST(PrepackedGemm, F32MatchesNaiveLoop) {
  for (const GemmShape& s :
       {GemmShape{16, 20, 37}, GemmShape{7, 16, 64}, GemmShape{5, 3, 9},
        GemmShape{9, 1, 17}, GemmShape{6, 12, 40}, GemmShape{13, 5, 31},
        GemmShape{1, 24, 129}, GemmShape{1, 5, 33}, GemmShape{1, 12, 8},
        GemmShape{1, 1001, 64}}) {
    GemmData d(s[0], s[1], s[2], 900 + static_cast<std::uint64_t>(s[1]));
    for (Activation act : kActs) {
      EXPECT_LE(max_ulp_diff(d.naive_f32(act), d.run_f32(act)), 4)
          << s[0] << "x" << s[1] << "x" << s[2] << " act "
          << static_cast<int>(act);
    }
  }
}

// int8: integer accumulation is exact, so the pair-panel microkernel (m > 1,
// padded last 16-column panel, odd k) and the k-major matvec (m == 1, column
// chunk remainders n % 4 and n % 64, SIMD k tails) must both reproduce the
// naive loop bit for bit.
TEST(PrepackedGemm, I8MatchesNaiveLoopExact) {
  for (const GemmShape& s :
       {GemmShape{16, 20, 37}, GemmShape{7, 9, 64}, GemmShape{5, 4, 3},
        GemmShape{1, 1, 1}, GemmShape{1, 3, 33}, GemmShape{1, 7, 64},
        GemmShape{1, 17, 100}, GemmShape{1, 64, 96}, GemmShape{1, 65, 128},
        GemmShape{1, 1001, 1024}}) {
    GemmData d(s[0], s[1], s[2], 700 + static_cast<std::uint64_t>(s[1]));
    EXPECT_EQ(d.naive_i8(), d.run_i8()) << s[0] << "x" << s[1] << "x" << s[2];
  }
}

// --- kernels with a prepare hook run only through a plan --------------------

// Invoking such a kernel through a bare KernelContext (no ExecutionPlan, so
// no prepared storage) must fail one MLX_CHECK naming the node — there is no
// per-call fallback left, and nothing may dereference the missing storage.
TEST(PlanOnlyKernels, BareContextThrowsNamingTheNode) {
  Pcg32 rng(91);
  GraphBuilder b("planonly", &rng);
  const Shape in_shape{1, 8, 8, 8};
  int x = b.input(in_shape);
  int c = b.conv2d(x, 8, 3, 3, 1, Padding::kSame, Activation::kNone, "conv");
  int d = b.depthwise_conv2d(c, 3, 3, 1, Padding::kSame, Activation::kNone,
                             "dw");
  int a = b.add(c, d, Activation::kNone, "add");
  Graph m = b.finish({b.sigmoid(a, "lut")});
  Calibrator calib(&m);
  Pcg32 crng(92);
  for (int i = 0; i < 3; ++i) calib.observe({random_input(in_shape, crng)});
  Graph qm = quantize_model(m, calib);
  BuiltinOpResolver opt;

  // Through a plan the same graph runs.
  Model model(&qm, &opt);
  Session session(&model);
  session.set_input(0, random_input(in_shape, crng));
  session.invoke();

  int refused = 0;
  for (const Graph* g : {&m, &qm}) {
    for (const Node& n : g->nodes) {
      if (n.type == OpType::kInput || !opt.find(n).prepare) continue;
      std::vector<Tensor> inputs;
      for (int in : n.inputs) {
        const Node& producer = g->node(in);
        inputs.emplace_back(producer.output_dtype, producer.output_shape);
        inputs.back().quant() = producer.output_quant;
      }
      Tensor out(n.output_dtype, n.output_shape);
      out.quant() = n.output_quant;
      ScratchArena arena;
      KernelContext ctx;
      ctx.node = &n;
      for (const Tensor& t : inputs) ctx.inputs.push_back(&t);
      ctx.output = &out;
      ctx.arena = &arena;
      try {
        opt.find(n).invoke(ctx);
        ADD_FAILURE() << n.name << " ran without prepared storage";
      } catch (const MlxError& e) {
        EXPECT_NE(std::string(e.what()).find("'" + n.name + "'"),
                  std::string::npos)
            << e.what();
        ++refused;
      }
    }
  }
  // f32 conv; int8 conv, dwconv, Add and the LUT activation.
  EXPECT_EQ(refused, 5);
}

// --- scratch arena -----------------------------------------------------------

TEST(ScratchArenaTest, AllocationsAreAbsoluteAligned) {
  ScratchArena arena;
  for (int round = 0; round < 3; ++round) {
    // Odd sizes force unaligned bump positions between requests.
    (void)arena.allocate(13, 1);
    for (std::size_t align : {8u, 16u, 64u, 128u}) {
      void* p = arena.allocate(65, align);
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % align, 0u) << align;
    }
    // Force growth past the first block and re-check alignment there.
    void* big = arena.allocate(256 * 1024, 64);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(big) % 64, 0u);
    arena.reset();
  }
}

TEST(SteadyStateAlloc, ArenaIsReusedNotRegrown) {
  Graph m = conv_stack_graph(51);
  BuiltinOpResolver opt;
  Model model(&m, &opt);
  Session session(&model);
  Pcg32 drng(52);
  session.set_input(0, random_input(Shape{1, 16, 16, 8}, drng));
  session.invoke();
  const std::size_t capacity = session.scratch_arena().capacity_bytes();
  const std::size_t high_water = session.scratch_arena().high_water_bytes();
  EXPECT_GT(high_water, 0u);
  for (int i = 0; i < 3; ++i) session.invoke();
  EXPECT_EQ(session.scratch_arena().capacity_bytes(), capacity);
  EXPECT_EQ(session.scratch_arena().high_water_bytes(), high_water);
}

// The implicit-GEMM conv keeps only MR patch rows per worker in the arena,
// so a conv-heavy batched model's scratch high-water mark is a few KiB; a
// full patch matrix for resnet50v2_mini at batch 8 would take ~3.4 MiB.
TEST(SteadyStateAlloc, ConvScratchIsPerTileNotPerImage) {
  Graph g = convert_for_inference(build_resnet50v2_mini(3, 8).model);
  BuiltinOpResolver opt;
  Model model(&g, &opt);
  Session session(&model);
  Pcg32 drng(4);
  session.set_input(0, random_input(Shape{8, 32, 32, 3}, drng));
  session.invoke();
  EXPECT_GT(session.last_stats().arena_high_water_bytes, 0u);
  EXPECT_LT(session.last_stats().arena_high_water_bytes, 64u * 1024u);
}

}  // namespace
}  // namespace mlexray
