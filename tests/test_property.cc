// Property-style parameterized sweeps across the stack:
//  - randomized DepthwiseConv2D and int8 elementwise shape/scale/zero-point
//    parity (the differential runner's resolver and scalar-path axes)
//  - pool/activation parity between resolvers over geometry grids
//  - quantize->dequantize error bounds over random ranges
//  - fixed-point requantization vs double arithmetic over multiplier grids
//  - serialization round-trips for every zoo architecture
//  - converter equivalence for every zoo architecture
//  - preprocessing pipeline invariants over random sensors
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "src/convert/converter.h"
#include "src/core/trace.h"
#include "src/graph/builder.h"
#include "src/graph/serialization.h"
#include "src/interpreter/session.h"
#include "src/kernels/activation.h"
#include "src/kernels/fixed_point.h"
#include "src/kernels/kernel.h"
#include "src/models/zoo.h"
#include "src/preprocess/image.h"
#include "src/quant/quantizer.h"
#include "src/tensor/tensor_stats.h"
#include "tests/differential.h"

namespace mlexray {
namespace {

Tensor random_f32(Shape shape, Pcg32& rng, float lo = -1, float hi = 1) {
  Tensor t = Tensor::f32(shape);
  float* p = t.data<float>();
  for (std::int64_t i = 0; i < t.num_elements(); ++i) p[i] = rng.uniform(lo, hi);
  return t;
}

// --- randomized depthwise-conv parity (shape/scale/zero-point fuzz) ---
//
// The conformance grid (test_dwconv_grid.cc) enumerates the interesting
// channel counts; this sweep draws the rest of the axes from a seeded RNG —
// kernel size, stride, padding, depth multiplier, image size, batch, fused
// activation, and (via the input value range) quantization scales and
// asymmetric zero points — so the dwconv vector and scalar paths cannot
// drift apart on geometries nobody hand-picked. Each draw runs the
// differential runner's resolver and scalar-path axes, in f32 and int8,
// with seeded nonzero biases.

class DwConvRandom : public ::testing::TestWithParam<int> {};

TEST_P(DwConvRandom, AllTiersMatchReference) {
  Pcg32 rng(static_cast<std::uint64_t>(3000 + GetParam()));
  const int kh = 1 + static_cast<int>(rng.next_below(3));
  const int kw = 1 + static_cast<int>(rng.next_below(3));
  const int stride = 1 + static_cast<int>(rng.next_below(2));
  const int dm = 1 + static_cast<int>(rng.next_below(2));
  const auto ch = static_cast<std::int64_t>(1 + rng.next_below(40));
  const auto batch = static_cast<std::int64_t>(1 + rng.next_below(2));
  const std::int64_t h = kh + static_cast<std::int64_t>(rng.next_below(8));
  const std::int64_t w = kw + static_cast<std::int64_t>(rng.next_below(8));
  const Padding padding =
      rng.next_below(2) == 0 ? Padding::kSame : Padding::kValid;
  const Activation acts[] = {Activation::kNone, Activation::kRelu,
                             Activation::kRelu6};
  const Activation act = acts[rng.next_below(3)];
  // Random, asymmetric value range -> random activation scales and nonzero
  // zero points after calibration.
  const float lo = -rng.uniform(0.2f, 4.0f);
  const float hi = rng.uniform(0.2f, 4.0f);

  GraphBuilder b("dwrand", &rng);
  const Shape in_shape{batch, h, w, ch};
  int x = b.input(in_shape);
  b.depthwise_conv2d(x, kh, kw, stride, padding, act, "op", dm);
  Graph m = b.finish({1});
  draw_biases(m, 3000 + static_cast<std::uint64_t>(GetParam()));

  Tensor input = random_f32(in_shape, rng, lo, hi);
  Calibrator calib(&m);
  for (int i = 0; i < 4; ++i) {
    calib.observe({random_f32(in_shape, rng, lo, hi)});
  }
  calib.observe({input});
  const std::string seed = "seed " + std::to_string(GetParam());
  RefOpResolver ref;
  BuiltinOpResolver opt;
  for (const Cell& cell : {Cell{seed + "/f32", m, {{input}}},
                           Cell{seed + "/i8", quantize_model(m, calib),
                                {{input}}}}) {
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

INSTANTIATE_TEST_SUITE_P(Seeds, DwConvRandom, ::testing::Range(1, 17));

// --- randomized int8 elementwise parity (shape/broadcast/scale fuzz) ---
//
// Same contract for the elementwise family (src/kernels/elementwise.h): the
// conformance grid (test_elementwise_grid.cc) enumerates the interesting
// channel counts; this sweep draws op, geometry, broadcast pattern, fused
// activation, and (via per-operand value ranges) quantization scales and
// asymmetric zero points from a seeded RNG, then runs the differential
// runner's resolver and scalar-path axes.

class ElementwiseRandom : public ::testing::TestWithParam<int> {};

TEST_P(ElementwiseRandom, AllTiersMatchReference) {
  Pcg32 rng(static_cast<std::uint64_t>(4000 + GetParam()));
  enum { kOpAdd, kOpSub, kOpMul, kOpMean, kOpLogistic, kOpHSwish, kOpTanh };
  const int op = static_cast<int>(rng.next_below(7));
  const bool binary = op == kOpAdd || op == kOpSub || op == kOpMul;
  const bool broadcast = binary && rng.next_below(2) == 0;
  const auto ch = static_cast<std::int64_t>(1 + rng.next_below(40));
  const auto batch = static_cast<std::int64_t>(1 + rng.next_below(2));
  const std::int64_t h = 1 + static_cast<std::int64_t>(rng.next_below(8));
  const std::int64_t w = 1 + static_cast<std::int64_t>(rng.next_below(8));
  const Activation acts[] = {Activation::kNone, Activation::kRelu,
                             Activation::kRelu6};
  const Activation act =
      (op == kOpAdd || op == kOpSub) ? acts[rng.next_below(3)] : Activation::kNone;
  // Random per-operand asymmetric value ranges -> distinct activation
  // scales and nonzero zero points after calibration.
  const float a_lo = -rng.uniform(0.2f, 4.0f);
  const float a_hi = rng.uniform(0.2f, 4.0f);
  const float b_lo = -rng.uniform(0.2f, 4.0f);
  const float b_hi = rng.uniform(0.2f, 4.0f);

  GraphBuilder b("ewrand", &rng);
  const Shape in_shape{batch, h, w, ch};
  const Shape gate_shape =
      broadcast ? Shape{batch, 1, 1, ch} : in_shape;
  int x = b.input(in_shape);
  switch (op) {
    case kOpAdd: b.add(x, b.input(gate_shape, DType::kF32, "g"), act, "op"); break;
    case kOpSub: b.sub(x, b.input(gate_shape, DType::kF32, "g"), act, "op"); break;
    case kOpMul: b.mul(x, b.input(gate_shape, DType::kF32, "g"), "op"); break;
    case kOpMean: b.mean(x, "op"); break;
    case kOpLogistic: b.sigmoid(x, "op"); break;
    case kOpHSwish: b.hardswish(x, "op"); break;
    case kOpTanh: b.tanh(x, "op"); break;
  }
  Graph m = b.finish({binary ? 2 : 1});

  Tensor input = random_f32(in_shape, rng, a_lo, a_hi);
  Tensor gate = random_f32(gate_shape, rng, b_lo, b_hi);
  Calibrator calib(&m);
  for (int i = 0; i < 4; ++i) {
    if (binary) {
      calib.observe({random_f32(in_shape, rng, a_lo, a_hi),
                     random_f32(gate_shape, rng, b_lo, b_hi)});
    } else {
      calib.observe({random_f32(in_shape, rng, a_lo, a_hi)});
    }
  }
  if (binary) {
    calib.observe({input, gate});
  } else {
    calib.observe({input});
  }
  const Cell cell{
      "seed " + std::to_string(GetParam()) + ", op " + std::to_string(op),
      quantize_model(m, calib),
      {binary ? Frame{input, gate} : Frame{input}}};
  RefOpResolver ref;
  BuiltinOpResolver opt;
  const Capture oi = capture(cell, {&opt, 2});
  EXPECT_TRUE(layers_agree(capture(cell, reference_side(oi.side, &ref)).trace,
                           oi.trace))
      << cell.name << ": resolver";
  EXPECT_TRUE(layers_agree(oi.trace, capture(cell, scalar_side(oi.side)).trace))
      << cell.name << ": scalar path";
}

INSTANTIATE_TEST_SUITE_P(Seeds, ElementwiseRandom, ::testing::Range(1, 17));

// --- pooling parity sweep ---

struct PoolCase {
  int size, ch, window, stride;
  Padding padding;
  bool max_pool;
};

class PoolParity : public ::testing::TestWithParam<PoolCase> {};

TEST_P(PoolParity, ResolversAgree) {
  const PoolCase& c = GetParam();
  Pcg32 rng(17);
  GraphBuilder b("pool", &rng);
  int x = b.input(Shape{1, c.size, c.size, c.ch});
  if (c.max_pool) {
    b.max_pool(x, c.window, c.stride, c.padding, "p");
  } else {
    b.avg_pool(x, c.window, c.stride, c.padding, "p");
  }
  Graph m = b.finish({1});
  RefOpResolver ref;
  BuiltinOpResolver opt;
  Model ref_model(&m, &ref);
  Session ri(&ref_model);
  Model opt_model(&m, &opt);
  Session oi(&opt_model);
  Tensor input = random_f32(Shape{1, c.size, c.size, c.ch}, rng);
  ri.set_input(0, input);
  oi.set_input(0, input);
  ri.invoke();
  oi.invoke();
  EXPECT_LT(linf_error(ri.output(0), oi.output(0)), 1e-5);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, PoolParity,
    ::testing::Values(PoolCase{8, 3, 2, 2, Padding::kValid, false},
                      PoolCase{8, 3, 2, 2, Padding::kValid, true},
                      PoolCase{9, 2, 3, 2, Padding::kSame, false},
                      PoolCase{9, 2, 3, 2, Padding::kSame, true},
                      PoolCase{8, 4, 8, 1, Padding::kValid, false},
                      PoolCase{7, 1, 3, 1, Padding::kSame, true},
                      PoolCase{16, 8, 2, 2, Padding::kValid, false}));

// --- quantization round-trip bound over random ranges ---

class QuantRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(QuantRoundTrip, ErrorBoundedByOneStep) {
  Pcg32 rng(static_cast<std::uint64_t>(GetParam()));
  const float lo = rng.uniform(-10.0f, -0.1f);
  const float hi = rng.uniform(0.1f, 10.0f);
  QuantParams q = activation_quant_params(lo, hi, /*symmetric=*/false);
  for (int i = 0; i < 200; ++i) {
    float real = rng.uniform(lo, hi);
    auto quantized = static_cast<std::int32_t>(std::lround(real / q.scale())) +
                     q.zero_point();
    quantized = std::clamp<std::int32_t>(quantized, -128, 127);
    float back = q.scale() * static_cast<float>(quantized - q.zero_point());
    EXPECT_LE(std::abs(back - real), q.scale() * 0.75f)
        << "range [" << lo << "," << hi << "] value " << real;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuantRoundTrip, ::testing::Range(1, 11));

// --- fixed-point requantization sweep ---

class FixedPointSweep : public ::testing::TestWithParam<int> {};

TEST_P(FixedPointSweep, MatchesDoubleWithinOneUnit) {
  Pcg32 rng(static_cast<std::uint64_t>(100 + GetParam()));
  double multiplier = std::pow(10.0, -rng.uniform(0.5f, 6.0f));
  std::int32_t m = 0;
  int shift = 0;
  quantize_multiplier(multiplier, &m, &shift);
  for (int i = 0; i < 300; ++i) {
    auto x = static_cast<std::int32_t>(rng.next_u32() % 2000000) - 1000000;
    std::int32_t got = multiply_by_quantized_multiplier(x, m, shift);
    auto want = static_cast<std::int32_t>(std::lround(x * multiplier));
    EXPECT_NEAR(got, want, 1) << "x=" << x << " mult=" << multiplier;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FixedPointSweep, ::testing::Range(1, 9));

// --- zoo-wide serialization round trip ---

class ZooSerialization : public ::testing::TestWithParam<int> {};

TEST_P(ZooSerialization, OutputsIdenticalAfterRoundTrip) {
  const ZooEntry& entry = image_zoo()[static_cast<std::size_t>(GetParam())];
  ZooModel zm = entry.build(5, 1);
  auto bytes = serialize_model(zm.model);
  BinaryReader reader(bytes);
  Graph back = deserialize_model(reader);
  RefOpResolver ref;
  Model model_a(&zm.model, &ref);
  Session a(&model_a);
  Model model_b(&back, &ref);
  Session b(&model_b);
  Pcg32 rng(6);
  Tensor input = random_f32(Shape{1, 32, 32, 3}, rng);
  a.set_input(0, input);
  b.set_input(0, input);
  a.invoke();
  b.invoke();
  EXPECT_EQ(linf_error(a.output(0), b.output(0)), 0.0) << entry.name;
}

// Loading re-infers every node's shape and refuses a disagreement, so the
// deployed graphs (BatchNorm folded; f32 and int8) must load with every
// node's shape and dtype as written, and serve the same bytes.
TEST_P(ZooSerialization, DeployedGraphsRoundTrip) {
  const ZooEntry& entry = image_zoo()[static_cast<std::size_t>(GetParam())];
  const Graph f32 = convert_for_inference(entry.build(5, 1).model);
  Calibrator calib(&f32);
  Pcg32 rng(6);
  const Tensor input = random_f32(Shape{1, 32, 32, 3}, rng);
  calib.observe({input});
  const Graph int8 = quantize_model(f32, calib);
  for (const Graph* g : {&f32, &int8}) {
    const auto bytes = serialize_model(*g);
    BinaryReader reader(bytes);
    const Graph back = deserialize_model(reader);
    ASSERT_EQ(back.nodes.size(), g->nodes.size()) << entry.name;
    for (std::size_t i = 0; i < g->nodes.size(); ++i) {
      EXPECT_EQ(back.nodes[i].output_shape, g->nodes[i].output_shape)
          << entry.name << " " << g->nodes[i].name;
      EXPECT_EQ(back.nodes[i].output_dtype, g->nodes[i].output_dtype)
          << entry.name << " " << g->nodes[i].name;
    }
    BuiltinOpResolver opt;
    Model model_a(g, &opt);
    Session a(&model_a);
    Model model_b(&back, &opt);
    Session b(&model_b);
    a.set_input(0, input);
    b.set_input(0, input);
    a.invoke();
    b.invoke();
    ASSERT_EQ(a.output(0).byte_size(), b.output(0).byte_size());
    EXPECT_EQ(0, std::memcmp(a.output(0).raw_data(), b.output(0).raw_data(),
                             a.output(0).byte_size()))
        << entry.name << " " << dtype_name(g->nodes.back().output_dtype);
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, ZooSerialization, ::testing::Range(0, 6));

// --- zoo-wide converter equivalence (random BN statistics) ---

class ZooConverter : public ::testing::TestWithParam<int> {};

TEST_P(ZooConverter, ConvertedMatchesCheckpoint) {
  const ZooEntry& entry = image_zoo()[static_cast<std::size_t>(GetParam())];
  ZooModel zm = entry.build(8, 1);
  // Randomize BN statistics so folding is non-trivial.
  Pcg32 wrng(44);
  for (Node& n : zm.model.nodes) {
    if (n.type != OpType::kBatchNorm) continue;
    for (std::int64_t i = 0; i < n.weights[0].num_elements(); ++i) {
      n.weights[0].data<float>()[i] = wrng.uniform(0.5f, 1.5f);
      n.weights[1].data<float>()[i] = wrng.uniform(-0.3f, 0.3f);
      n.weights[2].data<float>()[i] = wrng.uniform(-0.5f, 0.5f);
      n.weights[3].data<float>()[i] = wrng.uniform(0.3f, 2.0f);
    }
  }
  Graph converted = convert_for_inference(zm.model);
  RefOpResolver ref;
  Model model_a(&zm.model, &ref);
  Session a(&model_a);
  Model model_b(&converted, &ref);
  Session b(&model_b);
  Pcg32 rng(7);
  for (int trial = 0; trial < 2; ++trial) {
    Tensor input = random_f32(Shape{1, 32, 32, 3}, rng);
    a.set_input(0, input);
    b.set_input(0, input);
    a.invoke();
    b.invoke();
    EXPECT_LT(linf_error(a.output(0), b.output(0)), 1e-3) << entry.name;
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, ZooConverter, ::testing::Range(0, 6));

// --- zoo-wide quantization sanity (correct kernels stay close to float) ---

class ZooQuantization : public ::testing::TestWithParam<int> {};

TEST_P(ZooQuantization, QuantizedTracksFloatOnCorrectKernels) {
  const ZooEntry& entry = image_zoo()[static_cast<std::size_t>(GetParam())];
  ZooModel zm = entry.build(9, 1);
  Graph mobile = convert_for_inference(zm.model);
  Calibrator calib(&mobile);
  Pcg32 rng(8);
  std::vector<Tensor> samples;
  for (int i = 0; i < 4; ++i) samples.push_back(random_f32(Shape{1, 32, 32, 3}, rng));
  for (const Tensor& s : samples) calib.observe({s});
  Graph quant = quantize_model(mobile, calib);
  RefOpResolver ref;
  Model f32_model(&mobile, &ref);
  Session fi(&f32_model);
  Model int8_model(&quant, &ref);
  Session qi(&int8_model);
  for (const Tensor& s : samples) {
    fi.set_input(0, s);
    qi.set_input(0, s);
    fi.invoke();
    qi.invoke();
    // Output probabilities stay within an absolute band of the float model
    // on calibrated data. (Relative metrics are meaningless here: untrained
    // nets emit near-uniform softmax with a tiny range, and V3's
    // squeeze-excite gates amplify quantization noise the most.)
    EXPECT_LT(linf_error(qi.output(0), fi.output(0)), 0.25) << entry.name;
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, ZooQuantization, ::testing::Range(0, 6));

// --- preprocessing invariants over random sensors ---

class PipelineInvariants : public ::testing::TestWithParam<int> {};

TEST_P(PipelineInvariants, OutputAlwaysInSpecRange) {
  Pcg32 rng(static_cast<std::uint64_t>(500 + GetParam()));
  Tensor sensor = Tensor::u8(Shape{48, 48, 3});
  auto* p = sensor.data<std::uint8_t>();
  for (std::int64_t i = 0; i < sensor.num_elements(); ++i) {
    p[i] = static_cast<std::uint8_t>(rng.next_below(256));
  }
  InputSpec spec;
  spec.height = 16;
  spec.width = 16;
  spec.channels = 3;
  spec.range_lo = -1.0f;
  spec.range_hi = 1.0f;
  for (PreprocBug bug : {PreprocBug::kNone, PreprocBug::kWrongResize,
                         PreprocBug::kWrongChannelOrder, PreprocBug::kRotated90}) {
    Tensor out = run_image_pipeline(sensor, {spec, bug});
    EXPECT_EQ(out.shape(), (Shape{1, 16, 16, 3}));
    TensorSummary s = summarize(out);
    EXPECT_GE(s.min, spec.range_lo - 1e-4f);
    EXPECT_LE(s.max, spec.range_hi + 1e-4f);
  }
  // The normalization bug is the one that violates the expected range.
  Tensor out = run_image_pipeline(sensor, {spec, PreprocBug::kWrongNormalization});
  TensorSummary s = summarize(out);
  EXPECT_GE(s.min, -1e-4f);  // washed into [0,1]
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineInvariants, ::testing::Range(1, 9));

// --- resize properties ---

class ResizeProps : public ::testing::TestWithParam<int> {};

TEST_P(ResizeProps, BothMethodsPreserveMeanApproximately) {
  Pcg32 rng(static_cast<std::uint64_t>(900 + GetParam()));
  Tensor img = random_f32(Shape{24, 24, 3}, rng, 0.0f, 255.0f);
  double mean_in = summarize(img).mean;
  for (int out_size : {8, 12, 16}) {
    Tensor area = resize_area_average(img, out_size, out_size);
    Tensor bil = resize_bilinear(img, out_size, out_size);
    EXPECT_NEAR(summarize(area).mean, mean_in, 6.0);
    EXPECT_NEAR(summarize(bil).mean, mean_in, 6.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ResizeProps, ::testing::Range(1, 6));

// --- trace round-trip over random contents ---

class TraceFuzz : public ::testing::TestWithParam<int> {};

TEST_P(TraceFuzz, SerializationPreservesEverything) {
  Pcg32 rng(static_cast<std::uint64_t>(1300 + GetParam()));
  Trace t;
  t.pipeline_name = "fuzz" + std::to_string(GetParam());
  const int frames = 1 + static_cast<int>(rng.next_below(4));
  for (int f = 0; f < frames; ++f) {
    FrameTrace frame;
    frame.frame_id = f;
    const int tensors = static_cast<int>(rng.next_below(3));
    for (int k = 0; k < tensors; ++k) {
      frame.tensors["t" + std::to_string(k)] =
          random_f32(Shape{1 + static_cast<std::int64_t>(rng.next_below(6))}, rng);
    }
    frame.scalars["s"] = rng.next_double();
    const int layers = static_cast<int>(rng.next_below(4));
    for (int l = 0; l < layers; ++l) {
      frame.layer_names.push_back("layer" + std::to_string(l));
      frame.layer_outputs.push_back(random_f32(Shape{2, 2}, rng));
      frame.layer_latency_ms.push_back(rng.next_double());
    }
    t.frames.push_back(std::move(frame));
  }
  Trace back = deserialize_trace(serialize_trace(t));
  ASSERT_EQ(back.frames.size(), t.frames.size());
  for (std::size_t f = 0; f < t.frames.size(); ++f) {
    EXPECT_EQ(back.frames[f].tensors.size(), t.frames[f].tensors.size());
    EXPECT_EQ(back.frames[f].layer_names, t.frames[f].layer_names);
    for (std::size_t l = 0; l < t.frames[f].layer_outputs.size(); ++l) {
      EXPECT_EQ(linf_error(back.frames[f].layer_outputs[l],
                           t.frames[f].layer_outputs[l]),
                0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceFuzz, ::testing::Range(1, 9));

// --- activation LUT properties ---

class LutProps : public ::testing::TestWithParam<int> {};

TEST_P(LutProps, SigmoidLutMonotoneAndBounded) {
  Pcg32 rng(static_cast<std::uint64_t>(2000 + GetParam()));
  QuantParams in_q = activation_quant_params(rng.uniform(-8, -1),
                                             rng.uniform(1, 8), false);
  QuantParams out_q = QuantParams::per_tensor(1.0f / 256.0f, -128);
  auto table = build_i8_lut(in_q, out_q, sigmoid_f32);
  for (int i = 1; i < 256; ++i) {
    EXPECT_GE(table[static_cast<std::size_t>(i)],
              table[static_cast<std::size_t>(i - 1)]);  // monotone
  }
  EXPECT_GE(table[0], -128);
  EXPECT_LE(table[255], 127);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LutProps, ::testing::Range(1, 6));

}  // namespace
}  // namespace mlexray
