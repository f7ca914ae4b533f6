#include <gtest/gtest.h>

#include <cmath>

#include "src/common/fault_injection.h"
#include "src/convert/converter.h"
#include "src/graph/builder.h"
#include "src/interpreter/session.h"
#include "src/quant/quantizer.h"
#include "src/tensor/tensor_stats.h"
#include "tests/test_util.h"

namespace mlexray {
namespace {

// Post-activation net: conv -> bn -> relu -> dwconv -> bn -> relu6 -> fc.
Graph post_act_model(std::uint64_t seed) {
  Pcg32 rng(seed);
  GraphBuilder b("post_act", &rng);
  int x = b.input(Shape{1, 8, 8, 3});
  int c = b.conv2d(x, 6, 3, 3, 2, Padding::kSame, Activation::kNone, "c1");
  c = b.batch_norm(c, "bn1");
  c = b.relu(c, "r1");
  c = b.depthwise_conv2d(c, 3, 3, 1, Padding::kSame, Activation::kNone, "dw1");
  c = b.batch_norm(c, "bn2");
  c = b.relu6(c, "r2");
  int g = b.mean(c, "gap");
  int logits = b.fully_connected(g, 4, Activation::kNone, "logits");
  int prob = b.softmax(logits, "prob");
  Graph m = b.finish({prob});
  // Give BN non-trivial statistics so folding actually does arithmetic.
  for (Node& n : m.nodes) {
    if (n.type != OpType::kBatchNorm) continue;
    Pcg32 wrng(n.id + 100);
    for (std::int64_t i = 0; i < n.weights[0].num_elements(); ++i) {
      n.weights[0].data<float>()[i] = wrng.uniform(0.5f, 1.5f);   // gamma
      n.weights[1].data<float>()[i] = wrng.uniform(-0.3f, 0.3f);  // beta
      n.weights[2].data<float>()[i] = wrng.uniform(-0.5f, 0.5f);  // mean
      n.weights[3].data<float>()[i] = wrng.uniform(0.3f, 2.0f);   // var
    }
  }
  return m;
}

// Pre-activation net: bn -> relu -> conv with residual (ResNetV2-style).
Graph pre_act_model(std::uint64_t seed) {
  Pcg32 rng(seed);
  GraphBuilder b("pre_act", &rng);
  int x = b.input(Shape{1, 8, 8, 4});
  int bn = b.batch_norm(x, "pre_bn");
  int r = b.relu(bn, "pre_relu");
  int c = b.conv2d(r, 4, 3, 3, 1, Padding::kSame, Activation::kNone, "conv");
  int sum = b.add(x, c, Activation::kNone, "residual");
  int g = b.mean(sum, "gap");
  int logits = b.fully_connected(g, 3, Activation::kNone, "logits");
  Graph m = b.finish({logits});
  Node& n = m.node(bn);
  Pcg32 wrng(55);
  for (std::int64_t i = 0; i < n.weights[0].num_elements(); ++i) {
    n.weights[0].data<float>()[i] = wrng.uniform(0.5f, 1.5f);
    n.weights[1].data<float>()[i] = wrng.uniform(-0.3f, 0.3f);
    n.weights[2].data<float>()[i] = wrng.uniform(-0.5f, 0.5f);
    n.weights[3].data<float>()[i] = wrng.uniform(0.3f, 2.0f);
  }
  return m;
}

TEST(Converter, FoldedModelMatchesCheckpoint) {
  Graph ckpt = post_act_model(1);
  Graph converted = convert_for_inference(ckpt);
  // BN gone, activations fused.
  for (const Node& n : converted.nodes) {
    EXPECT_NE(n.type, OpType::kBatchNorm);
    EXPECT_NE(n.type, OpType::kRelu);
    EXPECT_NE(n.type, OpType::kRelu6);
  }
  EXPECT_LT(converted.nodes.size(), ckpt.nodes.size());

  RefOpResolver ref;
  Model ckpt_model(&ckpt, &ref);
  Session ci(&ckpt_model);
  Model converted_model(&converted, &ref);
  Session vi(&converted_model);
  Pcg32 rng(2);
  for (int i = 0; i < 3; ++i) {
    Tensor input = random_input(Shape{1, 8, 8, 3}, rng, -1.0f, 1.0f);
    ci.set_input(0, input);
    vi.set_input(0, input);
    ci.invoke();
    vi.invoke();
    EXPECT_LT(linf_error(ci.output(0), vi.output(0)), 1e-4) << "sample " << i;
  }
}

TEST(Converter, PreActBatchNormBecomesDepthwise) {
  Graph ckpt = pre_act_model(3);
  Graph converted = convert_for_inference(ckpt);
  int bn_count = 0;
  for (const Node& n : converted.nodes) {
    if (n.type == OpType::kBatchNorm) ++bn_count;
  }
  EXPECT_EQ(bn_count, 0);

  RefOpResolver ref;
  Model ckpt_model(&ckpt, &ref);
  Session ci(&ckpt_model);
  Model converted_model(&converted, &ref);
  Session vi(&converted_model);
  Pcg32 rng(4);
  Tensor input = random_input(Shape{1, 8, 8, 4}, rng, -1.0f, 1.0f);
  ci.set_input(0, input);
  vi.set_input(0, input);
  ci.invoke();
  vi.invoke();
  EXPECT_LT(linf_error(ci.output(0), vi.output(0)), 1e-4);
}

TEST(Converter, SharedProducerNotFused) {
  // conv output feeds both a relu and a residual add: the relu must NOT be
  // fused into the conv (the add needs the pre-activation value).
  Pcg32 rng(6);
  GraphBuilder b("shared", &rng);
  int x = b.input(Shape{1, 4, 4, 2});
  int c = b.conv2d(x, 2, 3, 3, 1, Padding::kSame, Activation::kNone, "conv");
  int r = b.relu(c, "relu");
  int sum = b.add(c, r, Activation::kNone, "add");
  Graph m = b.finish({sum});
  Graph converted = convert_for_inference(m);
  bool has_standalone_relu = false;
  for (const Node& n : converted.nodes) {
    if (n.type == OpType::kRelu) has_standalone_relu = true;
    if (n.type == OpType::kConv2D) {
      EXPECT_EQ(n.attrs.activation, Activation::kNone);
    }
  }
  EXPECT_TRUE(has_standalone_relu);
  RefOpResolver ref;
  Model ckpt_model(&m, &ref);
  Session ci(&ckpt_model);
  Model converted_model(&converted, &ref);
  Session vi(&converted_model);
  Tensor input = random_input(Shape{1, 4, 4, 2}, rng, -1.0f, 1.0f);
  ci.set_input(0, input);
  vi.set_input(0, input);
  ci.invoke();
  vi.invoke();
  EXPECT_LT(linf_error(ci.output(0), vi.output(0)), 1e-5);
}

TEST(QuantizeWeights, PerChannelReconstruction) {
  Pcg32 rng(7);
  Tensor w = random_input(Shape{4, 3, 3, 2}, rng, -3.0f, 3.0f);
  Tensor q = quantize_weights(w, 0, /*per_channel=*/true);
  EXPECT_TRUE(q.quant().per_channel());
  EXPECT_EQ(q.quant().scales.size(), 4u);
  Tensor back = q.to_f32();
  // Error bounded by scale/2 per channel.
  const float* orig = w.data<float>();
  const float* rec = back.data<float>();
  const std::int64_t per_ch = w.num_elements() / 4;
  for (std::int64_t i = 0; i < w.num_elements(); ++i) {
    float scale = q.quant().scales[static_cast<std::size_t>(i / per_ch)];
    EXPECT_LE(std::abs(orig[i] - rec[i]), scale * 0.51f + 1e-6f);
  }
}

TEST(QuantizeWeights, PerTensorUsesSingleScale) {
  Pcg32 rng(8);
  Tensor w = random_input(Shape{4, 2}, rng, -1.0f, 1.0f);
  Tensor q = quantize_weights(w, 0, /*per_channel=*/false);
  EXPECT_FALSE(q.quant().per_channel());
  EXPECT_EQ(q.quant().zero_point(), 0);  // symmetric
}

TEST(ActivationParams, AsymmetricCoversRange) {
  QuantParams q = activation_quant_params(-1.0f, 1.0f, /*symmetric=*/false);
  // -1.0 -> ~-128, +1.0 -> ~127.
  auto quantize = [&](float v) {
    return static_cast<int>(std::lround(v / q.scale())) + q.zero_point();
  };
  EXPECT_NEAR(quantize(-1.0f), -128, 1);
  EXPECT_NEAR(quantize(1.0f), 127, 1);
}

TEST(ActivationParams, SymmetricHasZeroZeroPoint) {
  QuantParams q = activation_quant_params(-0.5f, 2.0f, /*symmetric=*/true);
  EXPECT_EQ(q.zero_point(), 0);
  EXPECT_NEAR(q.scale(), 2.0f / 127.0f, 1e-6);
}

TEST(Calibrator, MinMaxTracksExtremes) {
  Pcg32 rng(9);
  GraphBuilder b("cal", &rng);
  int x = b.input(Shape{1, 4});
  Graph m = b.finish({x});
  Calibrator calib(&m);
  calib.observe({Tensor::f32(Shape{1, 4}, {-2, 0, 1, 5})});
  calib.observe({Tensor::f32(Shape{1, 4}, {-1, 0, 1, 2})});
  auto r = calib.range(0);
  EXPECT_FLOAT_EQ(r.min, -2.0f);
  EXPECT_FLOAT_EQ(r.max, 5.0f);
}

TEST(Calibrator, PercentileClipsOutliers) {
  Pcg32 rng(10);
  GraphBuilder b("cal", &rng);
  int x = b.input(Shape{1, 2});
  Graph m = b.finish({x});
  CalibrationOptions opts;
  opts.method = CalibrationOptions::Method::kPercentile;
  opts.percentile = 80.0;
  Calibrator calib(&m, opts);
  for (int i = 0; i < 9; ++i) {
    calib.observe({Tensor::f32(Shape{1, 2}, {0.0f, 1.0f})});
  }
  calib.observe({Tensor::f32(Shape{1, 2}, {0.0f, 100.0f})});  // outlier
  auto r = calib.range(0);
  EXPECT_LT(r.max, 50.0f);  // outlier clipped

  CalibrationOptions mm;
  Calibrator calib2(&m, mm);
  for (int i = 0; i < 9; ++i) {
    calib2.observe({Tensor::f32(Shape{1, 2}, {0.0f, 1.0f})});
  }
  calib2.observe({Tensor::f32(Shape{1, 2}, {0.0f, 100.0f})});
  EXPECT_FLOAT_EQ(calib2.range(0).max, 100.0f);  // min-max inflated
}

// Each graph input is calibrated from its own tensor of the sample: the
// gate of a two-input Add spans [-8, 8] while the first input spans
// [-1, 1], and each input's Quantize node gets its own scale. A sample
// without one tensor per graph input is refused.
TEST(Calibrator, EachGraphInputReadsItsOwnTensor) {
  Pcg32 rng(12);
  GraphBuilder b("two_inputs", &rng);
  const Shape shape{1, 4, 4, 8};
  int x = b.input(shape);
  int gate = b.input(shape, DType::kF32, "gate");
  Graph m = b.finish({b.add(x, gate, Activation::kNone, "add")});
  Calibrator calib(&m);
  Pcg32 drng(13);
  for (int i = 0; i < 4; ++i) {
    calib.observe({random_input(shape, drng, -1.0f, 1.0f),
                   random_input(shape, drng, -8.0f, 8.0f)});
  }
  EXPECT_THROW(calib.observe({random_input(shape, drng)}), MlxError);
  const Graph qm = quantize_model(m, calib);
  int quantizes = 0;
  for (const Node& n : qm.nodes) {
    if (n.type != OpType::kQuantize) continue;
    ++quantizes;
    EXPECT_NEAR(n.output_quant.scale(),
                n.name == "gate_quantize" ? 16.0f / 255 : 2.0f / 255, 0.002f)
        << n.name;
  }
  EXPECT_EQ(quantizes, 2);
}

// A sample joins the ranges only once its invoke finishes: a kernel that
// throws partway through leaves every range, the graph input's and those of
// the layers that ran before the throw included, as the last whole sample
// left it.
TEST(Calibrator, SampleThatThrowsLeavesEveryRange) {
  const Graph m = convert_for_inference(post_act_model(14));
  CalibrationOptions opts;
  opts.method = CalibrationOptions::Method::kMovingAverage;
  Calibrator calib(&m, opts);
  Pcg32 rng(15);
  calib.observe({random_input(Shape{1, 8, 8, 3}, rng, -1.0f, 1.0f)});
  std::vector<Calibrator::Range> before;
  for (const Node& n : m.nodes) before.push_back(calib.range(n.id));
  fault::Spec spec;
  spec.skip = 2;  // the third step throws
  spec.max_fires = 1;
  fault::arm(fault_sites::kInvokeStep, spec);
  EXPECT_THROW(
      calib.observe({random_input(Shape{1, 8, 8, 3}, rng, -4.0f, 4.0f)}),
      MlxError);
  fault::disarm_all();
  for (const Node& n : m.nodes) {
    const Calibrator::Range r = calib.range(n.id);
    EXPECT_EQ(r.min, before[static_cast<std::size_t>(n.id)].min) << n.name;
    EXPECT_EQ(r.max, before[static_cast<std::size_t>(n.id)].max) << n.name;
  }
}

TEST(QuantizeModel, StructureHasQuantizeAndDequantize) {
  Graph ckpt = post_act_model(11);
  Graph converted = convert_for_inference(ckpt);
  Calibrator calib(&converted);
  Pcg32 rng(12);
  for (int i = 0; i < 4; ++i) {
    calib.observe({random_input(Shape{1, 8, 8, 3}, rng, -1.0f, 1.0f)});
  }
  Graph qm = quantize_model(converted, calib);
  EXPECT_EQ(qm.node(1).type, OpType::kQuantize);
  EXPECT_EQ(qm.node(qm.outputs[0]).type, OpType::kDequantize);
  // Pools inherit producer quantization (paper §2, per-tensor rules).
  for (const Node& n : qm.nodes) {
    if (n.type == OpType::kMean || n.type == OpType::kAvgPool2D) {
      const Node& producer = qm.node(n.inputs[0]);
      EXPECT_EQ(n.output_quant.scale(), producer.output_quant.scale());
    }
    if (n.type == OpType::kConv2D || n.type == OpType::kDepthwiseConv2D) {
      EXPECT_EQ(n.weights[0].dtype(), DType::kI8);
      EXPECT_EQ(n.weights[1].dtype(), DType::kI32);
    }
  }
}

TEST(QuantizeModel, RequiresConvertedModel) {
  Graph ckpt = post_act_model(13);
  Calibrator calib(&ckpt);
  Pcg32 rng(14);
  calib.observe({random_input(Shape{1, 8, 8, 3}, rng, -1.0f, 1.0f)});
  EXPECT_THROW(quantize_model(ckpt, calib), MlxError);
}

TEST(QuantizeModel, EndToEndAccuracyClose) {
  Graph ckpt = post_act_model(15);
  Graph converted = convert_for_inference(ckpt);
  Calibrator calib(&converted);
  Pcg32 rng(16);
  for (int i = 0; i < 16; ++i) {
    calib.observe({random_input(Shape{1, 8, 8, 3}, rng, -1.0f, 1.0f)});
  }
  Graph qm = quantize_model(converted, calib);
  RefOpResolver ref;
  Model f32_model(&converted, &ref);
  Session fi(&f32_model);
  Model int8_model(&qm, &ref);
  Session qi(&int8_model);
  double worst = 0.0;
  for (int i = 0; i < 8; ++i) {
    Tensor input = random_input(Shape{1, 8, 8, 3}, rng, -1.0f, 1.0f);
    fi.set_input(0, input);
    qi.set_input(0, input);
    fi.invoke();
    qi.invoke();
    worst = std::max(worst, normalized_rmse(qi.output(0), fi.output(0)));
  }
  EXPECT_LT(worst, 0.08);
}

TEST(QuantizeModel, PerTensorWeightsOptionRespected) {
  Graph ckpt = post_act_model(17);
  Graph converted = convert_for_inference(ckpt);
  Calibrator calib(&converted);
  Pcg32 rng(18);
  for (int i = 0; i < 4; ++i) {
    calib.observe({random_input(Shape{1, 8, 8, 3}, rng, -1.0f, 1.0f)});
  }
  QuantizeOptions opts;
  opts.per_channel_weights = false;
  Graph qm = quantize_model(converted, calib, opts);
  for (const Node& n : qm.nodes) {
    if (n.type == OpType::kConv2D) {
      EXPECT_FALSE(n.weights[0].quant().per_channel());
    }
  }
}

}  // namespace
}  // namespace mlexray
