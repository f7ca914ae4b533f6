#include <gtest/gtest.h>

#include <filesystem>

#include "src/graph/builder.h"
#include "src/graph/serialization.h"

namespace mlexray {
namespace {

Graph tiny_model(std::uint64_t seed = 3) {
  Pcg32 rng(seed);
  GraphBuilder b("tiny", &rng);
  int x = b.input(Shape{1, 8, 8, 3});
  x = b.conv2d(x, 4, 3, 3, 2, Padding::kSame, Activation::kNone, "c1");
  x = b.batch_norm(x, "bn1");
  x = b.relu(x, "r1");
  x = b.mean(x, "gap");
  int logits = b.fully_connected(x, 5, Activation::kNone, "logits");
  int prob = b.softmax(logits, "prob");
  return b.finish({prob});
}

// local helper (models lib provides one too, but keep graph tests standalone)
int find_node(const Graph& m, const std::string& name) {
  for (const Node& n : m.nodes) {
    if (n.name == name) return n.id;
  }
  throw MlxError("missing node " + name);
}

TEST(Graph, ShapeInferenceConvSame) {
  Graph m = tiny_model();
  // conv stride 2 SAME on 8x8 -> 4x4x4
  int conv = find_node(m, "c1");
  EXPECT_EQ(m.node(conv).output_shape, (Shape{1, 4, 4, 4}));
}

TEST(Graph, LayerAndParamCounts) {
  Graph m = tiny_model();
  EXPECT_EQ(m.layer_count(), static_cast<int>(m.nodes.size()) - 1);
  // conv: 4*3*3*3 + 4; bn: 4*4; fc: 5*4 + 5
  EXPECT_EQ(m.num_params(), 4 * 3 * 3 * 3 + 4 + 16 + 5 * 4 + 5);
}

TEST(Graph, NonTopologicalInputRejected) {
  Graph m;
  Node n;
  n.type = OpType::kRelu;
  n.inputs = {5};
  EXPECT_THROW(m.add_node(std::move(n)), MlxError);
}

TEST(Graph, ConcatShapeInference) {
  Pcg32 rng(1);
  GraphBuilder b("cat", &rng);
  int x = b.input(Shape{1, 4, 4, 3});
  int a = b.conv2d(x, 2, 1, 1, 1, Padding::kSame, Activation::kNone);
  int c = b.conv2d(x, 5, 1, 1, 1, Padding::kSame, Activation::kNone);
  int cat = b.concat({a, c});
  EXPECT_EQ(b.shape_of(cat), (Shape{1, 4, 4, 7}));
}

TEST(Graph, ReshapeInfersMinusOne) {
  Pcg32 rng(1);
  GraphBuilder b("rs", &rng);
  int x = b.input(Shape{1, 4, 4, 2});
  int r = b.reshape(x, Shape{0, -1});
  EXPECT_EQ(b.shape_of(r), (Shape{1, 32}));
}

TEST(Graph, PadShape) {
  Pcg32 rng(1);
  GraphBuilder b("pad", &rng);
  int x = b.input(Shape{1, 4, 4, 2});
  int p = b.pad(x, 0, 1, 0, 1);
  EXPECT_EQ(b.shape_of(p), (Shape{1, 5, 5, 2}));
}

TEST(Graph, ValidConvShape) {
  Pcg32 rng(1);
  GraphBuilder b("v", &rng);
  int x = b.input(Shape{1, 5, 5, 1});
  int c = b.conv2d(x, 2, 3, 3, 2, Padding::kValid, Activation::kNone);
  EXPECT_EQ(b.shape_of(c), (Shape{1, 2, 2, 2}));
}

TEST(Graph, AddShapeMismatchThrows) {
  Pcg32 rng(1);
  GraphBuilder b("bad", &rng);
  int x = b.input(Shape{1, 4, 4, 2});
  int y = b.conv2d(x, 3, 1, 1, 1, Padding::kSame, Activation::kNone);
  EXPECT_THROW(b.add(x, y), MlxError);
}

TEST(Serialization, ModelRoundTrip) {
  Graph m = tiny_model(9);
  auto bytes = serialize_model(m);
  BinaryReader r(bytes);
  Graph back = deserialize_model(r);
  ASSERT_EQ(back.nodes.size(), m.nodes.size());
  EXPECT_EQ(back.name, m.name);
  EXPECT_EQ(back.input_spec, m.input_spec);
  for (std::size_t i = 0; i < m.nodes.size(); ++i) {
    EXPECT_EQ(back.nodes[i].type, m.nodes[i].type);
    EXPECT_EQ(back.nodes[i].name, m.nodes[i].name);
    EXPECT_EQ(back.nodes[i].output_shape, m.nodes[i].output_shape);
    ASSERT_EQ(back.nodes[i].weights.size(), m.nodes[i].weights.size());
    for (std::size_t w = 0; w < m.nodes[i].weights.size(); ++w) {
      const Tensor& a = m.nodes[i].weights[w];
      const Tensor& b = back.nodes[i].weights[w];
      ASSERT_EQ(a.byte_size(), b.byte_size());
      EXPECT_EQ(0, std::memcmp(a.raw_data(), b.raw_data(), a.byte_size()));
    }
  }
}

TEST(Serialization, FileRoundTrip) {
  Graph m = tiny_model(4);
  auto path = std::filesystem::temp_directory_path() / "mlx_model.ckpt";
  save_model(m, path);
  Graph back = load_model(path);
  EXPECT_EQ(back.nodes.size(), m.nodes.size());
  std::filesystem::remove(path);
}

// A model file is as untrusted as a trace. A Conv2D whose serialized output
// shape claims 8 channels over a 2-channel filter would send the kernels
// past its 2-element bias; loading re-infers every shape and refuses it.
TEST(Serialization, RejectsOutputShapeItsWeightsDoNotImply) {
  Pcg32 rng(5);
  GraphBuilder b("crafted", &rng);
  const int x = b.input(Shape{1, 4, 4, 2});
  const int c =
      b.conv2d(x, 2, 3, 3, 1, Padding::kSame, Activation::kNone, "conv");
  Graph m = b.finish({c});
  ASSERT_EQ(m.node(c).weights[0].shape(), (Shape{2, 3, 3, 2}));
  {
    const auto bytes = serialize_model(m);
    BinaryReader r(bytes);
    EXPECT_EQ(deserialize_model(r).node(c).output_shape,
              (Shape{1, 4, 4, 2}));
  }
  m.nodes[static_cast<std::size_t>(c)].output_shape = Shape{1, 4, 4, 8};
  const auto bytes = serialize_model(m);
  BinaryReader r(bytes);
  try {
    deserialize_model(r);
    ADD_FAILURE() << "a Conv2D claiming 8 output channels loaded";
  } catch (const MlxError& e) {
    EXPECT_NE(std::string(e.what()).find("'conv'"), std::string::npos)
        << e.what();
  }
}

// Serializes `m` as crafted and expects loading it to throw MlxError
// naming `node`.
void expect_load_refuses(const Graph& m, const std::string& node,
                         const std::string& craft) {
  const auto bytes = serialize_model(m);
  BinaryReader r(bytes);
  try {
    deserialize_model(r);
    ADD_FAILURE() << craft << " loaded";
  } catch (const MlxError& e) {
    EXPECT_NE(std::string(e.what()).find("'" + node + "'"), std::string::npos)
        << craft << ": " << e.what();
  }
}

// The kernels read a bias, and a per-channel weight's scales and zero
// points, by output channel: a model file whose weights hold fewer would
// send them past the end, so loading refuses it.
TEST(Serialization, RejectsConv2DWeightLengthsOffItsChannels) {
  Pcg32 rng(6);
  GraphBuilder b("crafted", &rng);
  const int x = b.input(Shape{1, 4, 4, 2});
  const int c =
      b.conv2d(x, 8, 3, 3, 1, Padding::kSame, Activation::kNone, "conv");
  const Graph m = b.finish({c});
  {
    const auto bytes = serialize_model(m);
    BinaryReader r(bytes);
    EXPECT_NO_THROW(deserialize_model(r));
  }
  Graph short_bias = m;
  short_bias.node(c).weights[1] = Tensor::f32(Shape{1});
  expect_load_refuses(short_bias, "conv", "a 1-element bias over 8 channels");
  Graph few_scales = m;
  few_scales.node(c).weights[0].quant() =
      QuantParams::per_channel_params({1.0f, 1.0f, 1.0f}, {0, 0, 0}, 0);
  expect_load_refuses(few_scales, "conv", "3 filter scales for 8 channels");
  Graph few_zero_points = m;
  QuantParams& q = few_zero_points.node(c).weights[1].quant();
  q.scales.assign(8, 1.0f);
  q.zero_points.assign(7, 0);
  expect_load_refuses(few_zero_points, "conv", "7 bias zero points");
}

TEST(Serialization, RejectsDepthwiseWeightShapesOffItsChannels) {
  Pcg32 rng(7);
  GraphBuilder b("crafted", &rng);
  const int x = b.input(Shape{1, 4, 4, 4});
  const int d = b.depthwise_conv2d(x, 3, 3, 1, Padding::kSame,
                                   Activation::kNone, "dw");
  const Graph m = b.finish({d});
  Graph short_bias = m;
  short_bias.node(d).weights[1] = Tensor::f32(Shape{2});
  expect_load_refuses(short_bias, "dw", "a 2-element bias over 4 channels");
  Graph deep_filter = m;
  deep_filter.node(d).weights[0] = Tensor::f32(Shape{2, 3, 3, 4});
  expect_load_refuses(deep_filter, "dw", "a [2, 3, 3, 4] filter");
}

TEST(Serialization, RejectsFullyConnectedWeightShapesOffItsChannels) {
  Pcg32 rng(8);
  GraphBuilder b("crafted", &rng);
  const int x = b.input(Shape{1, 6});
  const int fc = b.fully_connected(x, 5, Activation::kNone, "fc");
  const Graph m = b.finish({fc});
  Graph short_bias = m;
  short_bias.node(fc).weights[1] = Tensor::f32(Shape{4});
  expect_load_refuses(short_bias, "fc", "a 4-element bias over 5 outputs");
  Graph rank3 = m;
  rank3.node(fc).weights[0] = Tensor::f32(Shape{5, 6, 1});
  expect_load_refuses(rank3, "fc", "a [5, 6, 1] weight");
}

TEST(Serialization, RejectsBatchNormWeightLengthsOffItsInput) {
  const Graph m = tiny_model(10);
  const int bn = find_node(m, "bn1");  // over c1's 4 channels
  for (std::size_t w = 0; w < 4; ++w) {
    Graph crafted = m;
    crafted.node(bn).weights[w] = Tensor::f32(Shape{w % 2 == 0 ? 3 : 5});
    expect_load_refuses(crafted, "bn1",
                        "batch-norm weight " + std::to_string(w));
  }
}

TEST(Serialization, RejectsGarbage) {
  BinaryWriter w;
  w.write_u32(0xdeadbeef);
  BinaryReader r(w.bytes());
  EXPECT_THROW(deserialize_model(r), MlxError);
}

TEST(OpTypes, LatencyGroups) {
  EXPECT_EQ(op_latency_group(OpType::kDepthwiseConv2D), "D-Conv");
  EXPECT_EQ(op_latency_group(OpType::kConv2D), "Conv");
  EXPECT_EQ(op_latency_group(OpType::kQuantize), "Quantize");
}

}  // namespace
}  // namespace mlexray
