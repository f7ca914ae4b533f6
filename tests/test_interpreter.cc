#include <gtest/gtest.h>

#include <cmath>

#include "src/graph/builder.h"
#include "src/interpreter/device_profile.h"
#include "src/interpreter/invoke_observer.h"
#include "src/interpreter/session.h"
#include "src/models/zoo.h"
#include "src/tensor/alloc_stats.h"
#include "src/tensor/tensor_stats.h"
#include "tests/test_util.h"

namespace mlexray {
namespace {

TEST(Session, InvokeProducesFiniteOutputs) {
  Pcg32 rng(1);
  GraphBuilder b("m", &rng);
  int x = b.input(Shape{1, 8, 8, 3});
  int c = b.conv2d(x, 4, 3, 3, 2, Padding::kSame, Activation::kRelu, "c1");
  int g = b.mean(c, "gap");
  int logits = b.fully_connected(g, 3, Activation::kNone, "logits");
  int prob = b.softmax(logits, "prob");
  Graph m = b.finish({prob});
  RefOpResolver ref;
  Model model(&m, &ref);
  Session session(&model);
  Tensor input = Tensor::f32(Shape{1, 8, 8, 3});
  input.fill(0.5f);
  session.set_input(0, input);
  session.invoke();
  const float* p = session.output(0).data<float>();
  float sum = 0;
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(std::isfinite(p[i]));
    sum += p[i];
  }
  EXPECT_NEAR(sum, 1.0f, 1e-5);
}

TEST(Session, ShapeMismatchThrows) {
  Pcg32 rng(2);
  GraphBuilder b("m", &rng);
  int x = b.input(Shape{1, 4, 4, 1});
  Graph m = b.finish({x});
  RefOpResolver ref;
  Model model(&m, &ref);
  Session session(&model);
  EXPECT_THROW(session.set_input(0, Tensor::f32(Shape{1, 5, 5, 1})), MlxError);
}

TEST(Session, PerNodeLatenciesRecorded) {
  Pcg32 rng(3);
  GraphBuilder b("m", &rng);
  int x = b.input(Shape{1, 16, 16, 8});
  int c = b.conv2d(x, 8, 3, 3, 1, Padding::kSame, Activation::kNone, "c1");
  Graph m = b.finish({c});
  RefOpResolver ref;
  Model model(&m, &ref);
  Session session(&model);
  Tensor input = Tensor::f32(Shape{1, 16, 16, 8});
  session.set_input(0, input);
  session.invoke();
  const SessionStats& stats = session.last_stats();
  EXPECT_GT(stats.total_ms, 0.0);
  EXPECT_GT(stats.per_node_ms[1], 0.0);
  EXPECT_EQ(stats.per_node_ms[0], 0.0);  // input node costs nothing
}

TEST(Session, PrepareAndInvokeStatsSeparated) {
  Pcg32 rng(21);
  GraphBuilder b("m", &rng);
  int x = b.input(Shape{1, 16, 16, 8});
  int c = b.conv2d(x, 8, 3, 3, 1, Padding::kSame, Activation::kRelu, "c1");
  Graph m = b.finish({c});
  BuiltinOpResolver opt;
  Model model(&m, &opt);
  Session session(&model);
  // Prepare happened at construction, before any invoke.
  EXPECT_GT(session.last_stats().prepare_ms, 0.0);
  EXPECT_EQ(session.last_stats().total_ms, 0.0);
  EXPECT_EQ(session.plan().steps().size(), 1u);

  Tensor input = Tensor::f32(Shape{1, 16, 16, 8});
  input.fill(0.25f);
  session.set_input(0, input);
  session.invoke();
  EXPECT_GT(session.last_stats().total_ms, 0.0);
  // prepare_ms is a one-time cost: invoking again must not change it.
  const double prepare_before = session.last_stats().prepare_ms;
  session.invoke();
  EXPECT_EQ(session.last_stats().prepare_ms, prepare_before);
}

// Keeps every step latency the session reports to its observer.
struct StepLatencies : InvokeObserver {
  std::vector<std::vector<double>> per_invoke;  // [invoke][node id]
  std::size_t nodes = 0;
  void on_invoke_begin(std::size_t) override {
    per_invoke.emplace_back(nodes, 0.0);
  }
  void on_step(const Node& node, const Tensor&, double latency_ms) override {
    per_invoke.back()[static_cast<std::size_t>(node.id)] = latency_ms;
  }
};

TEST(Session, PerNodeStatsResetEachInvoke) {
  Pcg32 rng(22);
  GraphBuilder b("m", &rng);
  int x = b.input(Shape{1, 8, 8, 4});
  int r = b.relu(x, "r");
  Graph m = b.finish({r});
  RefOpResolver ref;
  Model model(&m, &ref);
  Session session(&model);
  Tensor input = Tensor::f32(Shape{1, 8, 8, 4});
  session.set_input(0, input);
  StepLatencies seen;
  seen.nodes = m.nodes.size();
  session.set_observer(&seen);
  session.invoke();
  session.invoke();
  session.set_observer(nullptr);
  ASSERT_EQ(seen.per_invoke.size(), 2u);
  // per_node_ms is a fresh per-invoke reading: exactly the latency the
  // observer saw in the last invoke. Had invoke accumulated into it, it
  // would read first + last, and the first reading is not zero.
  EXPECT_GT(seen.per_invoke[0][1], 0.0);
  EXPECT_EQ(session.last_stats().per_node_ms, seen.per_invoke[1]);
}

// The plan makes the one fan-out decision per step: the model's pool for a
// step whose plan-time MACs pay for the rendezvous, no pool otherwise.
TEST(ExecutionPlan, FanOutDecidedPerStep) {
  Pcg32 rng(24);
  GraphBuilder b("m", &rng);
  int x = b.input(Shape{1, 16, 16, 8});
  // 16 * 16 * 16 outputs x 72 taps: 294,912 MACs.
  int c = b.conv2d(x, 16, 3, 3, 1, Padding::kSame, Activation::kNone, "big");
  // 4,096 additions.
  int a = b.add(c, c, Activation::kNone, "small");
  Graph m = b.finish({a});
  BuiltinOpResolver opt;

  Model single(&m, &opt);
  for (const PlanStep& step : single.plan().steps()) {
    EXPECT_FALSE(step.pool) << step.node->name;
  }

  Model threaded(&m, &opt, /*num_threads=*/2);
  ASSERT_TRUE(threaded.pool());
  const auto& steps = threaded.plan().steps();
  ASSERT_EQ(steps.size(), 2u);
  EXPECT_EQ(steps[0].node->id, c);
  EXPECT_EQ(steps[0].pool.get(), threaded.pool().get());
  EXPECT_EQ(steps[0].pool.cap(), threaded.pool().cap());
  EXPECT_EQ(steps[1].node->id, a);
  EXPECT_FALSE(steps[1].pool);
}

TEST(Session, UnsupportedOpFailsAtPrepareTime) {
  Pcg32 rng(23);
  GraphBuilder b("emb", &rng);
  int ids = b.input(Shape{1, 4}, DType::kI32, "tokens");
  int e = b.embedding(ids, 10, 4, "emb");
  Graph m = b.finish({e});
  m.node(e).output_dtype = DType::kI8;  // no int8 embedding kernel exists
  RefOpResolver ref;
  // The plan resolves kernels at construction: failure surfaces in Prepare,
  // not on the first invoke.
  EXPECT_THROW(Model(&m, &ref), MlxError);
}

TEST(Session, NodeOutputsRetained) {
  Pcg32 rng(4);
  GraphBuilder b("m", &rng);
  int x = b.input(Shape{1, 4, 4, 2});
  int r = b.relu(x, "r");
  int s = b.softmax(r, "s");
  Graph m = b.finish({s});
  RefOpResolver ref;
  Model model(&m, &ref);
  Session session(&model, Retention::kPreserveAll);
  Tensor input = Tensor::f32(Shape{1, 4, 4, 2});
  input.fill(-1.0f);
  session.set_input(0, input);
  session.invoke();
  // relu output of -1 inputs is all zeros; retained per-layer.
  TensorSummary sum = summarize(session.node_output(r));
  EXPECT_EQ(sum.max, 0.0f);
}

// x -> r1 -> r2 -> r3 -> softmax: r1 and r3 are never live together, so a
// lean session's block holds four tensors where preserve-all holds five.
Graph relu_chain(Pcg32* rng) {
  GraphBuilder b("chain", rng);
  int x = b.input(Shape{1, 4, 4, 2});
  int r1 = b.relu(x, "r1");
  int r2 = b.relu(r1, "r2");
  int r3 = b.relu(r2, "r3");
  int s = b.softmax(r3, "s");
  return b.finish({s});
}

// A lean session reuses its intermediate layers' bytes, so after invoke it
// serves only graph inputs and outputs; reading any other node throws and
// names the retention that keeps them.
TEST(Session, LeanNodeOutputServesOnlyInputsAndOutputs) {
  Pcg32 rng(31);
  Graph m = relu_chain(&rng);
  RefOpResolver ref;
  Model model(&m, &ref);
  Session session(&model);
  EXPECT_EQ(session.retention(), Retention::kLean);
  Tensor input = Tensor::f32(Shape{1, 4, 4, 2});
  input.fill(0.25f);
  session.set_input(0, input);
  session.invoke();
  EXPECT_TRUE(same_bytes(session.node_output(0), input));
  EXPECT_EQ(&session.node_output(m.outputs[0]), &session.output(0));
  for (const char* name : {"r1", "r2", "r3"}) {
    try {
      session.node_output(node_id_by_name(m, name));
      ADD_FAILURE() << name << " was served by a lean session";
    } catch (const MlxError& e) {
      EXPECT_NE(std::string(e.what()).find("Retention::kPreserveAll"),
                std::string::npos)
          << e.what();
    }
  }
  Session full(&model, Retention::kPreserveAll);
  full.set_input(0, input);
  full.invoke();
  EXPECT_NO_THROW(full.node_output(node_id_by_name(m, "r2")));
  EXPECT_TRUE(same_bytes(session.output(0), full.output(0)));
  // Four regions live at once (ASan builds add a redzone to each).
  EXPECT_EQ(session.activation_bytes(),
            4 * (input.byte_size() + kLayoutRedzone));
  EXPECT_EQ(full.activation_bytes(), 5 * input.byte_size());
}

// A lean session's block is one zeroed allocation and its activations are
// views into it: a copy is an owning deep copy, assigning onto a view
// writes through, and a mismatched assignment throws instead of turning
// the view into an owner.
TEST(Session, LeanActivationsAreViewsIntoOneBlock) {
  Pcg32 rng(32);
  Graph m = relu_chain(&rng);
  RefOpResolver ref;
  Model model(&m, &ref);
  AllocStats& stats = AllocStats::instance();
  const std::uint64_t events = stats.alloc_events();
  const std::size_t bytes = stats.current_bytes();
  Session session(&model);
  EXPECT_EQ(stats.alloc_events() - events, 1u);
  EXPECT_GE(stats.current_bytes() - bytes, session.activation_bytes());

  Tensor& in = session.mutable_input(0);
  const void* in_bytes = in.raw_data();
  EXPECT_EQ(in.data<float>()[0], 0.0f) << "the block is zeroed once";
  Tensor value = Tensor::f32(Shape{1, 4, 4, 2});
  value.fill(-1.5f);
  const std::size_t before_assign = stats.current_bytes();
  in = value;
  EXPECT_EQ(in.raw_data(), in_bytes) << "assignment rebound the view";
  EXPECT_EQ(stats.current_bytes(), before_assign);
  EXPECT_TRUE(same_bytes(in, value));
  EXPECT_THROW(in = Tensor::f32(Shape{1, 2, 2, 2}), MlxError);
  EXPECT_THROW(in = Tensor::i8(Shape{1, 4, 4, 2}), MlxError);
  EXPECT_EQ(in.raw_data(), in_bytes);
  EXPECT_EQ(in.shape(), (Shape{1, 4, 4, 2}));

  session.invoke();
  const Tensor& out = session.output(0);
  const std::size_t before_copy = stats.current_bytes();
  Tensor copy = out;
  EXPECT_NE(copy.raw_data(), out.raw_data());
  EXPECT_EQ(stats.current_bytes() - before_copy, out.byte_size());
  EXPECT_TRUE(same_bytes(copy, out));
}

TEST(Session, RefAndOptimizedAgreeOnZooModel) {
  ZooModel zm = build_mobilenet_v2_mini(5);
  RefOpResolver ref;
  BuiltinOpResolver opt;
  Model ref_model(&zm.model, &ref);
  Session ri(&ref_model);
  Model opt_model(&zm.model, &opt, 2);
  Session oi(&opt_model);
  Pcg32 rng(6);
  Tensor input = Tensor::f32(Shape{1, 32, 32, 3});
  float* p = input.data<float>();
  for (std::int64_t i = 0; i < input.num_elements(); ++i) p[i] = rng.uniform(-1, 1);
  ri.set_input(0, input);
  oi.set_input(0, input);
  ri.invoke();
  oi.invoke();
  EXPECT_LT(linf_error(ri.output(0), oi.output(0)), 1e-4);
}

TEST(DeviceProfile, CostScalesWithModelSize) {
  ZooModel small = build_mobilenet_v1_mini(7);
  ZooModel large = build_resnet50v2_mini(7);
  const DeviceProfile& dev = DeviceProfile::pixel4_cpu();
  EXPECT_GT(modeled_graph_latency_ms(large.model, dev),
            modeled_graph_latency_ms(small.model, dev));
}

TEST(DeviceProfile, GpuFasterThanCpuOnFloat) {
  ZooModel zm = build_mobilenet_v2_mini(8);
  double cpu = modeled_graph_latency_ms(zm.model, DeviceProfile::pixel4_cpu());
  double gpu = modeled_graph_latency_ms(zm.model, DeviceProfile::pixel4_gpu());
  EXPECT_GT(cpu, gpu);
}

TEST(DeviceProfile, Pixel4FasterThanPixel3) {
  ZooModel zm = build_mobilenet_v2_mini(9);
  EXPECT_LT(modeled_graph_latency_ms(zm.model, DeviceProfile::pixel4_cpu()),
            modeled_graph_latency_ms(zm.model, DeviceProfile::pixel3_cpu()));
}

TEST(DeviceProfile, EmulatorPenalizesFloatConvs) {
  ZooModel zm = build_mobilenet_v2_mini(10);
  double device = modeled_graph_latency_ms(zm.model, DeviceProfile::pixel4_cpu());
  double emu = modeled_graph_latency_ms(zm.model, DeviceProfile::emulator_x86());
  EXPECT_GT(emu, 5.0 * device);  // the paper's Table-4 emulator column shape
}

TEST(DeviceProfile, ConvCostFormula) {
  Pcg32 rng(11);
  GraphBuilder b("c", &rng);
  int x = b.input(Shape{1, 8, 8, 2});
  int c = b.conv2d(x, 4, 3, 3, 1, Padding::kSame, Activation::kNone, "c1");
  Graph m = b.finish({c});
  NodeCost cost = estimate_node_cost(m, m.node(c));
  // flops = 2 * out_elems * kh*kw*in_ch = 2 * (8*8*4) * 18
  EXPECT_DOUBLE_EQ(cost.flops, 2.0 * 8 * 8 * 4 * 3 * 3 * 2);
  EXPECT_GT(cost.bytes, 0.0);
}

}  // namespace
}  // namespace mlexray
