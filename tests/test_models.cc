#include <gtest/gtest.h>

#include <initializer_list>
#include <set>
#include <string>
#include <vector>

#include "src/convert/converter.h"
#include "src/models/detection.h"
#include "src/models/segmentation.h"
#include "src/models/zoo.h"
#include "src/quant/quantizer.h"
#include "src/train/trainer.h"
#include "src/tensor/tensor_stats.h"
#include "tests/differential.h"

namespace mlexray {
namespace {

// Every zoo model must build, run, convert and quantize — structure-level
// checks that do not require training.
class ZooStructure : public ::testing::TestWithParam<std::string> {};

TEST_P(ZooStructure, BuildConvertQuantizeRun) {
  const ZooEntry* entry = nullptr;
  for (const ZooEntry& e : image_zoo()) {
    if (e.name == GetParam()) entry = &e;
  }
  ASSERT_NE(entry, nullptr);
  ZooModel zm = entry->build(3, 1);
  zm.model.validate();
  EXPECT_GT(zm.model.layer_count(), 10);
  EXPECT_GT(zm.model.num_params(), 1000);
  EXPECT_EQ(node_id_by_name(zm.model, "logits"), zm.logits_id);

  Graph mobile = convert_for_inference(zm.model);
  for (const Node& n : mobile.nodes) {
    EXPECT_NE(n.type, OpType::kBatchNorm) << n.name;
  }

  // Checkpoint and converted model agree in float.
  RefOpResolver ref;
  Model ckpt_model(&zm.model, &ref);
  Session ci(&ckpt_model);
  Model mobile_model(&mobile, &ref);
  Session mi(&mobile_model);
  Pcg32 rng(4);
  Tensor input = Tensor::f32(Shape{1, 32, 32, 3});
  float* p = input.data<float>();
  for (std::int64_t i = 0; i < input.num_elements(); ++i) p[i] = rng.uniform(-1, 1);
  ci.set_input(0, input);
  mi.set_input(0, input);
  ci.invoke();
  mi.invoke();
  EXPECT_LT(linf_error(ci.output(0), mi.output(0)), 1e-3) << mobile.name;

  // Full-integer quantization runs end to end on correct kernels.
  Calibrator calib(&mobile);
  calib.observe({input});
  Graph quant = quantize_model(mobile, calib);
  Model int8_model(&quant, &ref);
  Session qi(&int8_model);
  qi.set_input(0, input);
  qi.invoke();
  Tensor out = qi.output(0).to_f32();
  float sum = 0.0f;
  for (std::int64_t i = 0; i < out.num_elements(); ++i) sum += out.data<float>()[i];
  EXPECT_NEAR(sum, 1.0f, 0.1f) << "quantized softmax should stay normalized";
}

INSTANTIATE_TEST_SUITE_P(
    AllImageModels, ZooStructure,
    ::testing::Values("mobilenet_v1_mini", "mobilenet_v2_mini",
                      "mobilenet_v3_mini", "resnet50v2_mini", "inception_mini",
                      "densenet121_mini"));

Tensor random_image(int batch, Pcg32& rng) {
  Tensor t = Tensor::f32(Shape{batch, 32, 32, 3});
  float* p = t.data<float>();
  for (std::int64_t i = 0; i < t.num_elements(); ++i) p[i] = rng.uniform(-1, 1);
  return t;
}

const ZooEntry& image_zoo_entry(const std::string& name) {
  for (const ZooEntry& e : image_zoo()) {
    if (e.name == name) return e;
  }
  throw MlxError("no image-zoo model " + name);
}

// The deployed f32 graph of an image-zoo model at `batch`, with seeded
// biases (the same at every batch).
Graph deployed_graph(const ZooEntry& entry, int batch) {
  Graph g = convert_for_inference(entry.build(3, batch).model);
  draw_biases(g, 23);
  return g;
}

// An image-zoo model x {b1, b8} (or `batches`) x {f32, int8}, each cell
// serving `frames` random frames. int8 is calibrated once, on the batch-1
// twin (node ids and biases do not depend on the batch), so every batch
// shares one quantization. Draws the calibration images, then each batch's
// frames, from rng.
std::vector<Cell> image_zoo_cells(
    const std::string& model, Pcg32& rng,
    std::initializer_list<int> batches = {1, 8}, int frames = 1) {
  const ZooEntry& entry = image_zoo_entry(model);
  const Graph calib_graph = deployed_graph(entry, 1);
  Calibrator calib(&calib_graph);
  for (int i = 0; i < 2; ++i) calib.observe({random_image(1, rng)});
  std::vector<Cell> cells;
  for (int batch : batches) {
    Graph f32 = deployed_graph(entry, batch);
    Graph int8 = quantize_model(f32, calib);
    std::vector<Frame> inputs;
    for (int f = 0; f < frames; ++f) {
      inputs.push_back({random_image(batch, rng)});
    }
    const std::string b = "/b" + std::to_string(batch);
    cells.push_back({model + "/f32" + b, std::move(f32), inputs});
    cells.push_back({model + "/int8" + b, std::move(int8), std::move(inputs)});
  }
  return cells;
}

// The warm and thread-cap axes of one cell, against its base run
// (optimized kernels, t1, every layer pinned). A warmed lean t1 session
// matches the base layer by layer; so does each cap on the shared pool, and
// per_layer_drift names no suspect. The t2 session's steady state
// allocates nothing. Returns the fewest steps any cap put on the pool.
int expect_warm_and_caps(const Cell& cell, const Capture& base,
                         ThreadPool* pool, std::initializer_list<int> caps) {
  EXPECT_TRUE(layers_agree(base.trace, capture(cell, base.side).trace))
      << cell.name << "/t1: warm";
  int pooled = std::numeric_limits<int>::max();
  for (int threads : caps) {
    const std::string where = cell.name + "/t" + std::to_string(threads);
    const Capture capped = capture(cell, capped_side(base.side, pool, threads));
    pooled = std::min(pooled, pooled_steps(capped.model->plan()));
    EXPECT_TRUE(layers_agree(base.trace, capped.trace))
        << where << ": thread cap";
    expect_no_suspect(capped.trace, base.trace, where + ": thread cap");
    if (threads == 2) expect_steady_state_clean(*capped.session, where);
  }
  return pooled;
}

// The differential runner (tests/differential.h) over the image zoo: every
// model x {f32, int8} x {b1, b8}, with seeded biases, four frames per cell.
// Against the base run, every layer of every frame must hold:
//  - warm and thread cap (expect_warm_and_caps), at t2 and t4;
//  - scalar path: the kernels forced scalar;
//  - resolver (int8): the reference kernels, and per_layer_drift at L-inf
//    threshold 0 names no suspect;
//  - batch row (b8): each row against the batch-1 twin.
// A one-quantum kernel bug on any of these paths shows as its layer.
class ZooDifferential : public ::testing::TestWithParam<std::string> {};

TEST_P(ZooDifferential, EveryAxisMatchesLayerByLayer) {
  ThreadPool pool(3);
  const BuiltinOpResolver opt;
  const RefOpResolver ref;
  Pcg32 rng(17);
  // {f32, int8} at b1, then at b8.
  const std::vector<Cell> cells = image_zoo_cells(GetParam(), rng, {1, 8}, 4);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    const Capture base = capture(cell, {&opt, 1, &pool}, Start::kPinned);
    EXPECT_GT(prepared_steps(base.model->plan(), cell.name), 0);
    // Without a step on the pool a cap would compare one thread to one.
    EXPECT_GT(expect_warm_and_caps(cell, base, &pool, {2, 4}), 0)
        << cell.name;
    EXPECT_TRUE(
        layers_agree(base.trace, capture(cell, scalar_side(base.side)).trace))
        << cell.name << ": scalar path";
    if (cell.name.find("/int8/") != std::string::npos) {
      const Capture reference = capture(cell, reference_side(base.side, &ref));
      EXPECT_TRUE(layers_agree(reference.trace, base.trace))
          << cell.name << ": resolver";
      expect_no_suspect(base.trace, reference.trace, cell.name + ": resolver");
    }
    if (i >= 2) {
      EXPECT_TRUE(batch_rows_agree(base, cell.frames, cells[i - 2].graph))
          << cell.name << ": batch row";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllImageModels, ZooDifferential,
    ::testing::Values("mobilenet_v1_mini", "mobilenet_v2_mini",
                      "mobilenet_v3_mini", "resnet50v2_mini", "inception_mini",
                      "densenet121_mini"));

// The op types whose BuiltinOpResolver step runs the very kernel the
// RefOpResolver step of the same node runs, over every image-zoo model in
// f32 and int8 at b1. The set must equal this allow-list, so a reference
// loop cannot enter the fast path unnoticed; moving an op onto an optimized
// kernel (ROADMAP item 3) shrinks the list.
TEST(ResolverCoverage, SharedKernelsMatchAllowList) {
  const std::set<std::string> allowed = {
      // Structural: one shared kernel, nothing to optimize at this scale.
      "Concat/f32",     // row copies
      "Sigmoid/f32",    // under 5 us per invoke; ROADMAP item 3 leaves it
      "Softmax/f32",    // the classifier head
      "Softmax/int8",
      // ROADMAP item 3: still on the reference loop or the shared kernel.
      "AvgPool2D/f32",
      "Concat/int8",    // float rescale per element
      "HardSwish/f32",
      "MaxPool2D/f32",
      "MaxPool2D/int8",
      "Mean/f32",
      "Mul/f32",
  };
  const BuiltinOpResolver opt;
  const RefOpResolver ref;
  std::set<std::string> shared;
  Pcg32 rng(5);
  for (const ZooEntry& entry : image_zoo()) {
    for (const Cell& cell : image_zoo_cells(entry.name, rng, {1})) {
      const Model opt_model(&cell.graph, &opt);
      const Model ref_model(&cell.graph, &ref);
      std::vector<KernelFn> ref_invoke(cell.graph.nodes.size(), nullptr);
      for (const PlanStep& step : ref_model.plan().steps()) {
        ref_invoke[static_cast<std::size_t>(step.node->id)] =
            step.kernel->invoke;
      }
      for (const PlanStep& step : opt_model.plan().steps()) {
        const Node& n = *step.node;
        if (step.kernel->invoke == ref_invoke[static_cast<std::size_t>(n.id)]) {
          shared.insert(std::string(op_type_name(n.type)) +
                        (OpResolver::is_quantized_node(n) ? "/int8" : "/f32"));
        }
      }
    }
  }
  EXPECT_EQ(shared, allowed);
}

// The detection, segmentation, text and audio zoo models at b1 in f32, each
// serving two frames of its own kind: images and spectrograms in [-1, 1]
// and their negation, token ids below the 64-word vocabulary and the same
// ids shifted by 7.
std::vector<Cell> other_zoo_cells(Pcg32& rng) {
  std::vector<Graph> graphs;
  graphs.push_back(build_ssd_mini("mobilenet", 5).model);
  graphs.push_back(build_ssd_mini("resnet", 5).model);
  graphs.push_back(build_deeplab_mini(5).model);
  graphs.push_back(build_nnlm_mini(5, 64, 24).model);
  graphs.push_back(build_mobilebert_mini(5, 64, 24).model);
  graphs.push_back(build_kws_tiny_conv(5).model);
  graphs.push_back(build_kws_low_latency_conv(5).model);
  std::vector<Cell> cells;
  for (const Graph& g : graphs) {
    Graph deploy = convert_for_inference(g);
    draw_biases(deploy, 23);
    const Node& in = deploy.node(deploy.input_ids()[0]);
    Tensor input(in.output_dtype, in.output_shape);
    Tensor twin(in.output_dtype, in.output_shape);
    for (std::int64_t i = 0; i < input.num_elements(); ++i) {
      if (in.output_dtype == DType::kI32) {
        const auto id = static_cast<std::int32_t>(rng.next_below(64));
        input.data<std::int32_t>()[i] = id;
        twin.data<std::int32_t>()[i] = (id + 7) % 64;
      } else {
        input.data<float>()[i] = rng.uniform(-1, 1);
        twin.data<float>()[i] = -input.data<float>()[i];
      }
    }
    cells.push_back({g.name + "/f32/b1", std::move(deploy),
                     {{std::move(input)}, {std::move(twin)}}});
  }
  return cells;
}

TEST(OtherZooDifferential, WarmAndCapsMatchLayerByLayer) {
  ThreadPool pool(3);
  const BuiltinOpResolver opt;
  Pcg32 rng(13);
  for (const Cell& cell : other_zoo_cells(rng)) {
    const Capture base = capture(cell, {&opt, 1, &pool}, Start::kPinned);
    expect_warm_and_caps(cell, base, &pool, {2});
  }
}

// The layout's invariant, checked against live ranges recomputed here: no
// two nodes whose live ranges intersect share a byte, graph inputs and
// outputs overlap nothing, and the block lies between the peak-live sum and
// the sum of every node's bytes. ASan builds check the stronger form their
// layout keeps: such regions lie at least kLayoutRedzone bytes apart, and
// every node adds at most that much to the block.
void expect_layout_keeps_live_tensors_apart(const Cell& cell) {
  BuiltinOpResolver opt;
  const Model model(&cell.graph, &opt);
  const Graph& g = model.graph();
  const ActivationLayout& layout = model.activation_layout();
  const std::size_t n = g.nodes.size();
  const auto& steps = model.plan().steps();
  const int walk = static_cast<int>(steps.size());
  std::vector<int> begin(n, -1), end(n, -1);
  std::vector<bool> pinned(n, false);
  for (std::size_t s = 0; s < steps.size(); ++s) {
    const Node& node = *steps[s].node;
    begin[static_cast<std::size_t>(node.id)] = static_cast<int>(s);
    end[static_cast<std::size_t>(node.id)] = static_cast<int>(s);
  }
  for (std::size_t s = 0; s < steps.size(); ++s) {
    for (int in : steps[s].node->inputs) {
      end[static_cast<std::size_t>(in)] = static_cast<int>(s);
    }
  }
  for (int id : g.input_ids()) pinned[static_cast<std::size_t>(id)] = true;
  for (int id : g.outputs) pinned[static_cast<std::size_t>(id)] = true;
  std::vector<std::size_t> bytes(n);
  std::size_t total = 0;
  for (std::size_t id = 0; id < n; ++id) {
    const Node& node = g.nodes[id];
    bytes[id] = tensor_bytes(node.output_dtype, node.output_shape);
    total += bytes[id];
    if (pinned[id]) {
      begin[id] = -1;
      end[id] = walk;
    }
    EXPECT_EQ(layout.pinned[id], pinned[id]) << cell.name << ": " << id;
    EXPECT_EQ(layout.offsets[id] % 64, 0u) << cell.name << ": " << id;
    EXPECT_LE(layout.offsets[id] + bytes[id] + kLayoutRedzone,
              layout.block_bytes)
        << cell.name << ": " << id;
  }
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      const bool live_together = begin[a] <= end[b] && begin[b] <= end[a];
      if (!live_together && !pinned[a] && !pinned[b]) continue;
      const bool apart =
          layout.offsets[a] + bytes[a] + kLayoutRedzone <= layout.offsets[b] ||
          layout.offsets[b] + bytes[b] + kLayoutRedzone <= layout.offsets[a];
      EXPECT_TRUE(apart || bytes[a] == 0 || bytes[b] == 0)
          << cell.name << ": " << g.nodes[a].name << " and "
          << g.nodes[b].name << " share bytes";
    }
  }
  std::size_t peak_live = 0;
  for (int s = -1; s <= walk; ++s) {
    std::size_t live = 0;
    for (std::size_t id = 0; id < n; ++id) {
      if (begin[id] <= s && s <= end[id]) live += bytes[id];
    }
    peak_live = std::max(peak_live, live);
  }
  EXPECT_GE(layout.block_bytes, peak_live) << cell.name;
  EXPECT_LE(layout.block_bytes, total + kLayoutRedzone * n) << cell.name;
}


class LeanPlan : public ::testing::TestWithParam<std::string> {};

TEST_P(LeanPlan, LayoutKeepsLiveTensorsApart) {
  Pcg32 rng(11);
  for (const Cell& cell : image_zoo_cells(GetParam(), rng)) {
    expect_layout_keeps_live_tensors_apart(cell);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllImageModels, LeanPlan,
    ::testing::Values("mobilenet_v1_mini", "mobilenet_v2_mini",
                      "mobilenet_v3_mini", "resnet50v2_mini", "inception_mini",
                      "densenet121_mini"));

TEST(LeanPlanOtherZoo, LayoutKeepsLiveTensorsApart) {
  Pcg32 rng(13);
  for (const Cell& cell : other_zoo_cells(rng)) {
    expect_layout_keeps_live_tensors_apart(cell);
  }
}

// The trainer's forward takes the same per-step pools: at 2 threads every
// activation matches the 1-thread forward byte for byte.
TEST(TrainerThreads, ForwardMatchesOneThread) {
  ZooModel one = build_mobilenet_v2_mini(5, 4);
  ZooModel two = build_mobilenet_v2_mini(5, 4);
  Trainer t1(&one.model, TrainConfig{1e-3f, 1});
  Trainer t2(&two.model, TrainConfig{1e-3f, 2});
  Pcg32 rng(12);
  const Tensor input = random_image(4, rng);
  t1.forward({input});
  t2.forward({input});
  for (const Node& n : one.model.nodes) {
    EXPECT_TRUE(same_bytes(t1.activation(n.id), t2.activation(n.id)))
        << n.name;
  }
}

TEST(Zoo, LayerCountsIncreaseAcrossTableOrder) {
  // Tables 3/5 list models by increasing layer count; our minis keep that
  // relative ordering (v1 < v2 < v3-with-SE; densenet deepest).
  std::vector<int> layers;
  for (const ZooEntry& e : image_zoo()) {
    layers.push_back(e.build(3, 1).model.layer_count());
  }
  EXPECT_LT(layers[0], layers[1]);  // v1 < v2
  EXPECT_LT(layers[1], layers[2]);  // v2 < v3
}

TEST(Zoo, V3HasSqueezeExcitePools) {
  ZooModel v3 = build_mobilenet_v3_mini(3);
  int se_pools = 0;
  for (const Node& n : v3.model.nodes) {
    if (n.type == OpType::kAvgPool2D &&
        n.name.find("se_pool") != std::string::npos) {
      ++se_pools;
    }
  }
  EXPECT_EQ(se_pools, 6);  // one per inverted-residual block
  ZooModel v2 = build_mobilenet_v2_mini(3);
  for (const Node& n : v2.model.nodes) {
    EXPECT_NE(n.type, OpType::kAvgPool2D) << "v2 has no SE pools";
  }
}

TEST(Zoo, V2HasExplicitPadLayers) {
  ZooModel v2 = build_mobilenet_v2_mini(3);
  int pads = 0;
  for (const Node& n : v2.model.nodes) pads += n.type == OpType::kPad ? 1 : 0;
  EXPECT_GE(pads, 2);  // stride-2 blocks use TFLite-style explicit pads
}

TEST(Zoo, AudioModelsMatchSpectrogramGeometry) {
  ZooModel kws = build_kws_tiny_conv(5);
  EXPECT_EQ(kws.model.node(0).output_shape, (Shape{1, 31, 64, 1}));
  ZooModel kws2 = build_kws_low_latency_conv(5);
  EXPECT_EQ(kws2.model.node(0).output_shape, (Shape{1, 31, 64, 1}));
}

TEST(Zoo, TextModelsRunForward) {
  ZooModel nnlm = build_nnlm_mini(5, 64, 24);
  ZooModel bert = build_mobilebert_mini(5, 64, 24);
  RefOpResolver ref;
  Tensor tokens = Tensor::i32(Shape{1, 24});
  for (int i = 0; i < 24; ++i) tokens.data<std::int32_t>()[i] = i % 60;
  for (ZooModel* zm : {&nnlm, &bert}) {
    Model model(&zm->model, &ref);
    Session session(&model);
    session.set_input(0, tokens);
    session.invoke();
    const float* p = session.output(0).data<float>();
    EXPECT_NEAR(p[0] + p[1], 1.0f, 1e-4);
  }
}

TEST(Ssd, AnchorsCoverGrids) {
  SsdModel ssd = build_ssd_mini("mobilenet", 5);
  auto anchors = ssd_anchors(ssd);
  EXPECT_EQ(anchors.size(), 64u + 16u);
  for (const Anchor& a : anchors) {
    EXPECT_GT(a.cx, 0.0f);
    EXPECT_LT(a.cx, 1.0f);
  }
}

TEST(Ssd, TargetEncodingAssignsBestAnchor) {
  SsdModel ssd = build_ssd_mini("mobilenet", 5);
  DetObject obj{0.5f, 0.5f, 0.3f, 0.3f, 2};
  SsdTargets t = encode_ssd_targets(ssd, {obj});
  int positives = 0;
  for (std::size_t a = 0; a < t.labels.size(); ++a) {
    if (t.positive[a]) {
      ++positives;
      EXPECT_EQ(t.labels[a], 3);  // class 2 -> label 3
    }
  }
  EXPECT_GE(positives, 1);
}

TEST(Ssd, BothBackbonesBuildAndPredict) {
  for (const char* backbone : {"mobilenet", "resnet"}) {
    SsdModel ssd = build_ssd_mini(backbone, 5);
    RefOpResolver ref;
    Model model(&ssd.model, &ref);
    Session session(&model);
    Tensor input = Tensor::f32(Shape{1, 32, 32, 3});
    auto preds = ssd_predict(ssd, session, input);
    // Untrained model may or may not predict; the call must be well-formed.
    for (const DetPrediction& p : preds) {
      EXPECT_GE(p.cls, 0);
      EXPECT_LT(p.cls, ssd.num_classes);
    }
  }
}

TEST(Ssd, UnknownBackboneThrows) {
  EXPECT_THROW(build_ssd_mini("vgg", 5), MlxError);
}

TEST(Deeplab, ProducesDenseMask) {
  ZooModel zm = build_deeplab_mini(5);
  RefOpResolver ref;
  Model model(&zm.model, &ref);
  Session session(&model);
  Tensor input = Tensor::f32(Shape{1, 32, 32, 3});
  Tensor mask = predict_mask(session, input);
  EXPECT_EQ(mask.shape(), (Shape{32, 32}));
}

TEST(Zoo, BatchedTwinSharesWeightShapes) {
  ZooModel deploy = build_mobilenet_v2_mini(7, 1);
  ZooModel twin = build_mobilenet_v2_mini(7, 8);
  ASSERT_EQ(deploy.model.nodes.size(), twin.model.nodes.size());
  // copy_weights must succeed across batch sizes.
  EXPECT_NO_THROW(copy_weights(twin.model, &deploy.model));
}

}  // namespace
}  // namespace mlexray
