#include <gtest/gtest.h>

#include <cmath>

#include "src/graph/builder.h"
#include "src/train/train_loop.h"
#include "src/train/trainer.h"
#include "tests/test_util.h"

namespace mlexray {
namespace {

double loss_at(Trainer& trainer, const std::vector<Tensor>& inputs,
               int logits, int label) {
  trainer.forward(inputs);
  return softmax_cross_entropy(trainer.activation(logits), label).loss;
}

// Finite-difference gradient check: analytic gradients from one backward
// pass vs central differences, at three sampled weights of every trainable
// tensor, or at every weight when `every_weight` is set.
void grad_check(Graph* model, int logits, const std::vector<Tensor>& inputs,
                int label, bool every_weight = false) {
  constexpr double rel_tol = 0.08;
  constexpr double abs_tol = 2e-3;
  TrainConfig cfg;
  Trainer trainer(model, cfg);
  trainer.zero_grad();
  trainer.forward(inputs);
  LossGrad lg = softmax_cross_entropy(trainer.activation(logits), label);
  std::vector<std::pair<int, Tensor>> seeds;
  seeds.emplace_back(logits, std::move(lg.grad));
  trainer.backward(seeds);

  Pcg32 pick(77);
  for (Node& node : model->nodes) {
    for (std::size_t wi = 0; wi < node.weights.size(); ++wi) {
      if (node.type == OpType::kBatchNorm && wi >= 2) continue;
      Tensor& w = node.weights[wi];
      if (w.dtype() != DType::kF32 || w.num_elements() == 0) continue;
      const std::int64_t checks = every_weight ? w.num_elements() : 3;
      for (std::int64_t s = 0; s < checks; ++s) {
        const std::int64_t idx =
            every_weight ? s
                         : pick.next_below(
                               static_cast<std::uint32_t>(w.num_elements()));
        float* pw = w.data<float>();
        const float eps = 5e-3f;
        const float original = pw[idx];
        pw[idx] = original + eps;
        double up = loss_at(trainer, inputs, logits, label);
        pw[idx] = original - eps;
        double down = loss_at(trainer, inputs, logits, label);
        pw[idx] = original;
        double numeric = (up - down) / (2.0 * eps);
        double analytic = trainer.weight_grad(node.id, wi).data<float>()[idx];
        if (std::abs(numeric) < abs_tol && std::abs(analytic) < abs_tol) {
          continue;  // both ~zero
        }
        double denom = std::max(std::abs(numeric), std::abs(analytic));
        EXPECT_LT(std::abs(numeric - analytic) / denom, rel_tol)
            << node.name << " weight " << wi << " idx " << idx << " numeric "
            << numeric << " analytic " << analytic;
      }
    }
  }
}

TEST(TrainerGrad, FullyConnectedExactGradient) {
  // 1 input, 2 outputs: loss = xent(softmax(Wx+b), label 0)
  Pcg32 rng(1);
  GraphBuilder b("fc", &rng);
  int x = b.input(Shape{1, 2});
  int logits = b.fully_connected(x, 2, Activation::kNone, "logits");
  Graph m = b.finish({logits});
  // Set known weights.
  Node& fc = m.node(logits);
  float* w = fc.weights[0].data<float>();
  w[0] = 0.5f; w[1] = -0.25f; w[2] = 0.1f; w[3] = 0.3f;
  fc.weights[1].data<float>()[0] = 0.0f;
  fc.weights[1].data<float>()[1] = 0.0f;

  TrainConfig cfg;
  Trainer trainer(&m, cfg);
  Tensor input = Tensor::f32(Shape{1, 2}, {1.0f, 2.0f});

  // Numeric gradient for w[0].
  auto loss_fn = [&]() { return loss_at(trainer, {input}, logits, 0); };
  const float eps = 1e-3f;
  w[0] += eps;
  double up = loss_fn();
  w[0] -= 2 * eps;
  double down = loss_fn();
  w[0] += eps;
  double numeric = (up - down) / (2 * eps);

  // Analytic: dL/dlogit = p - onehot; dL/dw00 = (p0 - 1) * x0.
  trainer.forward({input});
  const float* lg = trainer.activation(logits).data<float>();
  double z0 = lg[0], z1 = lg[1];
  double p0 = std::exp(z0) / (std::exp(z0) + std::exp(z1));
  double analytic = (p0 - 1.0) * 1.0;
  EXPECT_NEAR(numeric, analytic, 1e-3);
}

TEST(TrainerGrad, DescentOnConvBnReluSeNetwork) {
  Pcg32 rng(2);
  GraphBuilder b("gcheck_a", &rng);
  int x = b.input(Shape{1, 6, 6, 3});
  int p = b.pad(x, 0, 1, 0, 1, "pad");
  int c = b.conv2d(p, 4, 3, 3, 2, Padding::kValid, Activation::kNone, "c1");
  c = b.batch_norm(c, "bn1");
  c = b.relu6(c, "r1");
  c = b.depthwise_conv2d(c, 3, 3, 1, Padding::kSame, Activation::kNone, "dw");
  c = b.batch_norm(c, "bn2");
  c = b.hardswish(c, "hs");
  // squeeze-excite
  int pool = b.avg_pool(c, 3, 1, Padding::kValid, "se_pool");
  int sq = b.conv2d(pool, 2, 1, 1, 1, Padding::kSame, Activation::kNone, "se_r");
  sq = b.relu(sq, "se_relu");
  int ex = b.conv2d(sq, 4, 1, 1, 1, Padding::kSame, Activation::kNone, "se_e");
  ex = b.sigmoid(ex, "se_gate");
  c = b.mul(c, ex, "se_scale");
  int g = b.mean(c, "gap");
  int logits = b.fully_connected(g, 3, Activation::kNone, "logits");
  Graph m = b.finish({logits});

  Pcg32 drng(3);
  Tensor input = random_input(Shape{1, 6, 6, 3}, drng, -1.0f, 1.0f);
  grad_check(&m, logits, {input}, 1);
}

TEST(TrainerGrad, DescentOnConcatPoolUpsampleNetwork) {
  Pcg32 rng(4);
  GraphBuilder b("gcheck_b", &rng);
  int x = b.input(Shape{1, 4, 4, 2});
  int a = b.conv2d(x, 2, 1, 1, 1, Padding::kSame, Activation::kNone, "a");
  int c = b.conv2d(x, 2, 3, 3, 1, Padding::kSame, Activation::kNone, "c");
  int cat = b.concat({a, c}, "cat");
  int res = b.conv2d(x, 4, 1, 1, 1, Padding::kSame, Activation::kNone, "res");
  int sum = b.add(cat, res, Activation::kNone, "add");
  int mp = b.max_pool(sum, 2, 2, Padding::kValid, "mp");
  int up = b.upsample_nearest_2x(mp, "up");
  int g = b.mean(up, "gap");
  int logits = b.fully_connected(g, 2, Activation::kNone, "logits");
  Graph m = b.finish({logits});
  Pcg32 drng(5);
  Tensor input = random_input(Shape{1, 4, 4, 2}, drng, -1.0f, 1.0f);
  grad_check(&m, logits, {input}, 0);
}

// Windows clipped on every border, through every rewritten backward pass:
// on a 9x9 input, the stride-1 SAME conv and each stride-2 SAME window
// (depthwise 9 -> 5, average pool 5 -> 3, max pool 3 -> 2) pads its first
// and last output row and column, so their taps and the average pool's
// in-bounds counts all differ from an unclipped window's. Checked at every
// weight, not a sample.
TEST(TrainerGrad, ClippedWindowsAtEveryWeight) {
  Pcg32 rng(8);
  GraphBuilder b("gcheck_clip", &rng);
  int x = b.input(Shape{1, 9, 9, 2});
  int c = b.conv2d(x, 3, 3, 3, 1, Padding::kSame, Activation::kNone, "conv");
  c = b.depthwise_conv2d(c, 3, 3, 2, Padding::kSame, Activation::kNone, "dw");
  c = b.avg_pool(c, 3, 2, Padding::kSame, "avg");
  c = b.max_pool(c, 3, 2, Padding::kSame, "max");
  int g = b.mean(c, "gap");
  int logits = b.fully_connected(g, 3, Activation::kNone, "logits");
  Graph m = b.finish({logits});
  ASSERT_EQ(m.node(c).output_shape, (Shape{1, 2, 2, 3}));

  Pcg32 drng(9);
  Tensor input = random_input(Shape{1, 9, 9, 2}, drng, -1.0f, 1.0f);
  grad_check(&m, logits, {input}, 2, /*every_weight=*/true);
}

TEST(TrainerGrad, EmbeddingGradient) {
  Pcg32 rng(6);
  GraphBuilder b("emb", &rng);
  int ids = b.input(Shape{1, 4}, DType::kI32, "tokens");
  int e = b.embedding(ids, 8, 4, "embedding");
  int g = b.mean(e, "pool");
  int logits = b.fully_connected(g, 2, Activation::kNone, "logits");
  Graph m = b.finish({logits});
  Tensor tokens = Tensor::i32(Shape{1, 4});
  tokens.data<std::int32_t>()[0] = 1;
  tokens.data<std::int32_t>()[1] = 3;
  tokens.data<std::int32_t>()[2] = 3;
  tokens.data<std::int32_t>()[3] = 7;
  grad_check(&m, logits, {tokens}, 1);
}

TEST(Trainer, RejectsFusedActivations) {
  Pcg32 rng(7);
  GraphBuilder b("fused", &rng);
  int x = b.input(Shape{1, 4, 4, 2});
  b.conv2d(x, 2, 3, 3, 1, Padding::kSame, Activation::kRelu, "c");
  Graph m = b.finish({1});
  TrainConfig cfg;
  EXPECT_THROW(Trainer(&m, cfg), MlxError);
}

TEST(Training, LearnsStripeOrientation) {
  // Two-class toy task with a *structural* signal (horizontal vs vertical
  // stripes). Note: per-sample training BatchNorm normalizes away purely
  // global signals like brightness, so class evidence must be spatial —
  // the same constraint the synthetic datasets are designed around.
  Pcg32 rng(8);
  GraphBuilder b("toy", &rng);
  int x = b.input(Shape{1, 8, 8, 1});
  int c = b.conv2d(x, 4, 3, 3, 2, Padding::kSame, Activation::kNone, "c1");
  c = b.batch_norm(c, "bn");
  c = b.relu(c, "r");
  int g = b.mean(c, "gap");
  int logits = b.fully_connected(g, 2, Activation::kNone, "logits");
  int prob = b.softmax(logits, "prob");
  Graph m = b.finish({prob});

  Pcg32 drng(9);
  std::vector<LabeledExample> train_set;
  for (int i = 0; i < 60; ++i) {
    int label = i % 2;
    int phase = static_cast<int>(drng.next_below(4));
    Tensor img = Tensor::f32(Shape{1, 8, 8, 1});
    float* p = img.data<float>();
    for (int y = 0; y < 8; ++y) {
      for (int xx = 0; xx < 8; ++xx) {
        int t = label == 1 ? y : xx;
        float v = ((t + phase) / 2) % 2 == 0 ? 0.8f : -0.8f;
        p[y * 8 + xx] = v + drng.uniform(-0.2f, 0.2f);
      }
    }
    train_set.push_back({std::move(img), label});
  }
  FitConfig cfg;
  cfg.epochs = 25;
  cfg.batch_size = 8;
  cfg.train.learning_rate = 1e-2f;
  fit_classifier(&m, logits, train_set, cfg);
  RefOpResolver ref;
  double acc = evaluate_classifier(m, ref, train_set);
  EXPECT_GT(acc, 0.9);
}

TEST(Trainer, StepWithoutGradThrows) {
  Pcg32 rng(10);
  GraphBuilder b("s", &rng);
  int x = b.input(Shape{1, 2});
  int logits = b.fully_connected(x, 2, Activation::kNone, "logits");
  Graph m = b.finish({logits});
  TrainConfig cfg;
  Trainer t(&m, cfg);
  EXPECT_THROW(t.step(), MlxError);
}

TEST(Trainer, CopyWeightsTransfersValues) {
  Pcg32 rng(11);
  GraphBuilder b1("m1", &rng);
  int x1 = b1.input(Shape{1, 2});
  b1.fully_connected(x1, 2, Activation::kNone, "fc");
  Graph a = b1.finish({1});
  Pcg32 rng2(99);
  GraphBuilder b2("m2", &rng2);
  int x2 = b2.input(Shape{1, 2});
  b2.fully_connected(x2, 2, Activation::kNone, "fc");
  Graph c = b2.finish({1});
  copy_weights(a, &c);
  EXPECT_TRUE(same_bytes(a.node(1).weights[0], c.node(1).weights[0]));
}

TEST(Losses, SoftmaxXentRowsIgnoresNegativeLabels) {
  Tensor logits = Tensor::f32(Shape{2, 3}, {1, 2, 3, 1, 2, 3});
  LossGrad lg = softmax_cross_entropy_rows(logits, {-1, 2});
  const float* g = lg.grad.data<float>();
  EXPECT_EQ(g[0], 0.0f);
  EXPECT_EQ(g[1], 0.0f);
  EXPECT_EQ(g[2], 0.0f);
  EXPECT_NE(g[5], 0.0f);
  EXPECT_GT(lg.loss, 0.0);
}

TEST(Losses, SmoothL1MaskedRows) {
  Tensor pred = Tensor::f32(Shape{2, 4}, {0, 0, 0, 0, 3, 0, 0, 0});
  Tensor target = Tensor::f32(Shape{2, 4}, {0, 0, 0, 0, 0, 0, 0, 0});
  LossGrad lg = smooth_l1_rows(pred, target, {false, true});
  EXPECT_NEAR(lg.loss, 3.0 - 0.5, 1e-6);  // |3| > 1 -> linear region
  EXPECT_EQ(lg.grad.data<float>()[0], 0.0f);
  EXPECT_EQ(lg.grad.data<float>()[4], 1.0f);
}

TEST(Losses, MseLossAndGrad) {
  Tensor pred = Tensor::f32(Shape{2}, {1.0f, 3.0f});
  Tensor target = Tensor::f32(Shape{2}, {0.0f, 3.0f});
  LossGrad lg = mse_loss(pred, target);
  EXPECT_NEAR(lg.loss, 0.5, 1e-6);
  EXPECT_NEAR(lg.grad.data<float>()[0], 1.0, 1e-6);
}

}  // namespace
}  // namespace mlexray
