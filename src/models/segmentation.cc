#include "src/models/segmentation.h"

#include <cstring>
#include <numeric>

#include "src/train/trainer.h"

namespace mlexray {

ZooModel build_deeplab_mini(std::uint64_t seed, int batch) {
  Pcg32 rng(seed);
  GraphBuilder b("deeplab_mini", &rng);
  int x = b.input(Shape{batch, 32, 32, 3});
  int e1 = b.conv2d(x, 16, 3, 3, 2, Padding::kSame, Activation::kNone, "enc1");
  e1 = b.batch_norm(e1, "enc1_bn");
  e1 = b.relu(e1, "enc1_relu");                       // 16x16
  int e2 = b.conv2d(e1, 32, 3, 3, 2, Padding::kSame, Activation::kNone, "enc2");
  e2 = b.batch_norm(e2, "enc2_bn");
  e2 = b.relu(e2, "enc2_relu");                       // 8x8
  int m = b.conv2d(e2, 32, 3, 3, 1, Padding::kSame, Activation::kNone, "mid");
  m = b.batch_norm(m, "mid_bn");
  m = b.relu(m, "mid_relu");
  int u1 = b.upsample_nearest_2x(m, "up1");           // 16x16
  u1 = b.conv2d(u1, 16, 3, 3, 1, Padding::kSame, Activation::kNone, "dec1");
  u1 = b.batch_norm(u1, "dec1_bn");
  u1 = b.relu(u1, "dec1_relu");
  u1 = b.add(u1, e1, Activation::kNone, "skip1");     // encoder skip
  int u2 = b.upsample_nearest_2x(u1, "up2");          // 32x32
  u2 = b.conv2d(u2, 16, 3, 3, 1, Padding::kSame, Activation::kNone, "dec2");
  u2 = b.batch_norm(u2, "dec2_bn");
  u2 = b.relu(u2, "dec2_relu");
  int logits = b.conv2d(u2, SynthSeg::kClasses, 1, 1, 1, Padding::kSame,
                        Activation::kNone, "logits");
  int prob = b.softmax(logits, "prob");
  ZooModel zm{b.finish({prob}), logits};
  InputSpec spec;
  spec.height = 32;
  spec.width = 32;
  spec.channels = 3;
  spec.range_lo = -1.0f;
  spec.range_hi = 1.0f;
  zm.model.input_spec = spec;
  return zm;
}

void train_deeplab(ZooModel* zm, const std::vector<SegExample>& train_set,
                   int epochs, std::uint64_t seed) {
  TrainConfig tc;
  tc.learning_rate = 2e-3f;
  tc.num_threads = 2;
  Trainer trainer(&zm->model, tc);
  Pcg32 rng(seed);
  ImagePipelineConfig pipeline{zm->model.input_spec, PreprocBug::kNone};
  const auto batch = static_cast<std::size_t>(
      zm->model.node(zm->model.input_ids()[0]).output_shape.dim(0));
  std::vector<std::size_t> order(train_set.size());
  std::iota(order.begin(), order.end(), 0);
  for (int epoch = 0; epoch < epochs; ++epoch) {
    rng.shuffle(order);
    const std::size_t batches = (order.size() + batch - 1) / batch;
    for (std::size_t bi = 0; bi < batches; ++bi) {
      Tensor packed(DType::kF32, zm->model.node(0).output_shape);
      auto* dst = static_cast<std::uint8_t*>(packed.raw_data());
      std::vector<int> labels;
      for (std::size_t k = 0; k < batch; ++k) {
        const SegExample& ex = train_set[order[(bi * batch + k) % order.size()]];
        Tensor input = run_image_pipeline(ex.image_u8, pipeline);
        std::memcpy(dst + k * input.byte_size(), input.raw_data(),
                    input.byte_size());
        const std::int32_t* gt = ex.mask.data<std::int32_t>();
        for (std::int64_t i = 0; i < ex.mask.num_elements(); ++i) {
          labels.push_back(gt[i]);
        }
      }
      trainer.zero_grad();
      trainer.forward({packed});
      LossGrad lg =
          softmax_cross_entropy_rows(trainer.activation(zm->logits_id), labels);
      std::vector<std::pair<int, Tensor>> seeds;
      seeds.emplace_back(zm->logits_id, std::move(lg.grad));
      trainer.backward(seeds);
      trainer.step();
    }
  }
}

Tensor predict_mask(Session& session, const Tensor& input) {
  session.set_input(0, input);
  session.invoke();
  Tensor prob = session.output(0).to_f32();
  const Shape& s = prob.shape();
  const std::int64_t classes = s.dim(3);
  const std::int64_t pixels = s.dim(1) * s.dim(2);
  Tensor mask = Tensor::i32(Shape{s.dim(1), s.dim(2)});
  const float* p = prob.data<float>();
  std::int32_t* m = mask.data<std::int32_t>();
  for (std::int64_t px = 0; px < pixels; ++px) {
    int best = 0;
    for (std::int64_t c = 1; c < classes; ++c) {
      if (p[px * classes + c] > p[px * classes + best]) best = static_cast<int>(c);
    }
    m[px] = best;
  }
  return mask;
}

double evaluate_deeplab_miou(const Graph& deployed, const OpResolver& resolver,
                             const std::vector<SegExample>& examples,
                             const ImagePipelineConfig& pipeline) {
  Model model(&deployed, &resolver);
  Session session(&model);
  std::vector<Tensor> predictions;
  predictions.reserve(examples.size());
  for (const SegExample& ex : examples) {
    Tensor input = run_image_pipeline(ex.image_u8, pipeline);
    predictions.push_back(predict_mask(session, input));
  }
  return SynthSeg::mean_iou(predictions, examples);
}

}  // namespace mlexray
