#include "src/models/detection.h"

#include <cmath>
#include <numeric>

#include "src/train/trainer.h"

namespace mlexray {

namespace {

InputSpec det_spec() {
  InputSpec spec;
  spec.height = 32;
  spec.width = 32;
  spec.channels = 3;
  spec.channel_order = ChannelOrder::kRGB;
  spec.resize = ResizeMethod::kAreaAverage;
  spec.range_lo = -1.0f;
  spec.range_hi = 1.0f;
  return spec;
}

int conv_bn_relu(GraphBuilder& b, int in, int ch, int k, int stride,
                 const std::string& prefix) {
  int x = b.conv2d(in, ch, k, k, stride, Padding::kSame, Activation::kNone,
                   prefix + "_conv");
  x = b.batch_norm(x, prefix + "_bn");
  return b.relu(x, prefix + "_relu");
}

}  // namespace

SsdModel build_ssd_mini(const std::string& backbone, std::uint64_t seed,
                        int batch) {
  Pcg32 rng(seed);
  SsdModel ssd;
  GraphBuilder b("ssd_" + backbone + "_mini", &rng);
  int x = b.input(Shape{batch, 32, 32, 3});
  int feat8 = -1;
  if (backbone == "mobilenet") {
    x = conv_bn_relu(b, x, 16, 3, 2, "stem");                 // 16x16
    x = b.depthwise_conv2d(x, 3, 3, 2, Padding::kSame,
                           Activation::kNone, "b1_dw");       // 8x8
    x = b.batch_norm(x, "b1_dw_bn");
    x = b.relu(x, "b1_dw_relu");
    x = conv_bn_relu(b, x, 32, 1, 1, "b1_pw");
    x = b.depthwise_conv2d(x, 3, 3, 1, Padding::kSame,
                           Activation::kNone, "b2_dw");
    x = b.batch_norm(x, "b2_dw_bn");
    x = b.relu(x, "b2_dw_relu");
    feat8 = conv_bn_relu(b, x, 48, 1, 1, "b2_pw");            // 8x8 feature
  } else if (backbone == "resnet") {
    x = conv_bn_relu(b, x, 16, 3, 2, "stem");                 // 16x16
    int skip = conv_bn_relu(b, x, 32, 3, 2, "r1a");           // 8x8
    int f = conv_bn_relu(b, skip, 32, 3, 1, "r1b");
    x = b.add(skip, f, Activation::kNone, "r1_add");
    feat8 = conv_bn_relu(b, x, 48, 3, 1, "r2");               // 8x8 feature
  } else {
    MLX_FAIL() << "unknown ssd backbone '" << backbone << "'";
  }
  int feat4 = conv_bn_relu(b, feat8, 64, 3, 2, "down4");      // 4x4 feature

  const int head_ch = ssd.num_classes + 1;
  int cls8 = b.conv2d(feat8, head_ch, 3, 3, 1, Padding::kSame,
                      Activation::kNone, "cls8");
  int box8 = b.conv2d(feat8, 4, 3, 3, 1, Padding::kSame, Activation::kNone,
                      "box8");
  int cls4 = b.conv2d(feat4, head_ch, 3, 3, 1, Padding::kSame,
                      Activation::kNone, "cls4");
  int box4 = b.conv2d(feat4, 4, 3, 3, 1, Padding::kSame, Activation::kNone,
                      "box4");
  ssd.model = b.finish({cls8, box8, cls4, box4});
  ssd.model.input_spec = det_spec();
  return ssd;
}

std::vector<Anchor> ssd_anchors(const SsdModel& ssd) {
  std::vector<Anchor> anchors;
  for (std::size_t s = 0; s < ssd.grid_sizes.size(); ++s) {
    const int g = ssd.grid_sizes[s];
    const float size = ssd.anchor_sizes[s];
    for (int y = 0; y < g; ++y) {
      for (int x = 0; x < g; ++x) {
        anchors.push_back({(static_cast<float>(x) + 0.5f) / g,
                           (static_cast<float>(y) + 0.5f) / g, size});
      }
    }
  }
  return anchors;
}

SsdTargets encode_ssd_targets(const SsdModel& ssd,
                              const std::vector<DetObject>& objects,
                              float match_iou) {
  std::vector<Anchor> anchors = ssd_anchors(ssd);
  SsdTargets t;
  t.labels.assign(anchors.size(), 0);  // background
  t.positive.assign(anchors.size(), false);
  t.box_deltas.assign(anchors.size() * 4, 0.0f);
  for (const DetObject& obj : objects) {
    float best_iou = 0.0f;
    int best_anchor = -1;
    for (std::size_t a = 0; a < anchors.size(); ++a) {
      DetObject anchor_box{anchors[a].cx, anchors[a].cy, anchors[a].size,
                           anchors[a].size, obj.cls};
      float iou = box_iou(anchor_box, obj);
      if (iou > best_iou) {
        best_iou = iou;
        best_anchor = static_cast<int>(a);
      }
      if (iou >= match_iou) {
        t.labels[a] = obj.cls + 1;
        t.positive[a] = true;
        t.box_deltas[a * 4 + 0] = (obj.cx - anchors[a].cx) / anchors[a].size;
        t.box_deltas[a * 4 + 1] = (obj.cy - anchors[a].cy) / anchors[a].size;
        t.box_deltas[a * 4 + 2] = std::log(obj.w / anchors[a].size);
        t.box_deltas[a * 4 + 3] = std::log(obj.h / anchors[a].size);
      }
    }
    // Always claim the best anchor so every object has a positive.
    if (best_anchor >= 0) {
      const auto a = static_cast<std::size_t>(best_anchor);
      t.labels[a] = obj.cls + 1;
      t.positive[a] = true;
      t.box_deltas[a * 4 + 0] = (obj.cx - anchors[a].cx) / anchors[a].size;
      t.box_deltas[a * 4 + 1] = (obj.cy - anchors[a].cy) / anchors[a].size;
      t.box_deltas[a * 4 + 2] = std::log(obj.w / anchors[a].size);
      t.box_deltas[a * 4 + 3] = std::log(obj.h / anchors[a].size);
    }
  }
  return t;
}

void train_ssd(SsdModel* ssd, const std::vector<DetExample>& train_set,
               int epochs, std::uint64_t seed) {
  TrainConfig tc;
  tc.learning_rate = 2e-3f;
  tc.num_threads = 2;
  Trainer trainer(&ssd->model, tc);
  Pcg32 rng(seed);
  ImagePipelineConfig pipeline{ssd->model.input_spec, PreprocBug::kNone};

  const std::vector<int>& outs = ssd->model.outputs;  // cls8 box8 cls4 box4
  const int cells8 = ssd->grid_sizes[0] * ssd->grid_sizes[0];
  const int cells4 = ssd->grid_sizes[1] * ssd->grid_sizes[1];
  const auto batch = static_cast<std::size_t>(
      ssd->model.node(ssd->model.input_ids()[0]).output_shape.dim(0));

  std::vector<std::size_t> order(train_set.size());
  std::iota(order.begin(), order.end(), 0);
  for (int epoch = 0; epoch < epochs; ++epoch) {
    rng.shuffle(order);
    const std::size_t batches = (order.size() + batch - 1) / batch;
    for (std::size_t bi = 0; bi < batches; ++bi) {
      // Pack the batch input and per-anchor targets (batch-major rows).
      Tensor packed(DType::kF32, ssd->model.node(0).output_shape);
      auto* dst = static_cast<std::uint8_t*>(packed.raw_data());
      std::vector<SsdTargets> targets;
      for (std::size_t k = 0; k < batch; ++k) {
        const DetExample& ex = train_set[order[(bi * batch + k) % order.size()]];
        Tensor input = run_image_pipeline(ex.image_u8, pipeline);
        std::memcpy(dst + k * input.byte_size(), input.raw_data(),
                    input.byte_size());
        targets.push_back(encode_ssd_targets(*ssd, ex.objects));
      }
      // Hard-negative subsampling per image: all positives, ~3x negatives.
      for (SsdTargets& t : targets) {
        int positives = 0;
        for (bool p : t.positive) positives += p ? 1 : 0;
        int keep = std::max(4, positives * 3);
        for (std::size_t a = 0; a < t.labels.size(); ++a) {
          if (t.labels[a] != 0) continue;
          if (rng.next_below(static_cast<std::uint32_t>(t.labels.size())) <
              static_cast<std::uint32_t>(keep)) {
            --keep;
          } else {
            t.labels[a] = -1;  // ignored row
          }
        }
      }
      trainer.zero_grad();
      trainer.forward({packed});
      std::vector<std::pair<int, Tensor>> seeds;
      int offset = 0;
      for (int scale = 0; scale < 2; ++scale) {
        const int cells = scale == 0 ? cells8 : cells4;
        const Tensor& cls_out =
            trainer.activation(outs[static_cast<std::size_t>(scale * 2)]);
        const Tensor& box_out =
            trainer.activation(outs[static_cast<std::size_t>(scale * 2 + 1)]);
        std::vector<int> labels;
        std::vector<bool> pos;
        Tensor box_target = Tensor::f32(box_out.shape());
        float* bt = box_target.data<float>();
        for (std::size_t k = 0; k < batch; ++k) {
          const SsdTargets& t = targets[k];
          labels.insert(labels.end(), t.labels.begin() + offset,
                        t.labels.begin() + offset + cells);
          pos.insert(pos.end(), t.positive.begin() + offset,
                     t.positive.begin() + offset + cells);
          std::memcpy(bt + (k * cells) * 4,
                      t.box_deltas.data() + static_cast<std::size_t>(offset) * 4,
                      static_cast<std::size_t>(cells) * 4 * sizeof(float));
        }
        LossGrad cls_lg = softmax_cross_entropy_rows(cls_out, labels);
        seeds.emplace_back(outs[static_cast<std::size_t>(scale * 2)],
                           std::move(cls_lg.grad));
        LossGrad box_lg = smooth_l1_rows(box_out, box_target, pos, 1.0);
        seeds.emplace_back(outs[static_cast<std::size_t>(scale * 2 + 1)],
                           std::move(box_lg.grad));
        offset += cells;
      }
      trainer.backward(seeds);
      trainer.step();
    }
  }
}

std::vector<DetPrediction> ssd_predict(const SsdModel& ssd, Session& session,
                                       const Tensor& input) {
  session.set_input(0, input);
  session.invoke();
  std::vector<Anchor> anchors = ssd_anchors(ssd);
  std::vector<DetPrediction> raw;
  int offset = 0;
  for (int scale = 0; scale < 2; ++scale) {
    Tensor cls = session.output(scale * 2).to_f32();
    Tensor box = session.output(scale * 2 + 1).to_f32();
    const int cells = ssd.grid_sizes[static_cast<std::size_t>(scale)] *
                      ssd.grid_sizes[static_cast<std::size_t>(scale)];
    const int head_ch = ssd.num_classes + 1;
    const float* pc = cls.data<float>();
    const float* pb = box.data<float>();
    for (int cell = 0; cell < cells; ++cell) {
      const float* logits = pc + static_cast<std::int64_t>(cell) * head_ch;
      // Softmax over classes+background.
      float max_v = logits[0];
      for (int c = 1; c < head_ch; ++c) max_v = std::max(max_v, logits[c]);
      float sum = 0.0f;
      for (int c = 0; c < head_ch; ++c) sum += std::exp(logits[c] - max_v);
      int best = 0;
      for (int c = 1; c < head_ch; ++c) {
        if (logits[c] > logits[best]) best = c;
      }
      if (best == 0) continue;  // background
      const Anchor& a = anchors[static_cast<std::size_t>(offset + cell)];
      DetPrediction p;
      p.cls = best - 1;
      p.score = std::exp(logits[best] - max_v) / sum;
      p.cx = a.cx + pb[cell * 4 + 0] * a.size;
      p.cy = a.cy + pb[cell * 4 + 1] * a.size;
      p.w = a.size * std::exp(pb[cell * 4 + 2]);
      p.h = a.size * std::exp(pb[cell * 4 + 3]);
      raw.push_back(p);
    }
    offset += cells;
  }
  return non_max_suppression(std::move(raw));
}

double evaluate_ssd_map(const SsdModel& ssd, const Graph& deployed,
                        const OpResolver& resolver,
                        const std::vector<DetExample>& examples,
                        const ImagePipelineConfig& pipeline) {
  Model model(&deployed, &resolver);
  Session session(&model);
  std::vector<std::vector<DetPrediction>> predictions;
  predictions.reserve(examples.size());
  for (const DetExample& ex : examples) {
    Tensor input = run_image_pipeline(ex.image_u8, pipeline);
    predictions.push_back(ssd_predict(ssd, session, input));
  }
  return mean_average_precision(predictions, examples, ssd.num_classes);
}

}  // namespace mlexray
