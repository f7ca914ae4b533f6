#include "src/quant/calibration.h"

#include <algorithm>
#include <cmath>

#include "src/tensor/tensor_stats.h"

namespace mlexray {
namespace {
// Weight of the running extremes in kMovingAverage's per-sample update.
constexpr float kEmaMomentum = 0.9f;
}  // namespace

Calibrator::Calibrator(const Graph* model, CalibrationOptions options)
    : options_(options),
      model_(model, &resolver_),
      session_(&model_, Retention::kPreserveAll) {
  const std::size_t n = model->nodes.size();
  sample_mins_.resize(n);
  sample_maxs_.resize(n);
  ema_min_.assign(n, 0.0f);
  ema_max_.assign(n, 0.0f);
  global_min_.assign(n, 3.4e38f);
  global_max_.assign(n, -3.4e38f);
}

void Calibrator::observe(const std::vector<Tensor>& inputs) {
  MLX_CHECK_EQ(inputs.size(), model_.input_ids().size())
      << "a calibration sample of model '" << model_.name()
      << "' holds one tensor per graph input";
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    session_.set_input(static_cast<int>(i), inputs[i]);
  }
  session_.invoke();
  for (const Node& n : model_.graph().nodes) {
    // Every node, each graph input included, reads its own slot.
    const Tensor& out = session_.node_output(n.id);
    if (out.dtype() != DType::kF32 && n.type != OpType::kInput) continue;
    TensorSummary s = summarize(out);
    const auto id = static_cast<std::size_t>(n.id);
    sample_mins_[id].push_back(s.min);
    sample_maxs_[id].push_back(s.max);
    global_min_[id] = std::min(global_min_[id], s.min);
    global_max_[id] = std::max(global_max_[id], s.max);
    if (samples_ == 0) {
      ema_min_[id] = s.min;
      ema_max_[id] = s.max;
    } else {
      const float m = kEmaMomentum;
      ema_min_[id] = m * ema_min_[id] + (1.0f - m) * s.min;
      ema_max_[id] = m * ema_max_[id] + (1.0f - m) * s.max;
    }
  }
  ++samples_;
}

Calibrator::Range Calibrator::range(int node_id) const {
  MLX_CHECK_GT(samples_, 0) << "no calibration samples observed";
  const auto id = static_cast<std::size_t>(node_id);
  Range r;
  switch (options_.method) {
    case CalibrationOptions::Method::kMinMax:
      r.min = global_min_[id];
      r.max = global_max_[id];
      break;
    case CalibrationOptions::Method::kMovingAverage:
      r.min = ema_min_[id];
      r.max = ema_max_[id];
      break;
    case CalibrationOptions::Method::kPercentile: {
      std::vector<float> mins = sample_mins_[id];
      std::vector<float> maxs = sample_maxs_[id];
      std::sort(mins.begin(), mins.end());
      std::sort(maxs.begin(), maxs.end());
      const double q = std::clamp(options_.percentile / 100.0, 0.0, 1.0);
      auto idx = static_cast<std::size_t>(
          std::floor(q * static_cast<double>(maxs.size() - 1)));
      r.max = maxs[idx];
      r.min = mins[maxs.size() - 1 - idx];
      break;
    }
  }
  // Quantization needs a range spanning zero (TFLite requirement) and a
  // non-degenerate width.
  r.min = std::min(r.min, 0.0f);
  r.max = std::max(r.max, 0.0f);
  if (r.max - r.min < 1e-6f) r.max = r.min + 1e-6f;
  return r;
}

}  // namespace mlexray
