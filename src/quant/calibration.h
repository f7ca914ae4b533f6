// Post-training-quantization calibration: per-node activation ranges
// profiled over a representative dataset.
//
// Implements the three strategies discussed in the paper's §2 scale-
// calibration pitfalls: absolute min/max (outliers inflate the scale),
// moving average of per-batch extremes, and percentile (clips outliers).
// The quantization ablation bench sweeps these against each other.
#pragma once

#include <vector>

#include "src/interpreter/invoke_observer.h"
#include "src/interpreter/session.h"

namespace mlexray {

struct CalibrationOptions {
  enum class Method { kMinMax, kMovingAverage, kPercentile };
  Method method = Method::kMinMax;
  double percentile = 99.5;  // for kPercentile (per-sample extremes)
};

// The Calibrator observes its own session: each f32 layer's extremes are
// read in on_step, while the activation block still holds the layer.
class Calibrator : private InvokeObserver {
 public:
  // model must be a converted float inference model and outlive this object.
  Calibrator(const Graph* model, CalibrationOptions options = {});

  // Runs one representative sample through the float model and records
  // every node's output extremes: each graph input's from the tensor handed
  // in (of any dtype), each f32 layer's as its step runs. They join the
  // ranges only once the invoke has finished; if it throws, the ranges stay
  // as the last whole sample left them (the session is then poisoned, so
  // later observe() calls throw too).
  void observe(const std::vector<Tensor>& inputs);

  struct Range {
    float min = 0.0f;
    float max = 0.0f;
  };

  // Finalized range for a node under the configured method.
  Range range(int node_id) const;

 private:
  // One node's extremes in the sample being observed.
  struct Extremes {
    std::size_t node;
    float min;
    float max;
  };

  void on_step(const Node& node, const Tensor& output,
               double latency_ms) override;
  // Summarizes a node's output into the staged sample.
  void stage(int node_id, const Tensor& value);
  // Folds one staged node into its running ranges.
  void fold(const Extremes& e);

  CalibrationOptions options_;
  RefOpResolver resolver_;  // calibration uses reference float kernels
  Model model_;             // non-owning view of the caller's Graph
  Session session_;
  // Per node: per-sample extremes (percentile), running EMA, global min/max.
  std::vector<std::vector<float>> sample_mins_;
  std::vector<std::vector<float>> sample_maxs_;
  std::vector<float> ema_min_;
  std::vector<float> ema_max_;
  std::vector<float> global_min_;
  std::vector<float> global_max_;
  std::vector<Extremes> staged_;  // the sample in flight, in capture order
  int samples_ = 0;
};

}  // namespace mlexray
