// Deployment validation (paper §3.4 / Fig 2): accuracy check, per-layer
// drift localisation, per-layer latency analysis, and an extensible
// assertion engine for root-cause analysis.
#pragma once

#include <functional>

#include "src/core/trace.h"
#include "src/drift/per_layer_report.h"

namespace mlexray {

// Layer-drift metric: kNormalizedRmse is the paper's rMSE-hat; kLinf is the
// largest element difference, for exact (threshold 0) localization.
enum class ErrorMetric { kNormalizedRmse, kLinf };

struct AccuracyReport {
  double edge_accuracy = 0.0;
  double reference_accuracy = 0.0;
  double drop = 0.0;           // reference - edge
  bool degraded = false;       // drop > tolerance
};

struct LayerLatency {
  std::string layer;
  double mean_ms = 0.0;
  bool straggler = false;  // far above the per-layer median
};

struct LatencyReport {
  std::vector<LayerLatency> layers;
  double total_ms = 0.0;
  double median_ms = 0.0;
};

struct AssertionResult {
  std::string name;
  bool triggered = false;  // true => a problem was detected
  std::string message;
};

// Assertion functions inspect the edge and reference traces (paper §3.2's
// "arbitrary function that can indicate whether a bug exists").
using AssertionFn =
    std::function<AssertionResult(const Trace& edge, const Trace& reference)>;

class DeploymentValidator {
 public:
  // Step 1 of the Fig-2 flow: accuracy match between pipelines.
  AccuracyReport validate_accuracy(const Trace& edge, const Trace& reference,
                                   const std::vector<int>& labels,
                                   double tolerance = 0.02) const;

  // Step 2: per-layer output drift, aligned by layer name (layers present in
  // both traces; extra Quantize/Dequantize layers are skipped naturally).
  // Each layer's error is the metric averaged over every frame. Every frame
  // must carry its trace's frame-0 layer layout; a ragged trace throws
  // MlxError naming the frame. The digest-only counterpart is a one-device
  // DriftAggregator report (src/drift/aggregator.h).
  PerLayerReport per_layer_drift(const Trace& edge, const Trace& reference,
                                 ErrorMetric metric = ErrorMetric::kNormalizedRmse,
                                 double threshold = 0.1) const;

  // Latency analysis on one trace: per-layer means + straggler flags. The
  // trace must carry per-layer latency in every frame, in frame 0's layer
  // layout; otherwise it throws MlxError naming the frame.
  LatencyReport per_layer_latency(const Trace& trace,
                                  double straggler_factor = 8.0) const;

  // Step 3: root-cause assertions (built-ins + user-registered).
  void add_assertion(const std::string& name, AssertionFn fn);
  std::vector<AssertionResult> run_assertions(const Trace& edge,
                                              const Trace& reference) const;

  // Renders the full Fig-2 style report.
  std::string report(const AccuracyReport& accuracy,
                     const PerLayerReport& layers,
                     const std::vector<AssertionResult>& assertions) const;

 private:
  std::vector<std::pair<std::string, AssertionFn>> assertions_;
};

}  // namespace mlexray
