// The per-layer verdict (paper §3.4, Fig 2 step 2, Fig 6): one row per layer
// in execution order, and the first layer whose drift exceeds the threshold
// localizes the bug. The offline validator
// (DeploymentValidator::per_layer_drift), the Engine canary (CanaryReport)
// and the fleet aggregator (FleetDeviceDrift) all report in this one shape,
// and PerLayerReport::add is the one place the suspect rule lives.
//
// Deliberately free of src/core/ includes: src/interpreter/engine.h reaches
// this header through src/drift/canary.h, and core depends on interpreter,
// never the reverse.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace mlexray {

struct LayerDrift {
  std::string layer;
  double error = 0.0;         // mean drift over the compared frames
  bool suspect = false;       // compared at least once and above threshold
  std::uint64_t samples = 0;  // frames compared at this layer
};

struct PerLayerReport {
  std::vector<LayerDrift> drifts;  // in execution order
  std::optional<std::string> first_suspect;
  double threshold = 0.0;

  // Appends the next layer in execution order and applies the suspect rule:
  // a layer compared at least once whose error exceeds the threshold is a
  // suspect, and the first suspect is the localization.
  void add(std::string layer, double error, std::uint64_t samples) {
    const bool suspect = samples > 0 && error > threshold;
    if (suspect && !first_suspect.has_value()) first_suspect = layer;
    drifts.push_back({std::move(layer), error, suspect, samples});
  }
};

}  // namespace mlexray
