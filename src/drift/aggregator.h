// DriftAggregator: fleet-scale merge of per-layer digest streams.
//
// The paper's validation compares exactly two traces. A fleet produces
// thousands: one .mlxtrace per device/session, each frame carrying per-layer
// digests (trace format v2) instead of raw tensors. The aggregator merges
// every device's digest stream — LayerDigest::merge is associative, so a
// device's frames collapse into one digest per layer, and shard merges equal
// a merge over the concatenated stream up to the sketch's rank-error bound —
// then scores each device's per-layer distributional drift against a
// reference trace and rolls the results up into a FleetReport:
//
//  - per-layer drift distribution across devices (min / p50 / p90 / max);
//  - outlier-device ranking by worst-layer drift;
//  - per-device and modal fleet-wide first-suspect localization (Fig-6
//    style, but over distributions instead of paired tensors). Each
//    device's verdict is a PerLayerReport, so a one-device aggregator is
//    the digest-only counterpart of DeploymentValidator::per_layer_drift.
//
// The reference may be a digest trace or a raw per-layer-output trace (the
// aggregator digests raw tensors on the fly), so a workstation-recorded
// reference run needs no special capture mode. `mlexray_cli fleet-report`
// is the command-line front end.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/core/trace.h"
#include "src/drift/per_layer_report.h"

namespace mlexray {

// Digests of one frame's raw layer outputs (aligned with layer_names; empty
// when the frame captured none). Also the bridge tests use to compare
// sketch-merged fleet stats against exact offline stats.
std::vector<LayerDigest> digest_layer_outputs(const FrameTrace& frame);

// Merges every frame's per-layer digests into `layers`, keyed by layer name:
// the wire digests where the frame carries them, read in place, else
// digest_layer_outputs of its raw outputs. When `order` is non-null and
// still empty, it takes the layer names of the first frame that has digests.
// The one digest merge behind DriftAggregator and `mlexray_cli trace-info`.
void merge_trace_digests(const Trace& trace,
                         std::map<std::string, LayerDigest>& layers,
                         std::vector<std::string>* order = nullptr);

struct FleetLayerDrift {
  std::string layer;
  std::size_t devices = 0;  // devices whose traces cover this layer
  double min_drift = 0.0;
  double p50_drift = 0.0;
  double p90_drift = 0.0;
  double max_drift = 0.0;
  bool suspect = false;  // p50 above threshold: a fleet-wide issue, not one
                         // bad device (those surface in the outlier ranking)
};

struct FleetDeviceDrift {
  std::string device_id;
  std::size_t frames = 0;
  double max_drift = 0.0;   // worst layer's drift
  std::string worst_layer;
  // The device's per-layer verdict in reference execution order: digest
  // drift per covered layer, samples = the device's frames.
  PerLayerReport drift;
};

struct FleetReport {
  std::size_t devices = 0;
  std::size_t frames = 0;  // across all devices
  double threshold = 0.0;
  std::vector<FleetLayerDrift> layers;     // reference execution order
  std::vector<FleetDeviceDrift> outliers;  // ranked worst-first
  // Most common per-device drift.first_suspect — the fleet's Fig-6 verdict.
  std::optional<std::string> first_suspect;
};

class DriftAggregator {
 public:
  // threshold: drift above which a layer is a suspect (same normalization as
  // the paper's rMSE-hat, so per_layer_drift thresholds carry over).
  explicit DriftAggregator(double threshold = 0.1)
      : threshold_(threshold) {}

  // The trusted baseline every device is scored against. Its frames' digests
  // merge into one reference digest per layer; layer order is taken from the
  // reference's first frame with digests. Must be called before report().
  void set_reference(const Trace& reference);

  // Folds one device's trace in: all frames' digests merge into the device's
  // running per-layer digest. Repeated calls with the same device_id keep
  // merging (a device may ship many spool files).
  void add_trace(const std::string& device_id, const Trace& trace);

  std::size_t device_count() const { return devices_.size(); }
  std::size_t frame_count() const { return frames_; }

  FleetReport report() const;

 private:
  struct DeviceState {
    std::size_t frames = 0;
    std::map<std::string, LayerDigest> layers;
  };

  double threshold_;
  std::vector<std::string> reference_order_;
  std::map<std::string, LayerDigest> reference_;
  std::map<std::string, DeviceState> devices_;
  std::size_t frames_ = 0;
};

// Renders the report as the CLI's fleet-report text (top `max_outliers`
// devices; 0 = all).
std::string render_fleet_report(const FleetReport& report,
                                std::size_t max_outliers = 10);

}  // namespace mlexray
