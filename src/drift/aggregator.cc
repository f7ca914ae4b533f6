#include "src/drift/aggregator.h"

#include <algorithm>
#include <sstream>

#include "src/drift/digest.h"

namespace mlexray {

namespace {

// Nearest-rank quantile over an already-sorted sample.
double sorted_quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

}  // namespace

std::vector<LayerDigest> digest_layer_outputs(const FrameTrace& frame) {
  std::vector<LayerDigest> digests(frame.layer_outputs.size());
  for (std::size_t i = 0; i < digests.size(); ++i) {
    digests[i].accumulate(frame.layer_outputs[i]);
  }
  if (!digests.empty()) {
    MLX_CHECK_EQ(digests.size(), frame.layer_names.size())
        << "per-layer outputs out of step with their layer names";
  }
  return digests;
}

void merge_trace_digests(const Trace& trace,
                         std::map<std::string, LayerDigest>& layers,
                         std::vector<std::string>* order) {
  for (const FrameTrace& frame : trace.frames) {
    // Wire digests are read where they lie; only a raw-output frame builds
    // digests of its own.
    std::vector<LayerDigest> built;
    if (frame.layer_digests.empty()) {
      built = digest_layer_outputs(frame);
    } else {
      MLX_CHECK_EQ(frame.layer_digests.size(), frame.layer_names.size())
          << "digest frame out of step with its layer names";
    }
    const std::vector<LayerDigest>& digests =
        frame.layer_digests.empty() ? built : frame.layer_digests;
    if (order != nullptr && order->empty() && !digests.empty()) {
      *order = frame.layer_names;
    }
    for (std::size_t i = 0; i < digests.size(); ++i) {
      const auto [it, inserted] =
          layers.try_emplace(frame.layer_names[i], digests[i]);
      if (!inserted) it->second.merge(digests[i]);
    }
  }
}

void DriftAggregator::set_reference(const Trace& reference) {
  reference_order_.clear();
  reference_.clear();
  merge_trace_digests(reference, reference_, &reference_order_);
  MLX_CHECK(!reference_.empty())
      << "reference trace carries no per-layer digests or outputs";
}

void DriftAggregator::add_trace(const std::string& device_id,
                                const Trace& trace) {
  DeviceState& device = devices_[device_id];
  merge_trace_digests(trace, device.layers);
  device.frames += trace.frames.size();
  frames_ += trace.frames.size();
}

FleetReport DriftAggregator::report() const {
  MLX_CHECK(!reference_.empty()) << "set_reference before report";
  FleetReport report;
  report.devices = devices_.size();
  report.frames = frames_;
  report.threshold = threshold_;

  // The reference side of every comparison, once per report: each
  // reference layer's quantile curve and range, in execution order.
  struct ReferenceCurve {
    const std::string& layer;
    DriftCurve curve;
  };
  std::vector<ReferenceCurve> curves;
  curves.reserve(reference_order_.size());
  for (const std::string& layer : reference_order_) {
    const auto ref_it = reference_.find(layer);
    if (ref_it != reference_.end()) {
      curves.push_back({layer, drift_curve(ref_it->second)});
    }
  }

  // Per-device pass: drift of every covered layer, worst layer, and the
  // device's verdict in reference execution order.
  std::map<std::string, std::vector<double>> drift_by_layer;
  for (const auto& [device_id, device] : devices_) {
    FleetDeviceDrift row;
    row.device_id = device_id;
    row.frames = device.frames;
    row.drift.threshold = threshold_;
    for (const auto& [layer, curve] : curves) {
      const auto dev_it = device.layers.find(layer);
      if (dev_it == device.layers.end()) continue;
      const double drift = digest_drift(dev_it->second, curve);
      drift_by_layer[layer].push_back(drift);
      if (row.worst_layer.empty() || drift > row.max_drift) {
        row.max_drift = drift;
        row.worst_layer = layer;
      }
      row.drift.add(layer, drift, device.frames);
    }
    report.outliers.push_back(std::move(row));
  }
  std::stable_sort(report.outliers.begin(), report.outliers.end(),
                   [](const FleetDeviceDrift& a, const FleetDeviceDrift& b) {
                     return a.max_drift > b.max_drift;
                   });

  // Per-layer distribution across the fleet.
  for (const std::string& layer : reference_order_) {
    const auto it = drift_by_layer.find(layer);
    if (it == drift_by_layer.end()) continue;
    std::vector<double>& drifts = it->second;
    std::sort(drifts.begin(), drifts.end());
    FleetLayerDrift row;
    row.layer = layer;
    row.devices = drifts.size();
    row.min_drift = drifts.front();
    row.max_drift = drifts.back();
    row.p50_drift = sorted_quantile(drifts, 0.5);
    row.p90_drift = sorted_quantile(drifts, 0.9);
    row.suspect = row.p50_drift > threshold_;
    report.layers.push_back(std::move(row));
  }

  // Fleet verdict: the most common per-device first suspect (ties broken by
  // reference execution order, same as the offline report's bias toward the
  // earliest divergent layer).
  std::map<std::string, std::size_t> votes;
  for (const FleetDeviceDrift& device : report.outliers) {
    if (device.drift.first_suspect.has_value()) {
      ++votes[*device.drift.first_suspect];
    }
  }
  std::size_t best = 0;
  for (const std::string& layer : reference_order_) {
    const auto it = votes.find(layer);
    if (it != votes.end() && it->second > best) {
      best = it->second;
      report.first_suspect = layer;
    }
  }
  return report;
}

std::string render_fleet_report(const FleetReport& report,
                                std::size_t max_outliers) {
  std::ostringstream out;
  out << "fleet drift report: " << report.devices << " device(s), "
      << report.frames << " frame(s), threshold " << report.threshold << "\n";
  if (report.first_suspect.has_value()) {
    out << "fleet first suspect: " << *report.first_suspect << "\n";
  } else {
    out << "fleet first suspect: none\n";
  }
  out << "\nper-layer drift across devices (min/p50/p90/max):\n";
  for (const FleetLayerDrift& layer : report.layers) {
    out << "  " << (layer.suspect ? "[SUSPECT] " : "          ") << layer.layer
        << "  " << layer.min_drift << " / " << layer.p50_drift << " / "
        << layer.p90_drift << " / " << layer.max_drift << "  ("
        << layer.devices << " device(s))\n";
  }
  out << "\noutlier devices (worst first):\n";
  std::size_t shown = 0;
  for (const FleetDeviceDrift& device : report.outliers) {
    if (max_outliers != 0 && shown++ >= max_outliers) {
      out << "  ... " << (report.outliers.size() - max_outliers)
          << " more device(s)\n";
      break;
    }
    out << "  " << device.device_id << "  max drift " << device.max_drift
        << " at " << device.worst_layer;
    if (device.drift.first_suspect.has_value()) {
      out << ", first suspect " << *device.drift.first_suspect;
    }
    out << " (" << device.frames << " frame(s))\n";
  }
  return out.str();
}

}  // namespace mlexray
