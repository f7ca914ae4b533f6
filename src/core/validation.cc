#include "src/core/validation.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "src/common/string_util.h"
#include "src/core/pipelines.h"
#include "src/tensor/tensor_stats.h"

namespace mlexray {

AccuracyReport DeploymentValidator::validate_accuracy(
    const Trace& edge, const Trace& reference, const std::vector<int>& labels,
    double tolerance) const {
  AccuracyReport r;
  r.edge_accuracy = trace_accuracy(edge, labels);
  r.reference_accuracy = trace_accuracy(reference, labels);
  r.drop = r.reference_accuracy - r.edge_accuracy;
  r.degraded = r.drop > tolerance;
  return r;
}

namespace {

// Every frame of `trace` must carry frame 0's layer layout: the same layer
// names, and one entry per layer in the per-layer vector `entries` names. A
// crafted or mixed trace fails here, naming the frame, instead of indexing
// past the end of a shorter frame.
template <typename T>
void check_layer_layout(const Trace& trace,
                        const std::vector<T> FrameTrace::*entries,
                        const char* what) {
  const std::vector<std::string>& names = trace.frames[0].layer_names;
  for (std::size_t f = 0; f < trace.frames.size(); ++f) {
    const FrameTrace& frame = trace.frames[f];
    MLX_CHECK(frame.layer_names == names &&
              (frame.*entries).size() == names.size())
        << "trace '" << trace.pipeline_name << "' frame " << f << " (id "
        << frame.frame_id << ") carries " << frame.layer_names.size()
        << " layer name(s) and " << (frame.*entries).size() << " " << what
        << ", unlike frame 0's " << names.size() << " layer(s)";
  }
}

}  // namespace

PerLayerReport DeploymentValidator::per_layer_drift(const Trace& edge,
                                                    const Trace& reference,
                                                    ErrorMetric metric,
                                                    double threshold) const {
  MLX_CHECK_EQ(edge.frames.size(), reference.frames.size())
      << "traces must replay the same frames";
  PerLayerReport report;
  report.threshold = threshold;
  if (edge.frames.empty()) return report;
  // Traces recorded without per-layer outputs (latency-only monitoring)
  // yield an empty drift report rather than an error.
  if (edge.frames[0].layer_outputs.empty() ||
      reference.frames[0].layer_outputs.empty()) {
    return report;
  }
  check_layer_layout(edge, &FrameTrace::layer_outputs, "layer output(s)");
  check_layer_layout(reference, &FrameTrace::layer_outputs, "layer output(s)");

  // Reference layer lookup by name (same for all frames).
  std::map<std::string, std::size_t> ref_index;
  const FrameTrace& ref0 = reference.frames[0];
  for (std::size_t i = 0; i < ref0.layer_names.size(); ++i) {
    ref_index[ref0.layer_names[i]] = i;
  }

  const FrameTrace& edge0 = edge.frames[0];
  for (std::size_t li = 0; li < edge0.layer_names.size(); ++li) {
    const std::string& name = edge0.layer_names[li];
    auto it = ref_index.find(name);
    if (it == ref_index.end()) continue;  // e.g. Quantize/Dequantize nodes
    double sum = 0.0;
    for (std::size_t f = 0; f < edge.frames.size(); ++f) {
      // Traces capture layer outputs in their raw dtype (quantized layers
      // stay int8 on the device); every error metric dequantizes via
      // Tensor::to_f32 internally — this is the offline read path.
      const Tensor& e = edge.frames[f].layer_outputs[li];
      const Tensor& r = reference.frames[f].layer_outputs[it->second];
      sum += metric == ErrorMetric::kLinf ? linf_error(e, r)
                                          : normalized_rmse(e, r);
    }
    const std::size_t frames = edge.frames.size();
    report.add(name, sum / static_cast<double>(frames), frames);
  }
  return report;
}

LatencyReport DeploymentValidator::per_layer_latency(
    const Trace& trace, double straggler_factor) const {
  LatencyReport report;
  if (trace.frames.empty()) return report;
  const FrameTrace& f0 = trace.frames[0];
  MLX_CHECK(!f0.layer_latency_ms.empty())
      << "trace '" << trace.pipeline_name << "' frame 0 (id " << f0.frame_id
      << ") carries no per-layer latency (recorded with per_layer_latency "
         "off, or without an invoke)";
  check_layer_layout(trace, &FrameTrace::layer_latency_ms,
                     "layer latency value(s)");
  std::vector<double> means(f0.layer_names.size(), 0.0);
  for (const FrameTrace& f : trace.frames) {
    for (std::size_t i = 0; i < means.size(); ++i) {
      means[i] += f.layer_latency_ms[i];
    }
  }
  std::vector<double> sorted;
  for (std::size_t i = 0; i < means.size(); ++i) {
    means[i] /= static_cast<double>(trace.frames.size());
    report.total_ms += means[i];
    sorted.push_back(means[i]);
  }
  std::sort(sorted.begin(), sorted.end());
  report.median_ms = sorted[sorted.size() / 2];
  for (std::size_t i = 0; i < means.size(); ++i) {
    LayerLatency l;
    l.layer = f0.layer_names[i];
    l.mean_ms = means[i];
    l.straggler = report.median_ms > 0.0 &&
                  means[i] > straggler_factor * report.median_ms;
    report.layers.push_back(std::move(l));
  }
  return report;
}

void DeploymentValidator::add_assertion(const std::string& name,
                                        AssertionFn fn) {
  assertions_.emplace_back(name, std::move(fn));
}

std::vector<AssertionResult> DeploymentValidator::run_assertions(
    const Trace& edge, const Trace& reference) const {
  std::vector<AssertionResult> results;
  results.reserve(assertions_.size());
  for (const auto& [name, fn] : assertions_) {
    AssertionResult r = fn(edge, reference);
    r.name = name;
    results.push_back(std::move(r));
  }
  return results;
}

std::string DeploymentValidator::report(
    const AccuracyReport& accuracy, const PerLayerReport& layers,
    const std::vector<AssertionResult>& assertions) const {
  std::ostringstream out;
  out << "=== ML-EXray deployment validation report ===\n";
  out << "accuracy: edge " << format_float(accuracy.edge_accuracy * 100, 1)
      << "% vs reference "
      << format_float(accuracy.reference_accuracy * 100, 1) << "% ("
      << (accuracy.degraded ? "DEGRADED" : "ok") << ")\n";
  if (layers.first_suspect.has_value()) {
    out << "per-layer drift: first suspect layer '" << *layers.first_suspect
        << "' (threshold " << format_float(layers.threshold, 3) << ")\n";
  } else if (!layers.drifts.empty()) {
    out << "per-layer drift: no layer above threshold\n";
  }
  for (const AssertionResult& a : assertions) {
    out << "assertion [" << a.name << "]: "
        << (a.triggered ? "TRIGGERED - " + a.message : "pass") << "\n";
  }
  return out.str();
}

}  // namespace mlexray
