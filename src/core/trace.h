// EXray trace: the log data model (paper §3.2).
//
// Per frame, a trace holds key->tensor entries (model input/output, custom
// function outputs, peripheral sensors), key->scalar metrics (latencies,
// memory), and — when per-layer logging is enabled — every layer's named
// output and latency. Traces serialize to .mlxtrace files so edge logs can
// be shipped to a workstation for offline validation.
#pragma once

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "src/drift/digest.h"
#include "src/tensor/tensor.h"

namespace mlexray {

// Canonical keys used by the built-in pipelines and assertions.
namespace trace_keys {
inline constexpr const char* kSensorRaw = "sensor.raw";
inline constexpr const char* kPreprocessOut = "preprocess.out";
inline constexpr const char* kModelInput = "model.input";
inline constexpr const char* kModelOutput = "model.output";
inline constexpr const char* kInferenceLatencyMs = "latency.inference_ms";
inline constexpr const char* kEndToEndLatencyMs = "latency.e2e_ms";
inline constexpr const char* kSensorLatencyMs = "latency.sensor_ms";
inline constexpr const char* kPeakMemoryBytes = "memory.peak_bytes";
inline constexpr const char* kPredictedLabel = "output.predicted_label";

// Key for the i-th model output in model-io capture: kModelOutput for
// output 0 (the historical single-output key), "model.output:i" beyond —
// multi-head models (SSD box + class heads) log one tensor per head.
std::string model_output_key(int output_index);
}  // namespace trace_keys

struct FrameTrace {
  int frame_id = 0;
  std::map<std::string, Tensor> tensors;
  std::map<std::string, double> scalars;
  // Per-layer details (execution order), present when per-layer logging is on.
  std::vector<std::string> layer_names;
  std::vector<Tensor> layer_outputs;
  std::vector<double> layer_latency_ms;
  // Per-layer streaming digests (execution order, parallel to layer_names),
  // present when digest capture is on. Format v2 carries these on the wire;
  // v1 traces load with the vector empty.
  std::vector<LayerDigest> layer_digests;

  bool has_tensor(const std::string& key) const {
    return tensors.count(key) > 0;
  }
  const Tensor& tensor(const std::string& key) const;
  double scalar(const std::string& key) const;
};

struct Trace {
  std::string pipeline_name;
  std::vector<FrameTrace> frames;

  std::size_t serialized_bytes() const;
};

std::vector<std::uint8_t> serialize_trace(const Trace& trace);
Trace deserialize_trace(const std::vector<std::uint8_t>& bytes);
void save_trace(const Trace& trace, const std::filesystem::path& path);
Trace load_trace(const std::filesystem::path& path);

// Tolerant load for traces from a crashed or killed writer: the spooler
// re-patches the header count per batch, so a dead process leaves a valid
// prefix plus at most one torn tail frame. Reads frames until the header
// count is satisfied or a frame fails to parse, drops the torn tail, and
// reports how many frames the header promised but the file could not
// deliver via *truncated_frames (0 for an intact file). Still throws
// MlxError when the file is not an mlxtrace at all (bad magic / unreadable
// header). trace-info uses this so a truncated device log is inspectable
// instead of an error.
Trace load_trace_tolerant(const std::filesystem::path& path,
                          std::size_t* truncated_frames = nullptr);

// Wire-format versions. v1 is the original layout; v2 appends a per-frame
// digest section after the layer latencies (and announces itself with a
// distinct magic). Writers emit only v2; readers accept both, so v1 device
// logs stay loadable.
inline constexpr int kTraceVersion1 = 1;
inline constexpr int kTraceVersion2 = 2;
inline constexpr int kTraceVersionCurrent = kTraceVersion2;

// Frame-level framing, shared by the whole-trace (de)serializers above and
// the TraceBuffer spooler, which streams frames into a .mlxtrace file as
// they are captured (same on-disk format, frame count patched at close).
// serialize_frame writes the current layout; deserialize_frame's version
// selects the layout to read, kTraceVersion1 for legacy traces.
class BinaryWriter;
class BinaryReader;
void serialize_frame(BinaryWriter& w, const FrameTrace& frame);
FrameTrace deserialize_frame(BinaryReader& r,
                             int version = kTraceVersionCurrent);

// Byte offset of the u32 frame-count field inside a serialized trace with
// this pipeline name (magic + length-prefixed name precede it).
std::size_t trace_frame_count_offset(const std::string& pipeline_name);

}  // namespace mlexray
