#include "src/core/trace.h"

#include <algorithm>

#include "src/common/file_io.h"
#include "src/graph/serialization.h"

namespace mlexray {

namespace trace_keys {
std::string model_output_key(int output_index) {
  if (output_index == 0) return kModelOutput;
  return std::string(kModelOutput) + ":" + std::to_string(output_index);
}
}  // namespace trace_keys

const Tensor& FrameTrace::tensor(const std::string& key) const {
  auto it = tensors.find(key);
  MLX_CHECK(it != tensors.end()) << "trace has no tensor '" << key << "'";
  return it->second;
}

double FrameTrace::scalar(const std::string& key) const {
  auto it = scalars.find(key);
  MLX_CHECK(it != scalars.end()) << "trace has no scalar '" << key << "'";
  return it->second;
}

namespace {
// One magic per wire version: v2 frames append a digest section, so a
// reader must know the layout before parsing any frame. The magic is the
// version announcement (a version field after a shared magic would have cost
// the same four bytes without staying v1-readable).
constexpr std::uint32_t kTraceMagicV1 = 0x4d4c5854;  // "TXLM"
constexpr std::uint32_t kTraceMagicV2 = 0x4d4c5855;

int version_for_magic(std::uint32_t magic) {
  if (magic == kTraceMagicV1) return kTraceVersion1;
  if (magic == kTraceMagicV2) return kTraceVersion2;
  MLX_CHECK(false) << "not an mlxtrace file";
  return 0;
}

// The smallest frame each version encodes: frame_id and five u32 counts
// (tensors, scalars, layer names, outputs, latencies), plus the digest count
// in v2.
std::size_t min_frame_bytes(int version) {
  return version >= kTraceVersion2 ? 28 : 24;
}
}  // namespace

void serialize_frame(BinaryWriter& w, const FrameTrace& f) {
  w.write_i32(f.frame_id);
  w.write_u32(static_cast<std::uint32_t>(f.tensors.size()));
  for (const auto& [key, tensor] : f.tensors) {
    w.write_string(key);
    serialize_tensor(w, tensor);
  }
  w.write_u32(static_cast<std::uint32_t>(f.scalars.size()));
  for (const auto& [key, value] : f.scalars) {
    w.write_string(key);
    w.write_f64(value);
  }
  w.write_u32(static_cast<std::uint32_t>(f.layer_names.size()));
  for (const std::string& name : f.layer_names) w.write_string(name);
  w.write_u32(static_cast<std::uint32_t>(f.layer_outputs.size()));
  for (const Tensor& t : f.layer_outputs) serialize_tensor(w, t);
  w.write_u32(static_cast<std::uint32_t>(f.layer_latency_ms.size()));
  for (double v : f.layer_latency_ms) w.write_f64(v);
  w.write_u32(static_cast<std::uint32_t>(f.layer_digests.size()));
  for (const LayerDigest& d : f.layer_digests) serialize_digest(w, d);
}

FrameTrace deserialize_frame(BinaryReader& r, int version) {
  FrameTrace f;
  f.frame_id = r.read_i32();
  std::uint32_t tensors = r.read_u32();
  for (std::uint32_t k = 0; k < tensors; ++k) {
    std::string key = r.read_string();
    f.tensors.emplace(std::move(key), deserialize_tensor(r));
  }
  std::uint32_t scalars = r.read_u32();
  for (std::uint32_t k = 0; k < scalars; ++k) {
    std::string key = r.read_string();
    f.scalars.emplace(std::move(key), r.read_f64());
  }
  std::uint32_t names = r.read_u32();
  for (std::uint32_t k = 0; k < names; ++k) {
    f.layer_names.push_back(r.read_string());
  }
  std::uint32_t outputs = r.read_u32();
  for (std::uint32_t k = 0; k < outputs; ++k) {
    f.layer_outputs.push_back(deserialize_tensor(r));
  }
  std::uint32_t latencies = r.read_u32();
  for (std::uint32_t k = 0; k < latencies; ++k) {
    f.layer_latency_ms.push_back(r.read_f64());
  }
  if (version >= kTraceVersion2) {
    const std::uint32_t digests = r.read_u32();
    // An honest frame carries one digest per layer name; the untrusted count
    // reserves no more slots than that. Each slot is filled where it lies.
    f.layer_digests.reserve(
        std::min<std::size_t>(digests, f.layer_names.size()));
    for (std::uint32_t k = 0; k < digests; ++k) {
      deserialize_digest(r, f.layer_digests.emplace_back());
    }
  }
  return f;
}

std::size_t trace_frame_count_offset(const std::string& pipeline_name) {
  BinaryWriter w;
  w.write_u32(kTraceMagicV2);
  w.write_string(pipeline_name);
  return w.size();
}

std::vector<std::uint8_t> serialize_trace(const Trace& trace) {
  BinaryWriter w;
  w.write_u32(kTraceMagicV2);
  w.write_string(trace.pipeline_name);
  w.write_u32(static_cast<std::uint32_t>(trace.frames.size()));
  for (const FrameTrace& f : trace.frames) serialize_frame(w, f);
  return w.bytes();
}

namespace {

// The one .mlxtrace parser behind both loaders: the header, then frames
// until the header's count. A frame that fails to parse throws, unless
// `truncated` is non-null (the tolerant load): then the frames before it
// are the result, and *truncated counts the promised frames not delivered.
Trace parse_trace(const std::vector<std::uint8_t>& bytes,
                  std::size_t* truncated) {
  BinaryReader r(bytes);
  const int version = version_for_magic(r.read_u32());
  Trace trace;
  trace.pipeline_name = r.read_string();
  const std::uint32_t promised = r.read_u32();
  // The count is untrusted: reserve no more frames than the bytes left
  // could encode.
  trace.frames.reserve(std::min<std::size_t>(
      promised, r.remaining() / min_frame_bytes(version)));
  for (std::uint32_t i = 0; i < promised; ++i) {
    // A torn tail frame (killed writer) fails its bounds-checked reads;
    // everything parsed before it is a valid prefix. Deserialization
    // happens into a scratch frame so a partial parse never reaches the
    // returned trace.
    try {
      trace.frames.push_back(deserialize_frame(r, version));
    } catch (const MlxError&) {
      if (truncated == nullptr) throw;
      *truncated = promised - i;
      break;
    }
  }
  return trace;
}

}  // namespace

Trace deserialize_trace(const std::vector<std::uint8_t>& bytes) {
  return parse_trace(bytes, nullptr);
}

std::size_t Trace::serialized_bytes() const {
  return serialize_trace(*this).size();
}

void save_trace(const Trace& trace, const std::filesystem::path& path) {
  write_file(path, serialize_trace(trace));
}

Trace load_trace(const std::filesystem::path& path) {
  return deserialize_trace(read_file(path));
}

Trace load_trace_tolerant(const std::filesystem::path& path,
                          std::size_t* truncated_frames) {
  const std::vector<std::uint8_t> bytes = read_file(path);
  std::size_t truncated = 0;
  Trace trace = parse_trace(bytes, &truncated);
  if (truncated_frames != nullptr) *truncated_frames = truncated;
  return trace;
}

}  // namespace mlexray
