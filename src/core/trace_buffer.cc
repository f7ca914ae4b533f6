#include "src/core/trace_buffer.h"

#include <cstring>

#include "src/common/fault_injection.h"
#include "src/common/file_io.h"
#include "src/graph/serialization.h"
#include "src/interpreter/session.h"

namespace mlexray {

namespace {
// Reserved capacity for scalar entries per frame; grows (once, with
// persistent capacity) only if a pipeline logs more custom scalars.
constexpr std::size_t kScalarReserve = 16;
// Capture-frame ring size while spooling. A ring deeper than two lets the
// spool worker batch several completed frames into one write per wakeup,
// cutting syscall count for high-FPS pipelines; the hot thread only blocks
// when all spare frames are queued behind the writer.
constexpr std::size_t kSpoolRingFrames = 4;
}  // namespace

TraceBuffer::TraceBuffer(MonitorOptions options) : options_(options) {
  // Canonical keys get the low ids so hot-path capture never interns.
  key_latency_ = intern_key(trace_keys::kInferenceLatencyMs);
  key_model_outputs_.push_back(intern_key(trace_keys::kModelOutput));
  intern_key(trace_keys::kPeakMemoryBytes);
  intern_key(trace_keys::kSensorLatencyMs);
  frames_.resize(2);
  for (CaptureFrame& f : frames_) f.scalars.reserve(kScalarReserve);
}

TraceBuffer::~TraceBuffer() {
  if (spooling()) {
    try {
      close_spool();
    } catch (const MlxError&) {
      // Destructor must not throw; close_spool() reports IO errors when
      // called explicitly.
    }
  }
}

void TraceBuffer::size_frame(CaptureFrame& f) const {
  if (f.scalars.capacity() < kScalarReserve) f.scalars.reserve(kScalarReserve);
  f.layer_latency_ms.assign(layers_.size(), 0.0);
  if (options_.per_layer_outputs) {
    f.layer_bytes.resize(layers_.size());
    for (std::size_t i = 0; i < layers_.size(); ++i) {
      f.layer_bytes[i].resize(layers_[i].byte_size);
    }
  }
  if (options_.per_layer_digests) {
    // LayerDigest is all-inline storage, so sizing once here is the last
    // allocation the digest path ever performs; per-frame reset() is a
    // member-wise clear (memset-class, not an allocation).
    f.layer_digests.resize(layers_.size());
    for (LayerDigest& d : f.layer_digests) d.reset();
  }
  f.has_invoke = false;
}

void TraceBuffer::bind(const Session& session) {
  if (bound_ == &session) return;
  // bind() resizes every capture frame and rebuilds the layer layout, which
  // the spooler thread reads while serializing: once any frame has been
  // finalized into the spool, binding would race with it. Bind (observe)
  // before recording frames when spooling.
  MLX_CHECK(!spooling() || spool_enqueued_ == 0)
      << "cannot (re)bind a TraceBuffer after frames were spooled";
  bound_ = &session;
  layers_.clear();
  const auto& steps = session.plan().steps();
  layers_.reserve(steps.size());
  // The layout comes from the graph, not the session's tensors: a lean
  // session cannot hand out its intermediate layers outside on_step.
  for (const PlanStep& step : steps) {
    const Node& n = *step.node;
    LayerInfo info;
    info.node_id = n.id;
    info.name = n.name;
    info.dtype = n.output_dtype;
    info.shape = n.output_shape;
    info.quant = n.output_quant;
    info.byte_size = tensor_bytes(n.output_dtype, n.output_shape);
    layers_.push_back(std::move(info));
  }
  // Model-io mode captures every model output; intern the extra keys here so
  // multi-output capture stays allocation-free on the hot path.
  const auto output_count = session.graph().outputs.size();
  while (key_model_outputs_.size() < output_count) {
    key_model_outputs_.push_back(intern_key(trace_keys::model_output_key(
        static_cast<int>(key_model_outputs_.size()))));
  }
  if (key_model_outputs_.size() > output_count) {
    key_model_outputs_.resize(output_count);
  }
  for (CaptureFrame& f : frames_) size_frame(f);
  step_cursor_ = 0;
}

std::uint16_t TraceBuffer::intern_key(const std::string& key) {
  std::lock_guard<std::mutex> lock(key_mu_);
  auto it = key_ids_.find(key);
  if (it != key_ids_.end()) return it->second;
  MLX_CHECK_LT(key_names_.size(), 65536u) << "trace key table overflow";
  auto id = static_cast<std::uint16_t>(key_names_.size());
  key_names_.push_back(key);
  key_ids_.emplace(key, id);
  return id;
}

std::string TraceBuffer::key_name(std::uint16_t id) const {
  std::lock_guard<std::mutex> lock(key_mu_);
  MLX_CHECK_LT(static_cast<std::size_t>(id), key_names_.size());
  return key_names_[id];
}

void TraceBuffer::set_scalar(std::uint16_t key_id, double value) {
  CaptureFrame& f = frames_[active_];
  for (auto& [id, v] : f.scalars) {
    if (id == key_id) {
      v = value;
      return;
    }
  }
  f.scalars.emplace_back(key_id, value);
}

void TraceBuffer::log_tensor(std::uint16_t key_id, const Tensor& value) {
  CaptureFrame& f = frames_[active_];
  TensorSlot* slot = nullptr;
  for (TensorSlot& s : f.tensors) {
    if (s.key == key_id) {
      slot = &s;
      break;
    }
  }
  if (slot == nullptr) {
    f.tensors.emplace_back();
    slot = &f.tensors.back();
    slot->key = key_id;
  }
  slot->used = true;
  slot->dtype = value.dtype();
  slot->shape = value.shape();
  // vector copy-assignment reuses capacity when it suffices — steady-state
  // logging of a same-shaped tensor under the same key allocates nothing.
  slot->quant = value.quant();
  slot->bytes.resize(value.byte_size());
  std::memcpy(slot->bytes.data(), value.raw_data(), value.byte_size());
}

void TraceBuffer::on_invoke_begin(std::size_t step_count) {
  MLX_CHECK_EQ(step_count, layers_.size())
      << "TraceBuffer observing a session it was not bound to";
  step_cursor_ = 0;
}

void TraceBuffer::on_step(const Node& node, const Tensor& output,
                          double latency_ms) {
  CaptureFrame& f = frames_[active_];
  MLX_CHECK_LT(step_cursor_, layers_.size());
  MLX_CHECK_EQ(layers_[step_cursor_].node_id, node.id);
  if (options_.per_layer_latency) {
    f.layer_latency_ms[step_cursor_] = latency_ms;
  }
  if (options_.per_layer_outputs) {
    std::vector<std::uint8_t>& dst = f.layer_bytes[step_cursor_];
    MLX_CHECK_EQ(dst.size(), output.byte_size());
    std::memcpy(dst.data(), output.raw_data(), output.byte_size());
  }
  if (options_.per_layer_digests) {
    LayerDigest& d = f.layer_digests[step_cursor_];
    d.reset();
    d.accumulate(output);
  }
  ++step_cursor_;
}

void TraceBuffer::on_invoke_end(const SessionStats& stats) {
  CaptureFrame& f = frames_[active_];
  f.has_invoke = true;
  set_scalar(key_latency_, stats.total_ms);
  if (bound_ != nullptr) {
    // Every model output, not just output(0): multi-head models (SSD box +
    // class heads) log one tensor per head.
    for (std::size_t i = 0; i < key_model_outputs_.size(); ++i) {
      log_tensor(key_model_outputs_[i], bound_->output(static_cast<int>(i)));
    }
  }
}

void TraceBuffer::reset_frame(CaptureFrame& frame, int frame_id) {
  frame.frame_id = frame_id;
  frame.has_invoke = false;
  frame.scalars.clear();  // capacity persists
  for (TensorSlot& s : frame.tensors) s.used = false;
  // layer_latency_ms / layer_bytes are overwritten wholesale by the next
  // capture; no clearing needed.
}

FrameTrace TraceBuffer::to_frame_trace(const CaptureFrame& frame) const {
  FrameTrace out;
  out.frame_id = frame.frame_id;
  for (const auto& [id, value] : frame.scalars) {
    out.scalars[key_name(id)] = value;
  }
  for (const TensorSlot& s : frame.tensors) {
    if (!s.used) continue;
    Tensor t(s.dtype, s.shape);
    MLX_CHECK_EQ(t.byte_size(), s.bytes.size());
    std::memcpy(t.raw_data(), s.bytes.data(), s.bytes.size());
    t.quant() = s.quant;
    out.tensors.emplace(key_name(s.key), std::move(t));
  }
  if (frame.has_invoke &&
      (options_.per_layer_latency || options_.per_layer_outputs ||
       options_.per_layer_digests)) {
    out.layer_names.reserve(layers_.size());
    for (std::size_t i = 0; i < layers_.size(); ++i) {
      out.layer_names.push_back(layers_[i].name);
      if (options_.per_layer_outputs) {
        Tensor t(layers_[i].dtype, layers_[i].shape);
        MLX_CHECK_EQ(t.byte_size(), frame.layer_bytes[i].size());
        std::memcpy(t.raw_data(), frame.layer_bytes[i].data(),
                    frame.layer_bytes[i].size());
        t.quant() = layers_[i].quant;
        out.layer_outputs.push_back(std::move(t));
      }
      if (options_.per_layer_latency) {
        out.layer_latency_ms.push_back(frame.layer_latency_ms[i]);
      }
      if (options_.per_layer_digests) {
        out.layer_digests.push_back(frame.layer_digests[i]);
      }
    }
  }
  return out;
}

void TraceBuffer::next_frame() {
  CaptureFrame& finished = frames_[active_];
  if (spooling()) {
    ++spool_enqueued_;
    spool_enqueue(&finished);
    active_ = (active_ + 1) % static_cast<int>(frames_.size());
    spool_wait_free(&frames_[active_]);
  } else {
    if (options_.retain_frames) {
      trace_.frames.push_back(to_frame_trace(finished));
    }
    active_ = (active_ + 1) % static_cast<int>(frames_.size());
  }
  reset_frame(frames_[active_], ++next_frame_id_);
}

std::size_t TraceBuffer::frame_capture_bytes() const {
  std::size_t total = 0;
  if (options_.per_layer_outputs) {
    for (const LayerInfo& l : layers_) total += l.byte_size;
  }
  if (options_.per_layer_digests) {
    total += layers_.size() * sizeof(LayerDigest);
  }
  // Warm slot capacity — what a full frame captures — so the number is
  // meaningful right after next_frame() reset the active frame.
  for (const TensorSlot& s : frames_[active_].tensors) total += s.bytes.size();
  return total;
}

std::size_t TraceBuffer::max_spool_batch() const {
  std::lock_guard<std::mutex> lock(spool_mu_);
  return max_spool_batch_;
}

std::size_t TraceBuffer::spooled_frames() const {
  std::lock_guard<std::mutex> lock(spool_mu_);
  return spool_frames_;
}

std::size_t TraceBuffer::spooled_digest_frames() const {
  std::lock_guard<std::mutex> lock(spool_mu_);
  return spool_digest_frames_;
}

Trace TraceBuffer::take_trace() {
  Trace out = std::move(trace_);
  trace_ = Trace{};
  trace_.pipeline_name = out.pipeline_name;
  return out;
}

void TraceBuffer::set_pipeline_name(std::string name) {
  trace_.pipeline_name = std::move(name);
}

// --- spooling ---------------------------------------------------------------

void TraceBuffer::open_spool(const std::filesystem::path& path) {
  MLX_CHECK(!spooling()) << "spool already open";
  spool_out_.open(path, std::ios::binary | std::ios::trunc);
  MLX_CHECK(spool_out_.good()) << "cannot open spool file " << path.string();
  // Widen the capture ring so several completed frames can queue behind the
  // writer (the batching that amortizes one write over many frames). Done
  // before any frame is enqueued, so growing the vector is safe.
  while (frames_.size() < kSpoolRingFrames) {
    frames_.emplace_back();
    size_frame(frames_.back());
  }
  spool_queue_.reserve(frames_.size());
  spool_batch_.reserve(frames_.size());
  // Same header save_trace writes; the frame count starts at 0 and is
  // re-patched after every batch write (crash safety) and at close_spool().
  BinaryWriter header;
  {
    Trace empty;
    empty.pipeline_name = trace_.pipeline_name;
    const std::vector<std::uint8_t> bytes = serialize_trace(empty);
    header.write_bytes(bytes.data(), bytes.size());
  }
  spool_count_offset_ = trace_frame_count_offset(trace_.pipeline_name);
  spool_out_.write(reinterpret_cast<const char*>(header.bytes().data()),
                   static_cast<std::streamsize>(header.size()));
  spool_frames_ = 0;
  spool_digest_frames_ = 0;
  spool_enqueued_ = 0;
  spool_stop_ = false;
  max_spool_batch_ = 0;
  spool_error_.clear();
  spool_thread_ = std::thread([this] { spool_worker(); });
}

bool TraceBuffer::spool_holds(const CaptureFrame* frame) const {
  for (const CaptureFrame* f : spool_queue_) {
    if (f == frame) return true;
  }
  for (const CaptureFrame* f : spool_batch_) {
    if (f == frame) return true;
  }
  return false;
}

void TraceBuffer::spool_enqueue(const CaptureFrame* frame) {
  std::lock_guard<std::mutex> lock(spool_mu_);
  // Every ring frame appears at most once across queue + batch and capacity
  // was reserved for the whole ring, so this push never allocates.
  spool_queue_.push_back(frame);
  spool_cv_.notify_all();
}

void TraceBuffer::spool_wait_free(const CaptureFrame* frame) {
  std::unique_lock<std::mutex> lock(spool_mu_);
  spool_cv_.wait(lock, [this, frame] { return !spool_holds(frame); });
}

void TraceBuffer::spool_worker() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(spool_mu_);
      spool_cv_.wait(lock,
                     [this] { return !spool_queue_.empty() || spool_stop_; });
      if (spool_queue_.empty()) return;  // stop requested, queue drained
      // Take every queued frame at once — the batch that turns N frames
      // into one write() below. swap keeps both vectors' capacity.
      spool_queue_.swap(spool_batch_);
      if (spool_batch_.size() > max_spool_batch_) {
        max_spool_batch_ = spool_batch_.size();
      }
    }
    try {
      if (fault::enabled()) fault::check(fault_sites::kSpoolWrite);
      BinaryWriter w;
      for (const CaptureFrame* frame : spool_batch_) {
        serialize_frame(w, to_frame_trace(*frame));
      }
      spool_out_.write(reinterpret_cast<const char*>(w.bytes().data()),
                       static_cast<std::streamsize>(w.size()));
      MLX_CHECK(spool_out_.good()) << "spool write failed";
      // Crash safety: re-patch the header's frame count after every batch
      // (one small extra write per wakeup) and flush, so a killed process
      // leaves a readable .mlxtrace holding every fully-written frame —
      // only a torn tail frame is possible, and load_trace_tolerant drops
      // it. Without this the count would say 0 until close_spool().
      const std::streamoff end = spool_out_.tellp();
      BinaryWriter count;
      count.write_u32(
          static_cast<std::uint32_t>(spool_frames_ + spool_batch_.size()));
      spool_out_.seekp(static_cast<std::streamoff>(spool_count_offset_));
      spool_out_.write(reinterpret_cast<const char*>(count.bytes().data()),
                       static_cast<std::streamsize>(count.size()));
      spool_out_.seekp(end);
      spool_out_.flush();
      MLX_CHECK(spool_out_.good()) << "spool header patch failed";
      std::size_t digest_frames = 0;
      if (options_.per_layer_digests) {
        for (const CaptureFrame* frame : spool_batch_) {
          if (frame->has_invoke) ++digest_frames;
        }
      }
      std::lock_guard<std::mutex> lock(spool_mu_);
      spool_frames_ += spool_batch_.size();
      spool_digest_frames_ += digest_frames;
    } catch (const std::exception& e) {
      // Any escape (MlxError, bad_alloc, ...) would std::terminate the
      // process from a thread entry; record it for close_spool() instead.
      std::lock_guard<std::mutex> lock(spool_mu_);
      if (spool_error_.empty()) spool_error_ = e.what();
    } catch (...) {
      std::lock_guard<std::mutex> lock(spool_mu_);
      if (spool_error_.empty()) spool_error_ = "unknown spooler exception";
    }
    {
      // Even on a write error the batch frames are released, so the hot
      // thread never deadlocks waiting for a free buffer; the error is
      // surfaced at close_spool().
      std::lock_guard<std::mutex> lock(spool_mu_);
      spool_batch_.clear();
      spool_cv_.notify_all();
    }
  }
}

std::size_t TraceBuffer::close_spool() {
  MLX_CHECK(spooling()) << "no spool open";
  {
    std::lock_guard<std::mutex> lock(spool_mu_);
    spool_stop_ = true;
    spool_cv_.notify_all();
  }
  spool_thread_.join();
  // Patch the frame count into the header.
  BinaryWriter count;
  count.write_u32(static_cast<std::uint32_t>(spool_frames_));
  spool_out_.seekp(static_cast<std::streamoff>(spool_count_offset_));
  spool_out_.write(reinterpret_cast<const char*>(count.bytes().data()),
                   static_cast<std::streamsize>(count.size()));
  spool_out_.close();
  MLX_CHECK(spool_error_.empty()) << "spooler failed: " << spool_error_;
  return spool_frames_;
}

}  // namespace mlexray
