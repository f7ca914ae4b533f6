// TraceBuffer: arena-style, push-based capture sink for instrumented invokes
// (paper §3.2 telemetry at Table-2 overhead).
//
// Attached to a Session as its InvokeObserver, it captures per-layer
// latencies and raw-dtype layer outputs as each prepared step finishes, plus
// every model output and user scalars/tensors, into pre-sized reusable frame
// storage. Capture is push-only: an invoke the buffer did not observe is not
// captured, and nothing re-reads the session's activations afterwards. So
// capture needs no Retention::kPreserveAll session: each layer is copied or
// digested inside on_step, while its bytes hold the step's output.
// Storage:
//
//  - trace keys are interned once into small integer ids — no std::string
//    map keys on the hot path;
//  - per-layer outputs are captured in their raw dtype (int8 activations
//    stay int8; dequantization via Tensor::to_f32 happens at offline trace
//    reading — validation, trace-info);
//  - model-io mode records *all* model outputs (e.g. the SSD box + class
//    heads), output 0 under trace_keys::kModelOutput and output i under
//    trace_keys::model_output_key(i);
//  - capture frames form a small ring (two buffers unless spooling widens
//    it): the hot thread fills one CaptureFrame while completed ones drain
//    (retained into the in-memory Trace, or serialized to a .mlxtrace spool
//    file by a background thread);
//  - after the ring has warmed, steady-state capture performs zero heap
//    allocations — tests/test_observer.cc enforces this with the same
//    operator-new counter test_kernel_grid.cc uses for bare invoke.
//
// Sessions sharing one Model attach one TraceBuffer each; the buffer holds
// no model state beyond the bound session's layer layout. EdgeMLMonitor
// (src/core/monitor.h) is a thin façade over this class; use TraceBuffer
// directly only when the monitor's bracketing API is in the way (e.g. the
// overhead benchmarks).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/trace.h"
#include "src/interpreter/invoke_observer.h"

namespace mlexray {

class Session;

// Capture configuration (the paper's instrumentation modes). Lives here so
// the buffer is self-contained; EdgeMLMonitor re-exports it.
struct MonitorOptions {
  bool per_layer_outputs = false;  // offline validation mode (Tables 3/5)
  // Always-on fleet-monitoring mode: per-layer streaming digests (moments +
  // quantile sketch / int8 histogram, src/drift/digest.h) instead of raw
  // tensors. Fixed-size storage per layer, zero steady-state allocations,
  // and a fraction of the raw-output capture cost — cheap enough to leave
  // enabled in serving (bench_drift gates the overhead vs bare invoke).
  bool per_layer_digests = false;
  bool per_layer_latency = true;
  // When false, next_frame() discards frames after counting them (they still
  // reach the spool file when spooling is active). Overhead benchmarks and
  // fire-and-forget deployments use this to keep memory flat.
  bool retain_frames = true;
};

class TraceBuffer : public InvokeObserver {
 public:
  explicit TraceBuffer(MonitorOptions options = {});
  ~TraceBuffer() override;

  TraceBuffer(const TraceBuffer&) = delete;
  TraceBuffer& operator=(const TraceBuffer&) = delete;

  // --- binding --------------------------------------------------------------
  // One-time prepare for a session: records the per-layer layout (names,
  // dtypes, shapes, quant params, taken from the graph nodes — shared
  // across frames, not stored per frame), interns a key per model output,
  // and pre-sizes every capture frame to the model's byte sizes. Rebinding
  // to a different session rebuilds the layout.
  void bind(const Session& session);
  bool bound_to(const Session& session) const { return bound_ == &session; }

  // --- keys -----------------------------------------------------------------
  // Returns the stable id for a key, interning it on first sight (the only
  // allocating key operation; canonical trace_keys are interned at
  // construction). Hot-path capture APIs take ids only.
  std::uint16_t intern_key(const std::string& key);
  // By value: the spool worker resolves names concurrently with interning,
  // so references into the table cannot be handed out.
  std::string key_name(std::uint16_t id) const;

  // --- hot-path capture -----------------------------------------------------
  void set_scalar(std::uint16_t key_id, double value);
  // Deep-copies the tensor (raw dtype) into the frame's slot for key_id,
  // reusing the slot's byte storage across frames.
  void log_tensor(std::uint16_t key_id, const Tensor& value);

  // InvokeObserver hooks (fired by the attached session).
  void on_invoke_begin(std::size_t step_count) override;
  void on_step(const Node& node, const Tensor& output,
               double latency_ms) override;
  void on_invoke_end(const SessionStats& stats) override;

  // True if the current frame captured an invoke since the last next_frame().
  bool captured_invoke() const { return frames_[active_].has_invoke; }

  // Finalizes the current frame — retained, spooled, or discarded per
  // options — and advances to the next capture buffer. The conversion to
  // FrameTrace (which allocates) happens here or on the spooler thread,
  // never inside the invoke window.
  void next_frame();

  // --- spooling -------------------------------------------------------------
  // Streams finalized frames to `path` (.mlxtrace, same format as
  // save_trace) from a background thread. Completed frames enter a bounded
  // FIFO (the capture ring above); the worker drains every queued frame per
  // wakeup and writes the whole batch with one stream write, so high-FPS
  // pipelines pay one syscall for several frames. The hot thread only
  // blocks when it laps the writer with the whole ring in flight.
  void open_spool(const std::filesystem::path& path);
  // Flushes, joins the spooler, patches the frame count into the file
  // header, and rethrows any spooler IO error. Returns frames written.
  std::size_t close_spool();
  bool spooling() const { return spool_thread_.joinable(); }
  // Frames the worker has durably written (header re-patched + flushed):
  // the crash-safe prefix of the spool file. Everything up to this count is
  // readable even if the process dies before close_spool().
  std::size_t spooled_frames() const;
  // Of those, frames that carried per-layer digests — digest frames ride the
  // same one-write-per-wakeup batch path as raw frames; tests assert fleet
  // digests reach disk durably through this counter.
  std::size_t spooled_digest_frames() const;

  // --- retained trace -------------------------------------------------------
  const Trace& trace() const { return trace_; }
  Trace take_trace();
  void set_pipeline_name(std::string name);

  int frames_captured() const { return next_frame_id_; }
  // Index of the buffer currently capturing — cycles through the ring on
  // next_frame(); tests assert the buffer rotation through it.
  int active_buffer() const { return active_; }
  // Number of capture buffers in the ring (2, or 4 while spooling).
  int buffer_count() const { return static_cast<int>(frames_.size()); }
  // Bytes a fully captured frame holds (layer bytes + model outputs), i.e.
  // the per-frame capture cost of the current mode.
  std::size_t frame_capture_bytes() const;
  // Largest number of frames the spool worker wrote with a single stream
  // write so far — observability for the batching behaviour.
  std::size_t max_spool_batch() const;
  const MonitorOptions& options() const { return options_; }

 private:
  struct TensorSlot {
    std::uint16_t key = 0;
    bool used = false;
    DType dtype = DType::kF32;
    Shape shape;
    QuantParams quant;
    std::vector<std::uint8_t> bytes;  // capacity persists across frames
  };
  struct CaptureFrame {
    int frame_id = 0;
    bool has_invoke = false;
    std::vector<std::pair<std::uint16_t, double>> scalars;
    std::vector<TensorSlot> tensors;
    std::vector<double> layer_latency_ms;                // step-indexed
    std::vector<std::vector<std::uint8_t>> layer_bytes;  // step-indexed
    std::vector<LayerDigest> layer_digests;              // step-indexed
  };
  // Per-layer metadata shared by every frame (set at bind).
  struct LayerInfo {
    int node_id = -1;
    std::string name;
    DType dtype = DType::kF32;
    Shape shape;
    QuantParams quant;
    std::size_t byte_size = 0;
  };

  void reset_frame(CaptureFrame& frame, int frame_id);
  // Pre-sizes one frame's per-layer storage to the bound layout.
  void size_frame(CaptureFrame& frame) const;
  FrameTrace to_frame_trace(const CaptureFrame& frame) const;
  void spool_worker();
  void spool_enqueue(const CaptureFrame* frame);
  void spool_wait_free(const CaptureFrame* frame);
  bool spool_holds(const CaptureFrame* frame) const;  // caller holds spool_mu_

  MonitorOptions options_;
  const Session* bound_ = nullptr;
  std::vector<LayerInfo> layers_;

  // The key table is the one structure both the hot thread (interning a
  // first-seen key) and the spool worker (resolving names during frame
  // serialization) touch; key_mu_ covers it. Ids are stable once handed out.
  mutable std::mutex key_mu_;
  std::vector<std::string> key_names_;
  std::map<std::string, std::uint16_t> key_ids_;
  std::uint16_t key_latency_ = 0;
  // One key per model output of the bound session; [0] is kModelOutput.
  std::vector<std::uint16_t> key_model_outputs_;

  std::vector<CaptureFrame> frames_;  // capture ring; size 2 unless spooling
  int active_ = 0;
  std::size_t step_cursor_ = 0;
  int next_frame_id_ = 0;  // also the count of frames captured so far

  Trace trace_;

  // Spool state: bounded FIFO of completed frames between the hot thread and
  // the writer. spool_queue_ holds frames waiting for the worker;
  // spool_batch_ holds the frames the worker is currently serializing (it
  // swaps the queue out whole, so both vectors keep their reserved capacity
  // and the steady state never allocates).
  std::thread spool_thread_;
  mutable std::mutex spool_mu_;
  std::condition_variable spool_cv_;
  std::vector<const CaptureFrame*> spool_queue_;
  std::vector<const CaptureFrame*> spool_batch_;
  bool spool_stop_ = false;
  std::string spool_error_;
  std::ofstream spool_out_;
  std::size_t spool_count_offset_ = 0;
  std::size_t spool_frames_ = 0;         // written by the worker
  std::size_t spool_digest_frames_ = 0;  // written by the worker
  std::size_t spool_enqueued_ = 0;       // hot-thread count; guards bind()
  std::size_t max_spool_batch_ = 0;      // written by the worker
};

}  // namespace mlexray
