// EdgeMLMonitor: the instrumentation API (paper §3.2, Fig 7).
//
// Usage in an app's inference loop (the paper's <5-LoC instrumentation):
//
//   EdgeMLMonitor monitor(options);
//   monitor.observe(session);                          // once, before invoke
//   ...
//   monitor.log_tensor(trace_keys::kSensorRaw, raw);   // custom logs
//   monitor.on_inf_start();
//   session.invoke();
//   monitor.on_inf_stop(session);                      // default logs
//   monitor.next_frame();
//
// The monitor is a thin façade over TraceBuffer (src/core/trace_buffer.h),
// and capture is push-only: observe() attaches the buffer to the session as
// an InvokeObserver, so per-layer latencies/outputs and the model outputs
// are captured *during* invoke into pre-sized storage — no post-hoc model
// walk, no steady-state heap allocation. on_inf_stop(session) only stamps
// the frame's scalars, and throws MlxError if no invoke of that session was
// captured this frame (observe() skipped, or another session handed in).
// Monitors are per-session: many sessions serving one shared Model attach
// one monitor each, while the weights and prepared packing stay shared.
//
// Lifetime: an observed session and its monitor are linked. Destroy the
// monitor first (it detaches itself), or detach explicitly with unobserve()
// if the session dies first — the pipelines in src/core/pipelines.cc do
// the latter in their destructors. For Engine-pooled sessions, unobserve()
// before releasing the lease (or keep monitor and lease on one thread):
// once released, the session may be re-leased by another thread, and a
// monitor still pointing at it would race that thread's observer writes.
//
// spool_to() streams finalized frames to a .mlxtrace file from a background
// thread (set_pipeline_name first — the name is written into the file
// header at open). In spool mode take_trace()/trace() stay empty.
#pragma once

#include <chrono>
#include <filesystem>
#include <optional>

#include "src/core/trace_buffer.h"
#include "src/interpreter/session.h"

namespace mlexray {

class EdgeMLMonitor {
 public:
  explicit EdgeMLMonitor(MonitorOptions options = {});
  ~EdgeMLMonitor();

  EdgeMLMonitor(const EdgeMLMonitor&) = delete;
  EdgeMLMonitor& operator=(const EdgeMLMonitor&) = delete;

  // Attaches this monitor's TraceBuffer to the session as its
  // InvokeObserver (push-based capture) and pre-sizes capture storage for
  // its model. Re-attaching to a different session detaches the first.
  void observe(Session& session);
  // Detaches if `session` is the one being observed; call before the
  // session is destroyed if it dies before the monitor.
  void unobserve(Session& session);

  // Brackets one invoke. on_inf_stop logs the bracket as the frame's
  // inference latency, or keeps the captured invoke-only time when this
  // frame had no on_inf_start.
  void on_inf_start();
  void on_inf_stop(const Session& session);
  void on_sensor_start();
  void on_sensor_stop();

  // Custom logs around user functions (preprocessing, postprocessing, ...).
  void log_tensor(const std::string& key, const Tensor& value);
  void log_scalar(const std::string& key, double value);

  // Finalizes the current frame and starts the next one.
  void next_frame();

  // Background .mlxtrace spooling (see TraceBuffer).
  void spool_to(const std::filesystem::path& path);
  std::size_t finish_spool();

  const Trace& trace() const { return buffer_.trace(); }
  Trace take_trace() { return buffer_.take_trace(); }
  void set_pipeline_name(std::string name) {
    buffer_.set_pipeline_name(std::move(name));
  }

  const TraceBuffer& buffer() const { return buffer_; }
  TraceBuffer& buffer() { return buffer_; }

 private:
  using Clock = std::chrono::steady_clock;
  void detach();

  TraceBuffer buffer_;
  Session* observed_ = nullptr;
  std::uint16_t key_latency_ = 0;
  std::uint16_t key_peak_memory_ = 0;
  std::uint16_t key_sensor_latency_ = 0;
  std::optional<Clock::time_point> inf_start_;  // cleared by next_frame()
  Clock::time_point sensor_start_{};
};

}  // namespace mlexray
