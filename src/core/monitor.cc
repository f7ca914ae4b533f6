#include "src/core/monitor.h"

#include "src/tensor/alloc_stats.h"

namespace mlexray {

EdgeMLMonitor::EdgeMLMonitor(MonitorOptions options) : buffer_(options) {
  key_latency_ = buffer_.intern_key(trace_keys::kInferenceLatencyMs);
  key_peak_memory_ = buffer_.intern_key(trace_keys::kPeakMemoryBytes);
  key_sensor_latency_ = buffer_.intern_key(trace_keys::kSensorLatencyMs);
}

// Detach from the currently observed session — but only if it is still
// *our* buffer attached there: another monitor may have observed the same
// session since, and clearing its observer would silently stop that
// monitor's push capture.
void EdgeMLMonitor::detach() {
  if (observed_ == nullptr) return;
  if (observed_->observer() == &buffer_) observed_->set_observer(nullptr);
  observed_ = nullptr;
}

EdgeMLMonitor::~EdgeMLMonitor() { detach(); }

void EdgeMLMonitor::observe(Session& session) {
  // Not just a pointer check: a pooled session handed back by the Engine
  // has its observer cleared on release, so re-observing the same session
  // after a release/acquire round trip must re-attach, not early-return.
  if (observed_ == &session && session.observer() == &buffer_) return;
  detach();
  buffer_.bind(session);
  session.set_observer(&buffer_);
  observed_ = &session;
}

void EdgeMLMonitor::unobserve(Session& session) {
  if (observed_ != &session) return;
  detach();
}

void EdgeMLMonitor::on_inf_start() { inf_start_ = Clock::now(); }

void EdgeMLMonitor::on_inf_stop(const Session& session) {
  // Checks the captured state, not session.observer() == &buffer_: a
  // forwarding observer in front of the buffer (a tracer) still captures.
  MLX_CHECK(buffer_.bound_to(session) && buffer_.captured_invoke())
      << "on_inf_stop: no invoke of this session was captured this frame; "
         "attach the monitor with observe() before invoking the session";
  if (inf_start_) {
    // The façade's bracket includes observer capture cost, matching what
    // the instrumented app experiences; it overwrites the invoke-only total
    // the buffer recorded.
    buffer_.set_scalar(
        key_latency_,
        std::chrono::duration<double, std::milli>(Clock::now() - *inf_start_)
            .count());
  }
  // High-water mark of all tracked allocations (tensors, arena blocks,
  // prepared weight panels) — a real peak, not the instantaneous level.
  buffer_.set_scalar(
      key_peak_memory_,
      static_cast<double>(AllocStats::instance().peak_bytes()));
}

void EdgeMLMonitor::on_sensor_start() { sensor_start_ = Clock::now(); }

void EdgeMLMonitor::on_sensor_stop() {
  buffer_.set_scalar(
      key_sensor_latency_,
      std::chrono::duration<double, std::milli>(Clock::now() - sensor_start_)
          .count());
}

void EdgeMLMonitor::log_tensor(const std::string& key, const Tensor& value) {
  buffer_.log_tensor(buffer_.intern_key(key), value);
}

void EdgeMLMonitor::log_scalar(const std::string& key, double value) {
  buffer_.set_scalar(buffer_.intern_key(key), value);
}

void EdgeMLMonitor::next_frame() {
  inf_start_.reset();
  buffer_.next_frame();
}

void EdgeMLMonitor::spool_to(const std::filesystem::path& path) {
  buffer_.open_spool(path);
}

std::size_t EdgeMLMonitor::finish_spool() { return buffer_.close_spool(); }

}  // namespace mlexray
