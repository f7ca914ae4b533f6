// Process-wide tensor memory accounting.
//
// The paper reports the memory footprint of instrumented apps and of offline
// per-layer validation (Tables 2/3/5). Physical RSS is noisy and
// platform-specific, so the runtime tracks its own tensor allocations: every
// Tensor and arena registers its buffer here, giving deterministic
// current/peak byte counts that the EdgeMLMonitor snapshots.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace mlexray {

class AllocStats {
 public:
  static AllocStats& instance();

  void add(std::size_t bytes);
  void remove(std::size_t bytes);

  std::size_t current_bytes() const { return current_.load(); }
  std::size_t peak_bytes() const { return peak_.load(); }

  // Monotonic count of tracked buffer allocations (Tensor buffers and
  // ScratchArena blocks). Steady-state Session::invoke() must not move
  // this counter — the zero-allocation regression tests diff it around an
  // invoke.
  std::uint64_t alloc_events() const { return events_.load(); }

  // Resets the peak to the current level (scoped measurements).
  void reset_peak();

 private:
  std::atomic<std::size_t> current_{0};
  std::atomic<std::size_t> peak_{0};
  std::atomic<std::uint64_t> events_{0};
};

// RAII helper: captures the peak allocation delta within a scope.
class ScopedPeakTracker {
 public:
  ScopedPeakTracker();
  // Peak bytes observed since construction, relative to the starting level.
  std::size_t peak_delta_bytes() const;

 private:
  std::size_t start_current_;
};

}  // namespace mlexray
