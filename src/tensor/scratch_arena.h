// Per-session scratch arena for kernel temporaries.
//
// Kernels need short-lived buffers (the implicit-GEMM conv's per-worker
// patch tiles, softmax rows). Allocating them as std::vectors inside every
// kernel call puts malloc/free on the hot path of every node of every
// invoke — exactly the overhead ML-EXray's <0.4% instrumentation budget
// (Table 2) cannot absorb. The arena bump-allocates from blocks that persist
// across invokes: the first invoke grows it to the model's high-water mark,
// every later invoke reuses the same memory with zero heap traffic.
//
// reset() rewinds all blocks without releasing them; it is called by the
// session before each node. Blocks are chained (never reallocated or
// moved), so pointers handed out earlier in the same node stay valid when a
// later request forces growth.
//
// Not thread-safe: all allocation happens on the invoking thread before a
// kernel fans work out to the pool. Kernels that need per-worker storage
// allocate KernelContext::worker_count() slices up front and index them by
// the parallel_for_workers worker id.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace mlexray {

class ScratchArena {
 public:
  ScratchArena() = default;
  ~ScratchArena();

  ScratchArena(const ScratchArena&) = delete;
  ScratchArena& operator=(const ScratchArena&) = delete;

  // Returns `bytes` of storage aligned to `align` (power of two). The memory
  // is valid until the next reset(). Growth (a heap allocation) only happens
  // when the request exceeds remaining capacity — steady state is
  // allocation-free.
  void* allocate(std::size_t bytes, std::size_t align = kDefaultAlign);

  template <typename T>
  T* allocate_array(std::size_t count) {
    return static_cast<T*>(allocate(count * sizeof(T), alignof(T) > kDefaultAlign
                                                           ? alignof(T)
                                                           : kDefaultAlign));
  }

  // Rewinds every block; capacity is retained.
  void reset();

  // Bytes reserved across all blocks.
  std::size_t capacity_bytes() const { return capacity_; }
  // Largest total in use observed since construction.
  std::size_t high_water_bytes() const { return high_water_; }

  // Cache-line alignment so scratch rows don't false-share across workers.
  static constexpr std::size_t kDefaultAlign = 64;

 private:
  struct Block {
    std::unique_ptr<std::uint8_t[]> data;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  void grow(std::size_t min_bytes);

  std::vector<Block> blocks_;
  std::size_t active_ = 0;  // index of the block currently bumping
  std::size_t capacity_ = 0;
  std::size_t in_use_ = 0;
  std::size_t high_water_ = 0;
};

}  // namespace mlexray
