// Plan-owned per-step storage written once by a kernel's prepare hook.
//
// The Prepare/Invoke split gives kernels a place to do one-time work (packed
// weight panels, requantization tables); the results must live somewhere that
// (a) survives across invokes, unlike the scratch arena which is reset per
// node, and (b) is owned by the ExecutionPlan, so a model's prepared bytes
// are accounted once per Model. PreparedStorage is that place: a bump-style
// owner of 64-byte-aligned buffers, plus a typed "root" pointer through which
// the invoke hook finds its descriptor again.
//
// All allocation happens inside the prepare hook at plan construction;
// steady-state invoke only reads. Buffers register with AllocStats so packed
// weights show up in the same memory accounting as tensors and arena blocks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "src/tensor/alloc_stats.h"

namespace mlexray {

class PreparedStorage {
 public:
  PreparedStorage() = default;
  PreparedStorage(const PreparedStorage&) = delete;
  PreparedStorage& operator=(const PreparedStorage&) = delete;

  ~PreparedStorage() {
    if (bytes_ != 0) AllocStats::instance().remove(bytes_);
  }

  // Uninitialized storage for `count` trivially-destructible Ts, aligned to
  // kAlign, owned until the plan is destroyed.
  template <typename T>
  T* allocate_array(std::size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "prepared storage holds POD data only");
    const std::size_t bytes = count * sizeof(T);
    void* p = ::operator new(bytes ? bytes : 1, std::align_val_t(kAlign));
    buffers_.emplace_back(p);
    bytes_ += bytes;
    AllocStats::instance().add(bytes);
    return static_cast<T*>(p);
  }

  // The kernel's descriptor object: prepare stores it, invoke reads it back.
  // Each kernel pairs its own prepare/invoke hooks, so the cast is safe by
  // construction. Allocate the descriptor itself from this storage.
  void set_root(const void* p) { root_ = p; }
  template <typename T>
  const T* root() const {
    return static_cast<const T*>(root_);
  }

  bool empty() const { return buffers_.empty(); }
  std::size_t bytes() const { return bytes_; }

  static constexpr std::size_t kAlign = 64;

 private:
  struct AlignedFree {
    void operator()(void* p) const {
      ::operator delete(p, std::align_val_t(kAlign));
    }
  };

  std::vector<std::unique_ptr<void, AlignedFree>> buffers_;
  const void* root_ = nullptr;
  std::size_t bytes_ = 0;
};

}  // namespace mlexray
