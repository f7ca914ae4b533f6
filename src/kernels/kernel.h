// Kernel invocation interface.
//
// A kernel computes one node's output from its activation inputs. Constant
// weights live on the node; quantization parameters travel on the tensors
// (inputs carry theirs, the session pre-sets the output tensor's params
// from node.output_quant before dispatch).
//
// Contexts are wired once per plan step by the Session (inputs/output
// pre-wired, arena and the step's pool attached) and reused verbatim on
// every invoke. Kernel temporaries come from ctx.scratch<T>(): arena-backed,
// valid until the node finishes, heap-free in steady state. One-time results
// (packed weight panels, requantization tables) go into ctx.prepared, the
// plan-owned storage a kernel's optional prepare hook fills at plan
// construction.
//
// Kernels only compute. A kernel that can split its work hands it to
// ctx.pool unconditionally; the ExecutionPlan already decided whether the
// step pays for a fan-out (PlanStep::pool), and a null or one-chunk pool
// runs the range inline.
#pragma once

#include <atomic>

#include "src/common/thread_pool.h"
#include "src/graph/node.h"
#include "src/kernels/prepared_storage.h"
#include "src/tensor/scratch_arena.h"

namespace mlexray {

struct KernelContext {
  const Node* node = nullptr;
  std::vector<const Tensor*> inputs;  // activation inputs, in op order
  Tensor* output = nullptr;           // allocated by the session
  PoolRef pool;                       // the step's pool; null => inline
  ScratchArena* arena = nullptr;      // per-session scratch storage
  // Plan-owned storage filled once by the kernel's prepare hook. A kernel
  // with a prepare hook runs only through an ExecutionPlan (the trainer
  // builds a fresh one every forward); it reads its storage through
  // prepared_root(), which rejects a context without one.
  PreparedStorage* prepared = nullptr;

  const Tensor& input(std::size_t i) const {
    MLX_CHECK_LT(i, inputs.size());
    return *inputs[i];
  }

  // The descriptor this kernel's prepare hook stored.
  template <typename T>
  const T& prepared_root() const {
    MLX_CHECK(prepared) << "node '" << (node ? node->name : "?")
                        << "' has no prepared storage: kernels with a "
                           "prepare hook run only through an ExecutionPlan";
    return *prepared->root<T>();
  }

  // Arena-backed scratch, reset between nodes. Call only from the kernel's
  // entry thread, before fanning out to the pool.
  template <typename T>
  T* scratch(std::int64_t count) const {
    MLX_CHECK(arena != nullptr) << "kernel context has no scratch arena";
    return arena->allocate_array<T>(static_cast<std::size_t>(count));
  }

  // Worker slots a parallel_for_workers body may observe (>= 1): the
  // step's pool and participant cap (PlanStep::pool), which a plan's
  // prepare hooks and its invokes both see. Size per-worker scratch from
  // this.
  std::size_t worker_count() const { return pool.parallelism(); }
};

// Every kernel is a plain function: a plan step calls it through one
// pointer, with no type-erased thunk in between.
using KernelFn = void (*)(const KernelContext&);

// Test switch: while true, the depthwise and int8 elementwise kernels run
// their scalar loops instead of their vector blocks, so the conformance
// grids can assert the two paths byte for byte. Kernels read it once per
// invoke; flip it only between invokes.
inline std::atomic<bool> force_scalar_kernels_for_testing{false};

// A registered kernel: the per-invoke entry point plus an optional prepare
// hook the ExecutionPlan runs exactly once at construction. Prepare hooks
// see the same wired context as invoke (shapes, weights, quant params are
// final by then; activation *data* is not) and stash their results in
// ctx.prepared. The constructor is implicit, so `map[key] = kernel;` and
// `map[key] = {kernel, prepare};` both register.
struct KernelEntry {
  KernelFn invoke;
  KernelFn prepare;  // null for kernels with no one-time work

  KernelEntry(KernelFn invoke_fn = nullptr,  // NOLINT: implicit by design
              KernelFn prepare_fn = nullptr)
      : invoke(invoke_fn), prepare(prepare_fn) {}
};

}  // namespace mlexray
