#include "src/interpreter/session.h"

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "src/common/fault_injection.h"
#include "src/interpreter/invoke_observer.h"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace mlexray {

namespace {
using Clock = std::chrono::steady_clock;

// The block's base address alignment, matching the layout's offsets.
constexpr std::size_t kBlockAlign = 64;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// Fault-injection payload corruption (fault_sites::kInvokeOutput): the NaN
// lands in the step's output, so observers and validation see exactly what a
// numerically-broken kernel would have produced.
void poke_nan(Tensor& t) {
  if (t.dtype() == DType::kF32 && t.num_elements() > 0) {
    t.data<float>()[0] = std::numeric_limits<float>::quiet_NaN();
  }
}
}  // namespace

Session::Session(const Model* model) : model_(model) {
  const auto start = Clock::now();
  MLX_CHECK(model != nullptr);
  const Graph& graph = model_->graph();

  // One zeroed block, counted as one allocation; each node's output is a
  // view at its planned offset. The vector is sized once and never grows:
  // the contexts wire raw pointers into it.
  const ActivationLayout& layout = model_->activation_layout();
  block_ = Tensor::u8(
      Shape{static_cast<std::int64_t>(layout.block_bytes + kBlockAlign - 1)});
  std::uint8_t* base = block_.data<std::uint8_t>();
  const std::uintptr_t misalign =
      reinterpret_cast<std::uintptr_t>(base) % kBlockAlign;
  if (misalign != 0) base += kBlockAlign - misalign;
  activations_.reserve(graph.nodes.size());
  for (const Node& n : graph.nodes) {
    activations_.push_back(
        Tensor(n.output_dtype, n.output_shape, n.output_quant,
               base + layout.offsets[static_cast<std::size_t>(n.id)]));
  }
#if defined(__SANITIZE_ADDRESS__)
  // Only the pinned inputs and outputs stay addressable between steps; the
  // alignment slack around the layout never is.
  ASAN_POISON_MEMORY_REGION(block_.raw_data(), block_.byte_size());
  for (const Node& n : graph.nodes) {
    if (layout.pinned[static_cast<std::size_t>(n.id)]) {
      const Tensor& t = activations_[static_cast<std::size_t>(n.id)];
      ASAN_UNPOISON_MEMORY_REGION(t.raw_data(), t.byte_size());
    }
  }
#endif

  // Wire one context per shared plan step against this session's activations
  // and arena. The plan itself stays untouched — this is the only per-session
  // cost of sharing it.
  const auto& steps = model_->plan().steps();
  contexts_.reserve(steps.size());
  for (const PlanStep& step : steps) {
    KernelContext ctx;
    const Node& n = *step.node;
    ctx.node = &n;
    ctx.output = &activations_[static_cast<std::size_t>(n.id)];
    ctx.pool = step.pool;
    ctx.arena = &arena_;
    ctx.prepared = step.prepared;
    ctx.inputs.reserve(n.inputs.size());
    for (int in : n.inputs) {
      ctx.inputs.push_back(&activations_[static_cast<std::size_t>(in)]);
    }
    contexts_.push_back(std::move(ctx));
  }

  stats_.per_node_ms.assign(graph.nodes.size(), 0.0);
  stats_.prepare_ms = model_->prepare_ms() + ms_since(start);
}

void Session::set_input(int input_index, const Tensor& value) {
  const std::vector<int>& input_ids = model_->input_ids();
  MLX_CHECK_LT(static_cast<std::size_t>(input_index), input_ids.size());
  Tensor& slot = activations_[static_cast<std::size_t>(
      input_ids[static_cast<std::size_t>(input_index)])];
  MLX_CHECK(value.shape() == slot.shape())
      << "input shape " << value.shape().to_string() << " expected "
      << slot.shape().to_string();
  MLX_CHECK(value.dtype() == slot.dtype())
      << "input dtype " << dtype_name(value.dtype()) << " expected "
      << dtype_name(slot.dtype());
  std::memcpy(slot.raw_data(), value.raw_data(), value.byte_size());
}

Tensor& Session::mutable_input(int input_index) {
  const std::vector<int>& input_ids = model_->input_ids();
  MLX_CHECK_LT(static_cast<std::size_t>(input_index), input_ids.size());
  return activations_[static_cast<std::size_t>(
      input_ids[static_cast<std::size_t>(input_index)])];
}

void Session::invoke() {
  const InvokeStatus status = try_invoke();
  if (!status.ok()) throw MlxError(status.message);
}

InvokeStatus Session::try_invoke(double deadline_ms) {
  const bool has_deadline = deadline_ms > 0.0;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::milli>(deadline_ms));
  return guarded_invoke(has_deadline, deadline);
}

InvokeStatus Session::try_invoke_until(Clock::time_point deadline) {
  return guarded_invoke(true, deadline);
}

InvokeStatus Session::guarded_invoke(bool has_deadline,
                                     Clock::time_point deadline) {
  InvokeStatus status;
  if (poisoned_) {
    status.code = InvokeCode::kPoisoned;
    status.message = "session poisoned by an earlier kernel failure";
    return status;
  }
  const auto start_total = Clock::now();
  last_invoke_ok_ = false;  // until every step completes below
  // Reset the per-invoke view.
  std::fill(stats_.per_node_ms.begin(), stats_.per_node_ms.end(), 0.0);
  const auto& steps = model_->plan().steps();
  if (observer_ != nullptr) observer_->on_invoke_begin(steps.size());
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const PlanStep& step = steps[i];
    // Cooperative deadline: checked between kernels only, so a running
    // kernel is never interrupted and the partial state is step-aligned.
    if (has_deadline && Clock::now() >= deadline) {
      status.code = InvokeCode::kDeadlineExceeded;
      status.failed_step = static_cast<int>(i);
      status.failed_node_id = step.node->id;
      ++stats_.deadline_exceeded;
      if (observer_ != nullptr) observer_->on_invoke_error(status);
      return status;
    }
    arena_.reset();
    asan_step(i, /*expose=*/true);
    const auto start = Clock::now();
    try {
      if (fault::enabled()) fault::check(fault_sites::kInvokeStep);
      step.kernel->invoke(contexts_[i]);
    } catch (const MlxError& e) {
      // Containment boundary: the kernel left this session's activations
      // (and possibly its arena wiring) partially written, so the session
      // is poisoned — it refuses further invokes and the Engine destroys
      // it instead of re-pooling on release. The shared Model is read-only
      // during invoke and stays healthy.
      poisoned_ = true;
      ++stats_.invoke_errors;
      status.code = InvokeCode::kError;
      status.failed_step = static_cast<int>(i);
      status.failed_node_id = step.node->id;
      status.message = e.what();
      if (observer_ != nullptr) observer_->on_invoke_error(status);
      return status;
    }
    const double node_ms = ms_since(start);
    const auto id = static_cast<std::size_t>(step.node->id);
    if (fault::enabled() && fault::check(fault_sites::kInvokeOutput)) {
      poke_nan(activations_[id]);
    }
    stats_.per_node_ms[id] = node_ms;
    if (observer_ != nullptr) {
      observer_->on_step(*step.node, activations_[id], node_ms);
    }
    asan_step(i, /*expose=*/false);
  }
  stats_.total_ms = ms_since(start_total);
  stats_.arena_high_water_bytes = arena_.high_water_bytes();
  last_invoke_ok_ = true;
  if (observer_ != nullptr) observer_->on_invoke_end(stats_);
  return status;
}

const Tensor& Session::output(int output_index) const {
  const Graph& graph = model_->graph();
  MLX_CHECK_LT(static_cast<std::size_t>(output_index), graph.outputs.size());
  return activations_[static_cast<std::size_t>(
      graph.outputs[static_cast<std::size_t>(output_index)])];
}

const Tensor& Session::node_output(int node_id) const {
  MLX_CHECK(node_id >= 0 && node_id < static_cast<int>(activations_.size()));
  const auto id = static_cast<std::size_t>(node_id);
  MLX_CHECK(model_->activation_layout().pinned[id])
      << "node '" << graph().nodes[id].name
      << "' is an intermediate layer, whose bytes are reused once its last "
         "consumer has run; read it while its step runs, through an "
         "InvokeObserver or an EdgeMLMonitor with per_layer_outputs";
  return activations_[id];
}

std::size_t Session::activation_bytes() const {
  return model_->activation_layout().block_bytes;
}

void Session::asan_step(std::size_t i, bool expose) {
#if defined(__SANITIZE_ADDRESS__)
  const std::vector<bool>& pinned = model_->activation_layout().pinned;
  const Node& node = *contexts_[i].node;
  const auto mark = [&](int node_id) {
    const auto id = static_cast<std::size_t>(node_id);
    if (pinned[id]) return;
    const Tensor& t = activations_[id];
    if (expose) {
      ASAN_UNPOISON_MEMORY_REGION(t.raw_data(), t.byte_size());
    } else {
      ASAN_POISON_MEMORY_REGION(t.raw_data(), t.byte_size());
    }
  };
  for (int in : node.inputs) mark(in);
  mark(node.id);
#else
  (void)i;
  (void)expose;
#endif
}

}  // namespace mlexray
