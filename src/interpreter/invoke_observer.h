// Push-based observability hooks for the Invoke phase of a Session.
//
// ML-EXray's per-layer instrumentation used to *pull* data after invoke: walk
// the model, deep-copy every retained activation, O(model size) heap churn
// per frame. An InvokeObserver instead rides along the prepared-step walk:
// the session fires on_step as each node finishes, handing the observer the
// step's output tensor and wall clock. The observer decides what (if
// anything) to copy — TraceBuffer (src/core/trace_buffer.h)
// captures into pre-sized storage so a steady-state instrumented invoke stays
// heap-free, preserving the paper's <0.4% overhead budget (Table 2).
//
// This is the one way to read an intermediate layer: a Session keeps its
// activations in one planned block, and after invoke serves only the graph
// inputs and outputs. EdgeMLMonitor (per-layer capture), the Calibrator
// (activation ranges) and the Engine canary (per-layer drift) all read
// layers here.
//
// Contract: hooks run on the invoke thread, between kernel executions. They
// must not call back into the session's mutating API, must not retain the
// tensor reference past the callback (it is a view into the session's
// activation block, whose bytes a later step of the same invoke may reuse),
// and should not allocate in steady state — that
// includes digest capture (src/drift/digest.h): per-layer sketches
// accumulated in on_step are fixed-size inline storage, reset and refilled
// in place per frame. The observer must stay alive while attached; detach
// with Session::set_observer(nullptr) before destroying it. Observers are
// per-session: two sessions sharing one Model attach two independent
// observers.
#pragma once

#include <cstddef>

namespace mlexray {

struct Node;
class Tensor;
struct SessionStats;
struct InvokeStatus;

class InvokeObserver {
 public:
  virtual ~InvokeObserver() = default;

  // Start of invoke(), before the first step. step_count is the number of
  // on_step calls that will follow (the plan's executable node count).
  virtual void on_invoke_begin(std::size_t step_count) { (void)step_count; }

  // One prepared step finished: the node, its output (raw dtype — int8
  // activations arrive as int8; valid only during the call), and the
  // step's wall clock.
  virtual void on_step(const Node& node, const Tensor& output,
                       double latency_ms) {
    (void)node;
    (void)output;
    (void)latency_ms;
  }

  // End of invoke(), after the last step; stats carry total_ms and the
  // refreshed arena high-water mark.
  virtual void on_invoke_end(const SessionStats& stats) { (void)stats; }

  // A guarded invoke ended early: a contained kernel failure (kError — the
  // session is now poisoned) or a cooperative deadline expiry
  // (kDeadlineExceeded). Fired instead of on_invoke_end; the frame holds
  // the steps captured before the failure. Observers use this to account
  // failed frames without ever seeing partial activations as a completed
  // invoke.
  virtual void on_invoke_error(const InvokeStatus& status) { (void)status; }
};

}  // namespace mlexray
