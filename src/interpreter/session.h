// Session: the lightweight per-caller half of the serving API.
//
// A Session executes a shared, immutable Model. Everything mutable per
// caller lives here: the activations, the scratch arena for kernel
// temporaries, the invoke statistics, and the optional InvokeObserver
// (TraceBuffer) — so observers attach per-session while weights and
// prepared packing stay shared. Construction is cheap relative to Model
// building (no kernel resolution, no weight packing); steady-state invoke()
// performs zero heap allocations, which the alloc_stats-based regression
// tests enforce per session even when many sessions run the same Model
// concurrently.
//
// A session's activations are one block laid out by the Model's
// ActivationLayout, with a view per node into it, so a layer's bytes are
// reused once its last consumer has run; after invoke only the graph inputs
// and outputs can be read. Every layer is read while its step runs: an
// InvokeObserver sees each step's output before a later step may reuse its
// bytes (EdgeMLMonitor, the Calibrator and the Engine canary all read
// layers this way). Code that wants a layer after invoke copies it there,
// or builds its Model from a graph whose outputs list that layer (outputs
// are pinned).
//
// Thread safety: a Session is single-threaded (one invoke at a time), but
// different Sessions over the same Model may invoke concurrently from
// different threads — the Model is read-only after construction.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/interpreter/model.h"
#include "src/tensor/scratch_arena.h"

namespace mlexray {

class InvokeObserver;

// Outcome of a guarded invoke (Session::try_invoke).
enum class InvokeCode {
  kOk = 0,
  // A kernel threw MlxError mid-walk. The session is poisoned: its
  // activations are partially written and it refuses further invokes; a
  // pooled session is destroyed instead of re-pooled on lease release.
  kError,
  // The cooperative per-invoke deadline expired at a step boundary. The
  // activations are partial but the session is *not* poisoned — the next
  // invoke overwrites them from the top.
  kDeadlineExceeded,
  // try_invoke was called on an already-poisoned session; nothing ran.
  kPoisoned,
};

struct InvokeStatus {
  InvokeCode code = InvokeCode::kOk;
  // Plan-step index / node id where the failure or deadline hit (-1 when ok
  // or when nothing ran).
  int failed_step = -1;
  int failed_node_id = -1;
  // The MlxError text for kError; empty otherwise (so the success path never
  // allocates).
  std::string message;

  bool ok() const { return code == InvokeCode::kOk; }
};

struct SessionStats {
  // One-time Prepare cost: the shared Model build (plan construction,
  // weight packing, activation layout) plus this session's activation
  // allocation and wiring.
  double prepare_ms = 0.0;
  // Wall clock of the most recent invoke.
  double total_ms = 0.0;
  // Per-node wall clock of the most recent invoke, indexed by node id; reset
  // at the start of every invoke (kInput nodes stay 0).
  std::vector<double> per_node_ms;
  // Guarded-invoke outcomes: kernel errors contained by try_invoke (each one
  // poisons the session, so this is 0 or 1 in practice) and cooperative
  // deadline expiries (recoverable; the session keeps serving).
  std::uint64_t invoke_errors = 0;
  std::uint64_t deadline_exceeded = 0;
  // Memory visibility: this session's scratch-arena high-water mark
  // (refreshed after every invoke). The plan-owned prepared storage it
  // shares with every session of the Model (packed weight panels,
  // requantization tables) is Model::prepared_bytes(). Latency wins from
  // plan-time packing must not hide their memory cost.
  std::size_t arena_high_water_bytes = 0;
};

class Session {
 public:
  // model must outlive the session.
  explicit Session(const Model* model);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // Copies `value` into the i-th model input (shape and dtype checked).
  void set_input(int input_index, const Tensor& value);

  // Direct mutable access to the i-th model input slot, for callers that
  // assemble the input in place (e.g. the FrontDoor batcher memcpys one
  // request row at a time instead of staging a full batch tensor). The
  // caller owns shape discipline: the tensor's shape/dtype must not change
  // (the slot is a view into the activation block, and assigning a tensor
  // of another shape or dtype onto it throws).
  Tensor& mutable_input(int input_index);

  // Runs all nodes in topological order over the shared prepared plan.
  // Throws MlxError on kernel failure (and poisons the session — see
  // try_invoke); serving paths that must not unwind use try_invoke instead.
  void invoke();

  // Guarded invoke: runs the same prepared walk but catches MlxError at the
  // session boundary and reports it (with the failing step) as a status
  // instead of unwinding into the caller. A kernel throw poisons the
  // session: partial activations are never served, and the Engine destroys
  // a poisoned session instead of re-pooling it on lease release.
  //
  // deadline_ms > 0 arms a cooperative per-invoke deadline, checked at step
  // boundaries before each kernel runs: when it expires the walk stops with
  // kDeadlineExceeded (no poisoning — the session is reusable). A kernel
  // that is already running is never interrupted, so the overshoot is
  // bounded by one step's latency.
  //
  // The success path performs zero heap allocations, same as invoke().
  InvokeStatus try_invoke(double deadline_ms = 0.0);

  // Same guarded walk against an absolute steady-clock deadline — the
  // precise form for schedulers that already hold a request's admission
  // timestamp (avoids re-quantizing through a relative double). A deadline
  // already in the past stops at the first step boundary with
  // kDeadlineExceeded (nothing runs, no poisoning).
  InvokeStatus try_invoke_until(std::chrono::steady_clock::time_point deadline);

  // True once a kernel failure was contained (or escaped) mid-walk; the
  // session refuses further invokes.
  bool poisoned() const { return poisoned_; }

  // True when the most recent invoke ran every step to completion, i.e. the
  // activations form one coherent frame. False before any invoke and after
  // a contained error or deadline expiry (partial activations). The
  // Engine's canary mode consults this so it never diffs a half-written
  // frame against the reference.
  bool last_invoke_ok() const { return last_invoke_ok_; }

  // Attaches a push-based observability sink (src/interpreter/
  // invoke_observer.h): invoke() fires on_invoke_begin / on_step /
  // on_invoke_end as it walks the plan. Non-owning; the observer must
  // outlive the attachment (pass nullptr to detach before destroying it).
  void set_observer(InvokeObserver* observer) { observer_ = observer; }
  InvokeObserver* observer() const { return observer_; }

  // The i-th model output of the last invoke.
  const Tensor& output(int output_index = 0) const;

  // A graph input's or output's tensor after invoke. Any other node throws
  // MlxError: its bytes may already hold a later layer's output, so it is
  // read while its step runs (see the file comment).
  const Tensor& node_output(int node_id) const;

  const Model& model() const { return *model_; }
  const Graph& graph() const { return model_->graph(); }
  const ExecutionPlan& plan() const { return model_->plan(); }
  const SessionStats& last_stats() const { return stats_; }
  const ScratchArena& scratch_arena() const { return arena_; }

  // Bytes held by this session's activations: the planned block.
  std::size_t activation_bytes() const;

 private:
  InvokeStatus guarded_invoke(bool has_deadline,
                              std::chrono::steady_clock::time_point deadline);
  // ASan builds only: makes step i's unpinned inputs and output addressable
  // (expose) or poisoned again, so a kernel that writes past its output
  // inside the block trips ASan unless the bytes it hits belong to a tensor
  // of the same step. A no-op in other builds.
  void asan_step(std::size_t i, bool expose);

  const Model* model_;
  ScratchArena arena_;
  // The activation block, with alignment slack so the layout's 64-byte
  // offsets are 64-byte addresses.
  Tensor block_;
  // One view into block_ per node id.
  std::vector<Tensor> activations_;
  // One wired context per plan step (inputs/output point into activations_,
  // arena/pool/prepared attached); built once, reused verbatim every invoke.
  std::vector<KernelContext> contexts_;
  SessionStats stats_;
  InvokeObserver* observer_ = nullptr;
  bool poisoned_ = false;
  bool last_invoke_ok_ = false;
};

}  // namespace mlexray
