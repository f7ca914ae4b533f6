// Model: an immutable, shareable prepared model — the "load once" half of
// the serving API.
//
// A Model bundles everything about a deployment artifact that is identical
// for every caller: the Graph (weights, shapes, quant params), the
// ExecutionPlan (kernels resolved once, prepare hooks run once), and the
// plan-owned PreparedStorage (packed GEMM B panels, requantization tables).
// Building a Model pays the full Prepare cost exactly once; afterwards the
// object is strictly read-only, so any number of Sessions — including
// Sessions invoking concurrently from different threads — can execute it
// without synchronization. N concurrent clients share one copy of
// prepared_bytes instead of paying N× prepare time and N× memory.
//
//   Model model(std::move(graph), &resolver);   // prepare once
//   Session a(&model), b(&model);               // serve many
//
// A single caller uses the same pair, declaring the Model first so it
// outlives its Session. The Engine (src/interpreter/engine.h) adds a named
// registry and a session pool on top.
//
// Building a Model also plans where a lean Session keeps its activations
// (ActivationLayout below): one block per session, sized by liveness over
// plan order rather than by the sum of every node's output.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/interpreter/execution_plan.h"

namespace mlexray {

// Where each node's output lives in a lean Session's one activation block.
// A node's output is live from its own plan step to its last consumer's
// step; graph inputs and outputs are pinned, live for the whole invoke (so
// set_input before invoke and output() after it always see them). Offsets
// come from greedy-by-size placement, TFLite's arena-planner strategy:
// largest tensor first, at the lowest 64-byte-aligned offset that overlaps
// no already-placed tensor whose live range intersects its own.
//
// ASan builds place each region with kLayoutRedzone more bytes than it
// holds. The Session keeps that gap poisoned, so a kernel that writes past
// its output trips ASan even when the next region is live in the same step.
struct ActivationLayout {
  std::vector<std::size_t> offsets;  // per node id, from the block start
  std::vector<bool> pinned;          // per node id: a graph input or output
  std::size_t block_bytes = 0;
};

#if defined(__SANITIZE_ADDRESS__)
inline constexpr std::size_t kLayoutRedzone = 64;
#else
inline constexpr std::size_t kLayoutRedzone = 0;
#endif

class Model {
 public:
  // Owning: moves the graph in, so the Model is self-contained (the Engine's
  // load path). resolver must outlive the Model. num_threads > 1 gives the
  // model its OWN bounded worker set of at most num_threads - 1 threads,
  // clamped to the host's spare cores (ThreadPool::workers_for; the
  // invoking thread participates as worker 0), and num_threads is a hard
  // participant cap: no parallel_for issued by this model's sessions ever
  // uses more than num_threads threads. Different models' pools are fully
  // independent — concurrent sessions do not serialize across models.
  Model(Graph graph, const OpResolver* resolver, int num_threads = 1);

  // Non-owning: graph must outlive the Model (call sites that keep the
  // Graph alive themselves, e.g. to run it under several resolvers).
  Model(const Graph* graph, const OpResolver* resolver, int num_threads = 1);

  // Shared-pool variant (the Engine's load path): the model fans work onto
  // the caller-owned `shared_pool` — which may serve many models at once;
  // the pool runs concurrent jobs side by side — but never with more than
  // num_threads participants per job. shared_pool must outlive the Model;
  // nullptr or num_threads <= 1 runs kernels single-threaded.
  Model(Graph graph, const OpResolver* resolver, ThreadPool* shared_pool,
        int num_threads);

  Model(const Model&) = delete;
  Model& operator=(const Model&) = delete;

  const Graph& graph() const { return *graph_; }
  const OpResolver& resolver() const { return *resolver_; }
  const ExecutionPlan& plan() const { return *plan_; }
  // The capped pool view the plan hands to the steps that fan out
  // (PlanStep::pool); null when the model runs single-threaded.
  PoolRef pool() const { return pool_ref_; }
  // The num_threads this model honors (>= 1): the max participants of any
  // parallel_for a session of this model submits.
  int thread_cap() const { return thread_cap_; }
  const std::string& name() const { return graph_->name; }

  // Ids of the graph's kInput nodes, in insertion order (cached so sessions
  // don't rebuild the vector).
  const std::vector<int>& input_ids() const { return input_ids_; }

  // Bytes of plan-owned prepared storage — paid once, shared by every
  // session.
  std::size_t prepared_bytes() const { return plan_->prepared_bytes(); }

  // The lean sessions' activation layout, computed once at build.
  const ActivationLayout& activation_layout() const { return layout_; }

  // One-time Prepare wall clock (plan construction, weight packing, layout).
  double prepare_ms() const { return prepare_ms_; }

 private:
  void build(ThreadPool* shared_pool, int num_threads);

  std::unique_ptr<const Graph> owned_graph_;  // null in the non-owning case
  const Graph* graph_;
  const OpResolver* resolver_;
  std::unique_ptr<ThreadPool> owned_pool_;  // per-model worker set (if any)
  PoolRef pool_ref_;  // owned or shared pool + thread_cap_; null => inline
  int thread_cap_ = 1;
  std::unique_ptr<ExecutionPlan> plan_;
  std::vector<int> input_ids_;
  ActivationLayout layout_;
  double prepare_ms_ = 0.0;
};

}  // namespace mlexray
