// ExecutionPlan: the shared, session-independent half of the Prepare/Invoke
// split.
//
// Mirrors the plan-then-invoke structure of production edge runtimes (TFLite
// on the paper's Pixel 4 setup): everything that can be resolved once per
// *model* — kernel lookups, one-time prepare hooks, packed weight panels,
// requantization tables, and whether each step fans out onto the thread
// pool — is done at plan construction. The plan holds no
// per-caller state: activation tensors and the scratch arena belong to a
// Session (src/interpreter/session.h), which wires its own kernel contexts
// against these steps. That split is what lets N concurrent sessions share
// one plan (prepare once, serve many) while Invoke stays a flat walk with
// zero per-node setup and zero heap allocation.
#pragma once

#include <memory>
#include <vector>

#include "src/graph/graph.h"
#include "src/kernels/op_resolver.h"

namespace mlexray {

// One prepared node execution: the resolved kernel, the plan-owned storage
// its prepare hook filled (null for kernels with no one-time work), and the
// pool its kernel runs on. Per-session tensor wiring lives in the Session's
// contexts, not here.
struct PlanStep {
  const Node* node = nullptr;
  const KernelEntry* kernel = nullptr;  // owned by the resolver's kernel map
  PreparedStorage* prepared = nullptr;  // plan-owned; read-only after build
  // The plan's pool when the step's plan-time multiply-accumulates
  // (estimate_node_cost(...).flops / 2) pay for a pool rendezvous, a null
  // ref (inline) otherwise. Kernels fan out on whatever they are handed;
  // this is the model's one fan-out decision.
  PoolRef pool;
};

class ExecutionPlan {
 public:
  // Resolves every non-input node of `graph` against `resolver`, decides
  // each step's pool (`pool` or none; see PlanStep::pool), and runs each
  // kernel's prepare hook exactly once. Prepare hooks see a context wired to
  // transient metadata tensors (shapes, dtypes, quant params are final;
  // activation *data* must not be read — the same contract as before) and
  // to the step's pool. Prepared results live in plan-owned PreparedStorage
  // for the plan's lifetime. graph and resolver must outlive the plan.
  ExecutionPlan(const Graph& graph, const OpResolver& resolver, PoolRef pool);

  const std::vector<PlanStep>& steps() const { return steps_; }

  // Executable (non-input) node count — the number of on_step callbacks an
  // InvokeObserver sees per invoke; observers pre-size capture storage by it.
  std::size_t step_count() const { return steps_.size(); }

  // Bytes held across all steps' prepared storage (packed weights etc.) —
  // the memory cost of plan-time packing, read as Model::prepared_bytes().
  // Shared across every session executing this plan.
  std::size_t prepared_bytes() const;

 private:
  std::vector<PlanStep> steps_;
  // One slot per step with a prepare hook; pointers handed to steps stay
  // stable because the storage objects are individually heap-owned.
  std::vector<std::unique_ptr<PreparedStorage>> prepared_;
};

}  // namespace mlexray
