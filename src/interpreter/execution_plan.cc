#include "src/interpreter/execution_plan.h"

#include "src/common/fault_injection.h"
#include "src/interpreter/device_profile.h"

namespace mlexray {

namespace {
// Below this many multiply-accumulates a step runs on the calling thread:
// the pool rendezvous would cost more than the arithmetic.
constexpr double kMinMacsForPool = 64 * 1024;
}  // namespace

ExecutionPlan::ExecutionPlan(const Graph& graph, const OpResolver& resolver,
                             PoolRef pool) {
  // Load-failure fault point: a throw here aborts Model construction before
  // any prepare hook runs, so Engine::load fails cleanly — hot-swap tests
  // use it to assert a failed v2 load leaves v1 serving.
  if (fault::enabled()) fault::check(fault_sites::kPlanPrepare);
  std::size_t executable = 0;
  for (const Node& n : graph.nodes) {
    if (n.type != OpType::kInput) ++executable;
  }
  steps_.reserve(executable);
  for (const Node& n : graph.nodes) {
    if (n.type == OpType::kInput) continue;
    PlanStep step;
    step.node = &n;
    step.kernel = &resolver.find(n);  // throws MlxError if unsupported
    if (estimate_node_cost(graph, n).flops / 2 >= kMinMacsForPool) {
      step.pool = pool;
    }
    steps_.push_back(step);
  }

  // Run the one-time prepare hooks. Each hook sees a context wired to
  // transient tensors for just its own node — shapes, weights, and quant
  // params are final here; activation *data* is scratch and hooks must not
  // read it. Scoping the tensors per step keeps the plan-build memory peak
  // at one node's I/O, not the whole model's activation footprint.
  for (PlanStep& step : steps_) {
    if (!step.kernel->prepare) continue;
    prepared_.push_back(std::make_unique<PreparedStorage>());
    step.prepared = prepared_.back().get();

    const Node& n = *step.node;
    Tensor output(n.output_dtype, n.output_shape);
    output.quant() = n.output_quant;
    std::vector<Tensor> inputs;
    inputs.reserve(n.inputs.size());
    for (int in : n.inputs) {
      const Node& producer = graph.node(in);
      Tensor t(producer.output_dtype, producer.output_shape);
      t.quant() = producer.output_quant;
      inputs.push_back(std::move(t));
    }

    KernelContext ctx;
    ctx.node = &n;
    ctx.output = &output;
    ctx.pool = step.pool;
    ctx.prepared = step.prepared;
    ctx.inputs.reserve(inputs.size());
    for (const Tensor& t : inputs) ctx.inputs.push_back(&t);
    step.kernel->prepare(ctx);
  }
}

std::size_t ExecutionPlan::prepared_bytes() const {
  std::size_t total = 0;
  for (const auto& storage : prepared_) total += storage->bytes();
  return total;
}

}  // namespace mlexray
