#include "src/interpreter/model.h"

#include <algorithm>
#include <chrono>
#include <numeric>

namespace mlexray {

namespace {

constexpr std::size_t kOffsetAlign = 64;

ActivationLayout plan_activation_layout(const Graph& graph,
                                        const ExecutionPlan& plan) {
  const std::size_t n = graph.nodes.size();
  const auto& steps = plan.steps();
  // Live range [first, last] in plan steps; pinned tensors span the walk
  // and one step beyond each end (before invoke, after it).
  const int after_invoke = static_cast<int>(steps.size());
  std::vector<int> first(n, -1), last(n, -1);
  for (std::size_t s = 0; s < steps.size(); ++s) {
    const Node& node = *steps[s].node;
    const auto id = static_cast<std::size_t>(node.id);
    first[id] = static_cast<int>(s);
    last[id] = std::max(last[id], static_cast<int>(s));
    for (int in : node.inputs) {
      int& end = last[static_cast<std::size_t>(in)];
      end = std::max(end, static_cast<int>(s));
    }
  }
  ActivationLayout layout;
  layout.offsets.assign(n, 0);
  layout.pinned.assign(n, false);
  for (int id : graph.input_ids()) {
    layout.pinned[static_cast<std::size_t>(id)] = true;
  }
  for (int id : graph.outputs) {
    layout.pinned[static_cast<std::size_t>(id)] = true;
  }
  // What each region takes up in the block: its bytes, plus the poisoned
  // gap that follows it in ASan builds.
  std::vector<std::size_t> bytes(n);
  for (std::size_t id = 0; id < n; ++id) {
    const Node& node = graph.nodes[id];
    bytes[id] =
        tensor_bytes(node.output_dtype, node.output_shape) + kLayoutRedzone;
    if (layout.pinned[id]) {
      first[id] = -1;
      last[id] = after_invoke;
    }
  }

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return bytes[a] != bytes[b] ? bytes[a] > bytes[b] : a < b;
  });
  std::vector<std::size_t> placed;
  std::vector<std::pair<std::size_t, std::size_t>> busy;  // [begin, end)
  for (std::size_t id : order) {
    busy.clear();
    for (std::size_t other : placed) {
      if (first[other] <= last[id] && first[id] <= last[other]) {
        busy.emplace_back(layout.offsets[other],
                          layout.offsets[other] + bytes[other]);
      }
    }
    std::sort(busy.begin(), busy.end());
    std::size_t offset = 0;
    for (const auto& [begin, end] : busy) {
      if (offset + bytes[id] <= begin) break;
      offset = std::max(offset, (end + kOffsetAlign - 1) / kOffsetAlign *
                                    kOffsetAlign);
    }
    layout.offsets[id] = offset;
    layout.block_bytes = std::max(layout.block_bytes, offset + bytes[id]);
    placed.push_back(id);
  }
  return layout;
}

}  // namespace

Model::Model(Graph graph, const OpResolver* resolver, int num_threads)
    : owned_graph_(std::make_unique<const Graph>(std::move(graph))),
      graph_(owned_graph_.get()),
      resolver_(resolver) {
  build(/*shared_pool=*/nullptr, num_threads);
}

Model::Model(const Graph* graph, const OpResolver* resolver, int num_threads)
    : graph_(graph), resolver_(resolver) {
  build(/*shared_pool=*/nullptr, num_threads);
}

Model::Model(Graph graph, const OpResolver* resolver, ThreadPool* shared_pool,
             int num_threads)
    : owned_graph_(std::make_unique<const Graph>(std::move(graph))),
      graph_(owned_graph_.get()),
      resolver_(resolver) {
  build(shared_pool, num_threads);
}

void Model::build(ThreadPool* shared_pool, int num_threads) {
  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  MLX_CHECK(graph_ != nullptr);
  MLX_CHECK(resolver_ != nullptr);
  graph_->validate();
  // num_threads is a hard participant cap, not a hint: a request for k
  // threads gets a pool view whose every parallel_for is capped at k
  // participants (the invoking thread plus at most k - 1 workers). With no
  // shared pool the model owns its worker set outright — sized by
  // ThreadPool::workers_for, so it never outgrows the host's cores — and
  // concurrent models never contend for submission slots.
  thread_cap_ = num_threads > 1 ? num_threads : 1;
  if (thread_cap_ > 1) {
    if (shared_pool == nullptr) {
      owned_pool_ =
          std::make_unique<ThreadPool>(ThreadPool::workers_for(thread_cap_));
      shared_pool = owned_pool_.get();
    }
    pool_ref_ = PoolRef(shared_pool, static_cast<std::size_t>(thread_cap_));
  }
  input_ids_ = graph_->input_ids();
  MLX_CHECK(!input_ids_.empty()) << "graph has no inputs";
  plan_ = std::make_unique<ExecutionPlan>(*graph_, *resolver_, pool_ref_);
  layout_ = plan_activation_layout(*graph_, *plan_);
  prepare_ms_ =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

}  // namespace mlexray
