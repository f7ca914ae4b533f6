#include "src/interpreter/model.h"

#include <chrono>

namespace mlexray {

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
  prepare_ms_ =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

}  // namespace mlexray
