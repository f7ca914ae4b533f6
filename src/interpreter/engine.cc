#include "src/interpreter/engine.h"

#include <algorithm>
#include <cstring>

#include "src/tensor/tensor_stats.h"

namespace mlexray {

namespace {
constexpr std::size_t kNpos = static_cast<std::size_t>(-1);
}  // namespace

// One model name's canary: the reference Model + its single shadow Session,
// the sampling counter, and the running per-layer accumulators (indexed by
// reference plan step, so they survive production hot-swaps — only the
// name-based step mapping is rebuilt when the serving version changes).
struct Engine::CanaryState {
  CanaryOptions options;
  std::unique_ptr<Model> model;      // reference
  std::unique_ptr<Session> session;  // rebuilt if a reference invoke poisons it

  // Counters are atomics because release_counter and skipped_busy are
  // bumped without the shadow lock. canary_report() is the only reader of
  // the four report counters.
  std::atomic<std::uint64_t> release_counter{0};
  std::atomic<std::uint64_t> shadowed{0};
  std::atomic<std::uint64_t> skipped_busy{0};
  std::atomic<std::uint64_t> skipped_layout{0};
  std::atomic<std::uint64_t> reference_errors{0};

  // Everything below is guarded by shadow_mu: one shadow at a time, and a
  // contended sample is dropped (skipped_busy), never queued.
  std::mutex shadow_mu;
  std::vector<double> err_sum;  // per reference plan step
  std::vector<std::uint64_t> err_count;
  std::uint64_t mapped_version = 0;  // serving version the mapping is for
  bool mapping_ok = false;
  std::vector<int> prod_node_for_step;  // prod node id per ref step; -1 unmapped
  std::vector<int> prod_input_ids;
  CanaryObserver observer;

  void build_mapping(std::uint64_t version_id, const Graph& prod_graph) {
    mapped_version = version_id;
    mapping_ok = false;
    const Graph& ref_graph = model->graph();
    const std::vector<int> ref_inputs = ref_graph.input_ids();
    const std::vector<int> prod_inputs = prod_graph.input_ids();
    // The reference replays production inputs byte-for-byte, so the input
    // layout must match exactly; a hot-swap to an incompatible model keeps
    // the canary alive but skips frames until the layout matches again.
    if (ref_inputs.size() != prod_inputs.size()) return;
    for (std::size_t i = 0; i < ref_inputs.size(); ++i) {
      const Node& ref_in = ref_graph.node(ref_inputs[i]);
      const Node& prod_in = prod_graph.node(prod_inputs[i]);
      if (!(ref_in.output_shape == prod_in.output_shape) ||
          ref_in.output_dtype != prod_in.output_dtype) {
        return;
      }
    }
    prod_input_ids = prod_inputs;
    // Steps align by node name (per_layer_drift's rule): layers the
    // production graph renamed or dropped simply stop sampling.
    const auto& steps = model->plan().steps();
    prod_node_for_step.assign(steps.size(), -1);
    for (std::size_t s = 0; s < steps.size(); ++s) {
      for (const Node& n : prod_graph.nodes) {
        if (n.name == steps[s].node->name) {
          prod_node_for_step[s] = n.id;
          break;
        }
      }
    }
    mapping_ok = true;
  }

  // Requires shadow_mu held; prod's activations are owned by the releasing
  // thread until release() takes the pool lock.
  void shadow_locked(std::uint64_t version_id, const Graph& prod_graph,
                     const Session& prod) {
    if (mapped_version != version_id) build_mapping(version_id, prod_graph);
    if (!mapping_ok) {
      skipped_layout.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    for (std::size_t i = 0; i < prod_input_ids.size(); ++i) {
      const Tensor& src = prod.node_output(prod_input_ids[i]);
      Tensor& dst = session->mutable_input(static_cast<int>(i));
      MLX_CHECK_EQ(dst.byte_size(), src.byte_size());
      std::memcpy(dst.raw_data(), src.raw_data(), src.byte_size());
    }
    const InvokeStatus status = session->try_invoke();
    if (!status.ok()) {
      reference_errors.fetch_add(1, std::memory_order_relaxed);
      if (session->poisoned()) {
        session =
            std::make_unique<Session>(model.get(), Retention::kPreserveAll);
      }
      return;
    }
    CanaryShadowEvent event;
    event.shadow_index = shadowed.fetch_add(1, std::memory_order_relaxed) + 1;
    // The per-frame report allocates, so it is built only for an observer.
    const bool observed = static_cast<bool>(observer);
    event.frame.threshold = options.drift_threshold;
    const auto& steps = model->plan().steps();
    for (std::size_t s = 0; s < steps.size(); ++s) {
      const int prod_id = prod_node_for_step[s];
      if (prod_id < 0) continue;
      // Paper metric, same direction as per_layer_drift: the edge
      // (production) activations against the reference's, normalized by the
      // reference value range.
      const double err = normalized_rmse(
          prod.node_output(prod_id), session->node_output(steps[s].node->id));
      err_sum[s] += err;
      ++err_count[s];
      if (observed) event.frame.add(steps[s].node->name, err, 1);
    }
    if (observed) observer(event);
  }

  // Requires shadow_mu held.
  CanaryReport report_locked() const {
    CanaryReport report;
    report.enabled = true;
    report.shadowed = shadowed.load(std::memory_order_relaxed);
    report.skipped_busy = skipped_busy.load(std::memory_order_relaxed);
    report.skipped_layout = skipped_layout.load(std::memory_order_relaxed);
    report.reference_errors = reference_errors.load(std::memory_order_relaxed);
    report.drift.threshold = options.drift_threshold;
    const auto& steps = model->plan().steps();
    report.drift.drifts.reserve(steps.size());
    for (std::size_t s = 0; s < steps.size(); ++s) {
      const std::uint64_t n = err_count[s];
      report.drift.add(steps[s].node->name,
                       n > 0 ? err_sum[s] / static_cast<double>(n) : 0.0, n);
    }
    return report;
  }
};

SessionLease& SessionLease::operator=(SessionLease&& other) noexcept {
  if (this != &other) {
    release();
    engine_ = other.engine_;
    version_ = other.version_;
    session_ = other.session_;
    other.engine_ = nullptr;
    other.version_ = nullptr;
    other.session_ = nullptr;
  }
  return *this;
}

void SessionLease::release() {
  if (engine_ != nullptr && session_ != nullptr) {
    engine_->release(version_, session_);
  }
  engine_ = nullptr;
  version_ = nullptr;
  session_ = nullptr;
}

std::uint64_t SessionLease::version() const {
  return version_ != nullptr ? version_->version_id : 0;
}

Engine::Engine(const OpResolver* resolver, int num_threads)
    : resolver_(resolver), num_threads_(num_threads) {
  MLX_CHECK(resolver != nullptr);
  // One bounded worker set for the whole engine: models share workers
  // (multi-job submission keeps concurrent leases from serializing) instead
  // of spawning threads per loaded model. Sized by ThreadPool::workers_for,
  // so it never outgrows the host's cores.
  if (num_threads_ > 1) {
    pool_ = std::make_unique<ThreadPool>(ThreadPool::workers_for(num_threads_));
  }
}

Engine::~Engine() = default;

std::size_t Engine::find_entry_locked(const std::string& name) const {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (!entries_[i]->unloaded && entries_[i]->name == name) return i;
  }
  return kNpos;
}

Engine::Version* Engine::serving_version_locked(
    const std::string& name) const {
  const std::size_t i = find_entry_locked(name);
  if (i == kNpos) return nullptr;
  // A visible (non-unloaded) entry always has a serving back version: drain
  // only happens on hot-swap (which pushes the replacement first) or on
  // unload (which hides the entry).
  return entries_[i]->versions.back().get();
}

std::size_t Engine::prepared_bytes_total_locked() const {
  std::size_t total = 0;
  for (const auto& entry : entries_) {
    for (const auto& version : entry->versions) {
      total += version->model->prepared_bytes();
    }
  }
  return total;
}

const Model& Engine::load(const std::string& name, Graph graph) {
  // Build the model outside the lock: Prepare (weight packing) is the
  // expensive step and must not serialize against concurrent acquires of
  // already-loaded models. A build failure (bad graph, injected
  // plan.prepare fault) propagates here, before the registry is touched —
  // the previous version keeps serving.
  auto model = std::make_unique<Model>(std::move(graph), resolver_,
                                       pool_.get(), num_threads_);

  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t entry_index = find_entry_locked(name);
  Entry* entry = entry_index == kNpos ? nullptr : entries_[entry_index].get();
  Version* replaced =
      entry != nullptr ? entry->versions.back().get() : nullptr;

  if (prepared_budget_ != 0) {
    // Steady-state residency check: what the registry would hold once the
    // swap retires everything it can retire immediately.
    const std::size_t reclaimed =
        (replaced != nullptr && replaced->leases_outstanding == 0)
            ? replaced->model->prepared_bytes()
            : 0;
    const std::size_t projected = prepared_bytes_total_locked() - reclaimed +
                                  model->prepared_bytes();
    MLX_CHECK_LE(projected, prepared_budget_)
        << "loading '" << name << "' (" << model->prepared_bytes()
        << " prepared bytes) would exceed the engine budget; unload or drain "
           "a model first";
  }

  if (entry == nullptr) {
    entries_.push_back(std::make_unique<Entry>());
    entry = entries_.back().get();
    entry->name = name;
  }
  auto version = std::make_unique<Version>();
  version->entry = entry;
  version->version_id = entry->next_version_id++;
  version->model = std::move(model);
  entry->versions.push_back(std::move(version));

  if (replaced != nullptr) {
    // Hot-swap: the replaced version stops taking leases and is freed as
    // soon as the last outstanding lease releases (now, if none are out).
    replaced->draining = true;
    if (replaced->leases_outstanding == 0) retire_version_locked(replaced);
  }
  return *entry->versions.back()->model;
}

bool Engine::unload(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t i = find_entry_locked(name);
  if (i == kNpos) return false;
  Entry* entry = entries_[i].get();
  entry->unloaded = true;
  // Drain every version; retire the ones with no lease out. Iterate over a
  // pointer snapshot because retiring erases from entry->versions (and
  // erasing the last one frees the entry itself).
  std::vector<Version*> versions;
  versions.reserve(entry->versions.size());
  for (const auto& v : entry->versions) versions.push_back(v.get());
  for (Version* v : versions) {
    v->draining = true;
    if (v->leases_outstanding == 0) retire_version_locked(v);
  }
  return true;
}

const Model* Engine::find(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Version* v = serving_version_locked(name);
  return v != nullptr ? v->model.get() : nullptr;
}

SessionLease Engine::lease_locked(Version* version) {
  Entry& entry = *version->entry;
  ++entry.stats.leases_issued;
  ++version->leases_outstanding;
  if (!version->free_list.empty()) {
    Session* session = version->free_list.back();
    version->free_list.pop_back();
    return SessionLease(this, version, session);
  }
  // Pool miss: build a new session. Session construction only reads the
  // immutable Model, but stays under the lock so the sessions/free_list
  // bookkeeping is simple; misses only happen while the pool warms up.
  version->sessions.push_back(std::make_unique<Session>(
      version->model.get(), pooled_retention(canary_for_pool(entry.name))));
  ++entry.stats.sessions_created;
  // Reserve free-list capacity for every session ever created, so release()
  // can push_back without allocating — part of the zero-alloc steady-state
  // acquire/invoke/release contract.
  version->free_list.reserve(version->sessions.size());
  return SessionLease(this, version, version->sessions.back().get());
}

SessionLease Engine::acquire(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  Version* version = serving_version_locked(name);
  MLX_CHECK(version != nullptr) << "model '" << name << "' not loaded";
  return lease_locked(version);
}

SessionLease Engine::try_acquire(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  Version* version = serving_version_locked(name);
  if (version == nullptr) return SessionLease();
  return lease_locked(version);
}

void Engine::retire_version_locked(Version* version) {
  Entry& entry = *version->entry;
  // Every remaining session sits in the free list (no leases outstanding);
  // destroying them and the Model frees the version's activation tensors
  // and prepared storage — the memory reclamation the drain protocol
  // promises.
  entry.stats.sessions_destroyed += version->sessions.size();
  ++entry.stats.versions_retired;
  for (auto it = entry.versions.begin(); it != entry.versions.end(); ++it) {
    if (it->get() == version) {
      entry.versions.erase(it);
      break;
    }
  }
  if (entry.unloaded && entry.versions.empty()) {
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->get() == &entry) {
        entries_.erase(it);
        break;
      }
    }
  }
}

void Engine::release(Version* version, Session* session) {
  // A stale observer must not fire into a TraceBuffer the previous
  // leaseholder may have destroyed.
  session->set_observer(nullptr);
  // Canary shadowing runs here, before the pool lock: the releasing thread
  // still owns the session (its activations are the production frame being
  // diffed) and the lease still pins version + entry. The sampled slow path
  // pays a reference invoke; the common path pays one relaxed load.
  const std::shared_ptr<CanaryState> canary =
      canary_for_pool(version->entry->name);
  if (canary != nullptr) maybe_shadow(*canary, version, session);
  const bool poisoned = session->poisoned();
  const bool stale_retention =
      session->retention() != pooled_retention(canary);
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = *version->entry;
  MLX_CHECK_GT(version->leases_outstanding, 0u);
  --version->leases_outstanding;
  if (poisoned || version->draining || stale_retention) {
    // Pool-integrity rule: a poisoned session (partial activations from a
    // contained kernel failure) is never re-leased; a draining version
    // gives sessions back to the allocator, not the free list; and a
    // session built before the name's canary was enabled or disabled is
    // rebuilt with the retention the canary now needs.
    if (poisoned) {
      entry.stats.invoke_errors += session->last_stats().invoke_errors;
    }
    for (auto it = version->sessions.begin(); it != version->sessions.end();
         ++it) {
      if (it->get() == session) {
        version->sessions.erase(it);
        break;
      }
    }
    ++entry.stats.sessions_destroyed;
  } else {
    version->free_list.push_back(session);
  }
  if (version->draining && version->leases_outstanding == 0) {
    retire_version_locked(version);
  }
}

EnginePoolStats Engine::pool_stats(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t i = find_entry_locked(name);
  MLX_CHECK(i != kNpos) << "model '" << name << "' not loaded";
  const Entry& entry = *entries_[i];
  EnginePoolStats stats = entry.stats;
  stats.live_versions = entry.versions.size();
  for (const auto& v : entry.versions) {
    stats.leases_outstanding += v->leases_outstanding;
    stats.prepared_bytes_total += v->model->prepared_bytes();
    if (v->draining) ++stats.draining_versions;
  }
  const Version& serving = *entry.versions.back();
  stats.sessions_free = serving.free_list.size();
  stats.prepared_bytes = serving.model->prepared_bytes();
  stats.serving_version = serving.version_id;
  return stats;
}

std::uint64_t Engine::serving_version(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Version* version = serving_version_locked(name);
  return version != nullptr ? version->version_id : 0;
}

std::size_t Engine::model_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t count = 0;
  for (const auto& entry : entries_) {
    if (!entry->unloaded) ++count;
  }
  return count;
}

std::size_t Engine::prepared_bytes_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return prepared_bytes_total_locked();
}

void Engine::set_prepared_budget(std::size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  prepared_budget_ = bytes;
}

std::size_t Engine::prepared_budget() const {
  std::lock_guard<std::mutex> lock(mu_);
  return prepared_budget_;
}

// --- canary mode -------------------------------------------------------------

std::shared_ptr<Engine::CanaryState> Engine::canary_for(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(canary_mu_);
  for (const auto& [n, state] : canaries_) {
    if (n == name) return state;
  }
  return nullptr;
}

std::shared_ptr<Engine::CanaryState> Engine::canary_for_pool(
    const std::string& name) const {
  // Serving without canaries pays one load here and takes no lock.
  if (!canary_active_.load(std::memory_order_acquire)) return nullptr;
  return canary_for(name);
}

Retention Engine::pooled_retention(const std::shared_ptr<CanaryState>& canary) {
  return canary != nullptr ? Retention::kPreserveAll : Retention::kLean;
}

void Engine::enable_canary(const std::string& name, Graph reference,
                           const OpResolver* resolver, CanaryOptions options) {
  MLX_CHECK_GT(options.shadow_every, 0u) << "shadow_every must be >= 1";
  auto state = std::make_shared<CanaryState>();
  state->options = options;
  // The reference Model builds outside every lock (Prepare is the expensive
  // step, same rationale as load()).
  state->model = std::make_unique<Model>(
      std::move(reference), resolver != nullptr ? resolver : resolver_,
      pool_.get(), num_threads_);
  state->session =
      std::make_unique<Session>(state->model.get(), Retention::kPreserveAll);
  const std::size_t steps = state->model->plan().steps().size();
  state->err_sum.assign(steps, 0.0);
  state->err_count.assign(steps, 0);
  std::lock_guard<std::mutex> lock(canary_mu_);
  for (auto& [n, existing] : canaries_) {
    if (n == name) {
      // Re-enabling swaps the reference and restarts the running report; an
      // in-flight shadow finishes against the old state it snapshotted.
      existing = std::move(state);
      return;
    }
  }
  canaries_.emplace_back(name, std::move(state));
  canary_active_.store(true, std::memory_order_release);
}

bool Engine::disable_canary(const std::string& name) {
  std::lock_guard<std::mutex> lock(canary_mu_);
  for (auto it = canaries_.begin(); it != canaries_.end(); ++it) {
    if (it->first == name) {
      canaries_.erase(it);
      if (canaries_.empty()) {
        canary_active_.store(false, std::memory_order_release);
      }
      return true;
    }
  }
  return false;
}

CanaryReport Engine::canary_report(const std::string& name) const {
  std::shared_ptr<CanaryState> canary = canary_for(name);
  if (canary == nullptr) return CanaryReport{};
  std::lock_guard<std::mutex> lock(canary->shadow_mu);
  return canary->report_locked();
}

void Engine::set_canary_observer(const std::string& name,
                                 CanaryObserver observer) {
  std::shared_ptr<CanaryState> canary = canary_for(name);
  MLX_CHECK(canary != nullptr)
      << "no canary enabled for model '" << name << "'";
  std::lock_guard<std::mutex> lock(canary->shadow_mu);
  canary->observer = std::move(observer);
}

void Engine::maybe_shadow(CanaryState& canary, Version* version,
                          Session* session) {
  // Only coherent frames are diffed: a poisoned session or a
  // deadline-expired invoke left partial activations.
  if (session->poisoned() || !session->last_invoke_ok()) return;
  const std::uint64_t n =
      canary.release_counter.fetch_add(1, std::memory_order_relaxed) + 1;
  if (n % canary.options.shadow_every != 0) return;
  if (session->retention() != Retention::kPreserveAll) {
    // Leased lean before the canary was enabled: its layers' bytes were
    // reused, so there is no frame to diff (release() rebuilds it).
    canary.skipped_layout.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  std::unique_lock<std::mutex> lock(canary.shadow_mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    // Another release is mid-shadow; drop the sample rather than stall the
    // pool behind a reference invoke.
    canary.skipped_busy.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  canary.shadow_locked(version->version_id, version->model->graph(), *session);
}

}  // namespace mlexray
