// Engine: a named, versioned model registry with pooled sessions — the
// serving façade over Model/Session, including the model-lifecycle story
// (load, hot-swap, drain, unload) and the pool-integrity story for failed
// invokes.
//
//   Engine engine(&resolver);
//   engine.load("mobilenet", std::move(graph_v1));   // version 1 serves
//   {
//     SessionLease lease = engine.acquire("mobilenet");
//     lease->set_input(0, input);
//     InvokeStatus s = lease->try_invoke(/*deadline_ms=*/50);
//     if (s.ok()) use(lease->output(0));
//   }                                                // session returns to pool
//   engine.load("mobilenet", std::move(graph_v2));   // hot-swap: v2 serves,
//                                                    // v1 drains
//
// Versioned lifecycle. load() under an existing name registers a NEW
// version: new acquires immediately get the latest version while every
// outstanding lease keeps pinning the version it was issued from
// (refcounted via leases_outstanding). The replaced version transitions
// loading -> serving -> draining -> retired: a draining version accepts no
// new leases, returning sessions are destroyed instead of re-pooled, and
// when the last lease releases, the version's sessions and Model (prepared
// storage) are freed. unload() drains every version of a name; the name
// disappears from acquire/find immediately and memory is reclaimed as
// leases come home. A failed load (Model build throw) leaves the previous
// version serving untouched.
//
// Failure containment. Session::try_invoke poisons a session whose kernel
// threw; release() destroys poisoned sessions instead of re-pooling them
// (counted in EnginePoolStats::invoke_errors / sessions_destroyed), so a
// contained fault on one lease can never leak partial activations to the
// next leaseholder. The shared Model is read-only during invoke and always
// survives.
//
// Memory accounting. Every version's Model reports prepared_bytes;
// prepared_bytes_total() sums the live versions. An optional engine-wide
// budget (set_prepared_budget) makes load() refuse — after retiring
// whatever a hot-swap can retire immediately — rather than grow past the
// budget.
//
// Leases are RAII: destroying (or move-assigning over) a SessionLease
// returns the session. The engine clears the session's observer on release
// so a stale TraceBuffer attachment never fires for the next leaseholder.
// The Engine must outlive every lease it issued.
//
// Retention. Pooled sessions are lean (src/interpreter/session.h), except
// for a name with an enabled canary: the canary diffs that name's frames
// layer by layer after invoke, so a pool miss builds a kPreserveAll
// session, and release() destroys a session whose retention no longer
// matches the name's canary state instead of re-pooling it. The pool
// converges after enable_canary and goes back to lean after
// disable_canary.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/drift/canary.h"
#include "src/interpreter/session.h"

namespace mlexray {

class SessionLease;

// Pool + lifecycle visibility for one model name (tests and the serving
// benchmark assert prepare-once/serve-many, drain, and containment through
// these). Unless noted, counters are name-wide and survive version
// retirement: each name's counters live in one of these structs, and
// pool_stats() returns a copy with the per-version fields filled in. Canary
// facts are read from canary_report().
struct EnginePoolStats {
  std::size_t sessions_created = 0;   // ever built, across versions
  std::size_t sessions_free = 0;      // serving version's free list
  std::uint64_t leases_issued = 0;    // acquire()/try_acquire() grants
  std::size_t prepared_bytes = 0;     // serving version's Model
  std::uint64_t serving_version = 0;  // 0 when no version serves (unloaded)
  std::size_t live_versions = 0;      // serving + draining
  std::size_t draining_versions = 0;
  std::size_t leases_outstanding = 0;    // across live versions
  std::uint64_t versions_retired = 0;    // fully drained and freed
  std::uint64_t invoke_errors = 0;       // contained kernel failures
  // Poisoned, drained, and rebuilt for a canary's retention.
  std::size_t sessions_destroyed = 0;
  std::size_t prepared_bytes_total = 0;  // across live versions
};

class Engine {
 public:
  // resolver must outlive the engine. num_threads > 1 gives the engine ONE
  // shared worker set — at most num_threads - 1 threads, clamped to the
  // host's spare cores (ThreadPool::workers_for) — that every Model built
  // by load() fans onto, with num_threads as each job's hard participant
  // cap.
  // The pool runs concurrent jobs side by side, so a multi-threaded invoke
  // on one lease does not serialize other leases' invokes (any model, any
  // version) — they share workers instead of queueing behind one another.
  // Many-session serving on a saturated host still usually wants the
  // default 1 (one caller thread per session).
  explicit Engine(const OpResolver* resolver, int num_threads = 1);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Builds and registers a Model under `name`. A new name starts at
  // version 1; an existing name hot-swaps: the new version serves all
  // future acquires, the old one drains (freed when its last lease
  // releases, immediately if none are outstanding). Throws MlxError if the
  // prepared-bytes budget would be exceeded or the Model build fails — in
  // both cases the previous version keeps serving. Returns the shared
  // Model. Thread-safe.
  const Model& load(const std::string& name, Graph graph);

  // Drains every version of `name`: it immediately disappears from
  // acquire/find/try_acquire, outstanding leases keep their pinned
  // versions, and each version's sessions + prepared storage are freed when
  // its last lease releases. Returns false for unknown names. The name may
  // be load()ed again right away (starting a fresh version lineage).
  // Thread-safe.
  bool unload(const std::string& name);

  // The serving version's model, or nullptr. Thread-safe.
  const Model* find(const std::string& name) const;

  // A session over the named model's serving version, from the free list
  // when possible. acquire() throws MlxError for unknown (or unloaded)
  // names; try_acquire() returns an empty lease instead, so serving front
  // ends report "no such model" without unwinding. Thread-safe; the
  // returned lease is for this thread.
  SessionLease acquire(const std::string& name);
  SessionLease try_acquire(const std::string& name);

  EnginePoolStats pool_stats(const std::string& name) const;
  std::size_t model_count() const;

  // The version id currently serving `name`, or 0 for unknown/unloaded
  // names. Cheap (one registry lookup) — the FrontDoor circuit breaker polls
  // it so a hot-swap can heal an open breaker without a probe. Thread-safe.
  std::uint64_t serving_version(const std::string& name) const;

  // Prepared bytes across every live version of every name.
  std::size_t prepared_bytes_total() const;

  // Engine-wide ceiling on prepared_bytes_total(); 0 (default) disables the
  // check. When a load() would exceed it — after retiring what the swap can
  // retire immediately — the load throws and the registry is unchanged.
  // The budget covers steady-state residency: the candidate Model is built
  // before the check, so the transient peak can overshoot.
  void set_prepared_budget(std::size_t bytes);
  std::size_t prepared_budget() const;

  // --- canary mode (online Fig-6 drift, src/drift/canary.h) -----------------
  // Builds a reference Model from `reference` + `resolver` (pass nullptr to
  // reuse the engine's own resolver) and starts shadowing a sampled fraction
  // of `name`'s releases through it. Enabling again replaces the reference
  // and resets the running report; the canary is keyed by name, so it
  // survives hot-swaps and unload/load cycles of the production model.
  // Throws MlxError if the reference Model fails to build. Thread-safe.
  void enable_canary(const std::string& name, Graph reference,
                     const OpResolver* resolver = nullptr,
                     CanaryOptions options = {});
  // Stops shadowing `name`; returns false when no canary was enabled. An
  // in-flight shadow on another thread finishes against the old reference.
  bool disable_canary(const std::string& name);
  // Snapshot of the running drift report (enabled=false when no canary).
  CanaryReport canary_report(const std::string& name) const;
  // Hook fired after every shadowed frame; pass nullptr to clear.
  void set_canary_observer(const std::string& name, CanaryObserver observer);

 private:
  friend class SessionLease;

  struct Entry;

  // One loaded Model version and its session pool. Heap-allocated so the
  // address is stable: leases pin their version by pointer.
  struct Version {
    Entry* entry = nullptr;
    std::uint64_t version_id = 0;
    std::unique_ptr<Model> model;
    // Owns every session built for this version; stable pointers (the
    // vector holds unique_ptrs). Poisoned or drained sessions are erased.
    std::vector<std::unique_ptr<Session>> sessions;
    std::vector<Session*> free_list;
    std::size_t leases_outstanding = 0;
    bool draining = false;
  };

  // One model name: its live versions (back = serving unless unloaded) and
  // the name-wide counters that outlive version retirement.
  struct Entry {
    std::string name;
    bool unloaded = false;  // hidden from find/acquire; dies with last version
    std::vector<std::unique_ptr<Version>> versions;
    std::uint64_t next_version_id = 1;
    // Name-wide counters only; pool_stats() fills the per-version fields.
    EnginePoolStats stats;
  };

  // Per-name canary state; defined in engine.cc (holds the reference Model +
  // Session and the running per-layer accumulators).
  struct CanaryState;

  // All helpers require mu_ held.
  std::size_t find_entry_locked(const std::string& name) const;
  Version* serving_version_locked(const std::string& name) const;
  SessionLease lease_locked(Version* version);
  void retire_version_locked(Version* version);
  std::size_t prepared_bytes_total_locked() const;

  void release(Version* version, Session* session);
  // Canary shadow attempt for a returning session; runs on the releasing
  // thread BEFORE mu_ is taken (the lease still pins version/entry).
  void maybe_shadow(CanaryState& canary, Version* version, Session* session);
  std::shared_ptr<CanaryState> canary_for(const std::string& name) const;
  // canary_for behind the canary_active_ gate: the lease and release paths'
  // lookup, lock-free while no canary is enabled.
  std::shared_ptr<CanaryState> canary_for_pool(const std::string& name) const;
  // The retention a name's pooled sessions are built with: kPreserveAll
  // while a canary diffs its layers after invoke, kLean otherwise.
  static Retention pooled_retention(const std::shared_ptr<CanaryState>& canary);

  const OpResolver* resolver_;
  int num_threads_;
  // The engine-wide bounded worker set all models share (null when
  // num_threads_ <= 1). Declared before entries_ so it outlives every Model
  // during destruction.
  std::unique_ptr<ThreadPool> pool_;
  mutable std::mutex mu_;
  // unique_ptr so Entry addresses survive vector growth and erasure of
  // sibling entries (Versions hold Entry backpointers).
  std::vector<std::unique_ptr<Entry>> entries_;
  std::size_t prepared_budget_ = 0;

  // Canary registry, keyed by model name and guarded by canary_mu_ (pointer
  // snapshots only — per-shadow state is guarded by CanaryState's own
  // mutex). mu_ may be held when canary_mu_ is taken, never the reverse.
  mutable std::mutex canary_mu_;
  std::vector<std::pair<std::string, std::shared_ptr<CanaryState>>> canaries_;
  // Fast-path gate: release() checks this before touching canary_mu_, so
  // serving without canaries pays one relaxed load.
  std::atomic<bool> canary_active_{false};
};

// RAII handle to a pooled Session. Move-only; the destructor returns the
// session to the engine, which re-pools it (healthy), destroys it
// (poisoned, version draining, or a retention the name's canary state no
// longer wants), and retires the pinned version when its last lease comes
// home.
class SessionLease {
 public:
  SessionLease() = default;
  SessionLease(SessionLease&& other) noexcept { *this = std::move(other); }
  SessionLease& operator=(SessionLease&& other) noexcept;
  ~SessionLease() { release(); }

  SessionLease(const SessionLease&) = delete;
  SessionLease& operator=(const SessionLease&) = delete;

  Session* operator->() const { return session_; }
  Session& operator*() const { return *session_; }
  Session* get() const { return session_; }
  explicit operator bool() const { return session_ != nullptr; }

  // The model version this lease pins (1-based, per name); 0 for an empty
  // lease. Stable for the lease's lifetime even across hot-swaps.
  std::uint64_t version() const;

  // Returns the session to the pool early; the lease becomes empty.
  void release();

 private:
  friend class Engine;
  SessionLease(Engine* engine, Engine::Version* version, Session* session)
      : engine_(engine), version_(version), session_(session) {}

  Engine* engine_ = nullptr;
  Engine::Version* version_ = nullptr;
  Session* session_ = nullptr;
};

}  // namespace mlexray
