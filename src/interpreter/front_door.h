// FrontDoor: the overload-safe request layer over Engine — bounded
// admission, deadline-aware dynamic batching, load shedding, and a
// per-model-version circuit breaker.
//
//   Engine engine(&resolver);
//   engine.load("mobilenet", zoo_graph(/*batch=*/1));
//   engine.load("mobilenet@b8", zoo_graph(/*batch=*/8));
//   FrontDoor door(&engine, {.workers = 2});
//   FrontDoorModelOptions opts;
//   opts.max_wait_ms = 1.0;
//   opts.variants = {{1, "mobilenet"}, {8, "mobilenet@b8"}};
//   door.register_model("mobilenet", opts);
//
//   Ticket t = door.submit("mobilenet", frame, /*deadline_ms=*/20.0);
//   const RequestResult& r = t.wait();
//   if (r.code == RequestCode::kOk) use(r.outputs[0]);
//   t.release();   // recycles the slot (or let the Ticket destructor do it)
//
// Admission state machine. submit() either (a) copies the input into a
// pre-sized queue slot and returns a Ticket, or (b) rejects synchronously
// with a typed code — never an exception on the hot path:
//   kQueueFull          the model's bounded queue (or slot pool) is full;
//   kDeadlineInfeasible the EWMA service-time estimator projects that the
//                       request cannot finish by its deadline even if
//                       admitted now (queue depth ahead of it included);
//   kBreakerOpen        the model's circuit breaker is open (failing fast).
// Admitted requests reach exactly one terminal code: kOk, kError (invoke
// failed, after at most one retry), kDeadlineExceeded (the request's own
// deadline expired while its batch ran — a member coalesced with an
// earlier-deadline peer whose own deadline still has room is requeued once
// instead), kShed (dropped from the queue by the shedding policy or at
// shutdown), or kUnknownModel (the engine no longer serves any variant —
// e.g. unload raced the dispatch).
//
// Batching. Scheduler workers coalesce up to max_batch queued requests for
// the same model into one batched invoke: rows are memcpy'd into the input
// of the smallest registered batch variant that fits (spare rows repeat row
// 0 — batched graph rows are independent and bit-exact, so padding changes
// nothing but the constant per-batch cost), and the *earliest* member
// deadline is propagated into Session::try_invoke_until. A batch dispatches
// when max_batch requests are ready or the oldest has waited max_wait_ms.
//
// Shedding. At every batch formation the scheduler first sheds queued
// requests that can no longer make their deadline (already expired, or
// remaining budget below the EWMA service estimate) — serving them would be
// wasted work that makes everyone else later. Batch selection then prefers
// higher priority, then earlier deadline, then arrival order; under
// sustained overload the lowest-priority / closest-to-expiry requests are
// therefore the ones shed rather than everyone degrading together.
//
// Circuit breaker. Per model, keyed to the engine version that served the
// last batch. consecutive failed invokes >= breaker_failure_threshold trips
// the breaker open: queued requests flush as kBreakerOpen (on every
// transition to open — the initial trip and a failed half-open probe alike,
// so requests admitted behind a probe are never stranded) and new submits
// fail fast without touching the engine. After breaker_open_ms the breaker
// half-opens and admits a single probe batch: success closes it, failure
// re-opens. A hot-swap (engine serving version changes) resets the breaker
// immediately — the new version deserves a clean slate.
//
// Retry. A batch that fails with a contained invoke error (kError — the
// poisoned session is destroyed by the Engine, so faults never leak across
// requests) is retried once per request with jittered backoff, provided the
// request's deadline still has room; the second failure is final.
//
// Zero-alloc discipline. Queue slots (input + output tensors) are pre-sized
// at register_model; pending/free lists and the batch-size histogram are
// pre-reserved. Steady-state submit -> batch -> complete -> release
// performs no heap allocation (test-enforced with operator-new counters).
//
// Threading. One mutex guards all queues and stats; workers drop it around
// the engine invoke. Tickets may be waited on from any thread. The Engine
// must outlive the FrontDoor; Tickets must not outlive the FrontDoor.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/interpreter/engine.h"

namespace mlexray {

class FrontDoor;
struct FrontDoorSlot;       // one pre-sized queue slot (defined in the .cc)
struct FrontDoorModelEntry; // per-model queue + breaker state (ditto)

// Terminal (and rejection) outcome of one submitted request.
enum class RequestCode {
  kOk = 0,
  kError,              // invoke failed (after any retry); contained, never thrown
  kDeadlineExceeded,   // batched invoke hit the cooperative deadline mid-walk
  kUnknownModel,       // engine no longer serves the model (or never did)
  kQueueFull,          // rejected at admission: bounded queue / slot pool full
  kDeadlineInfeasible, // rejected at admission: EWMA says it can't make it
  kShed,               // dropped from the queue: expired / overload / shutdown
  kBreakerOpen,        // rejected (or flushed) while the breaker fails fast
};

const char* request_code_name(RequestCode code);

// True for codes decided at admission time (the request never entered the
// queue). kShed/kUnknownModel are terminal for *admitted* requests.
inline bool request_rejected(RequestCode code) {
  return code == RequestCode::kQueueFull ||
         code == RequestCode::kDeadlineInfeasible ||
         code == RequestCode::kBreakerOpen;
}

enum class BreakerState { kClosed = 0, kOpen, kHalfOpen };

const char* breaker_state_name(BreakerState state);

// Everything a caller learns about one request. `outputs` points at the
// request's pre-sized single-row output tensors: valid until the Ticket is
// released (Ticket path) or until the completion callback returns
// (submit_async path); only populated for kOk.
struct RequestResult {
  RequestCode code = RequestCode::kUnknownModel;
  double latency_us = 0.0;  // submit -> terminal, wall clock
  double queue_us = 0.0;    // submit -> batch dispatch (0 if never dispatched)
  int batch_size = 0;       // coalesced request count of the serving batch
  std::uint64_t version = 0;  // engine version that served it (0 if none)
  bool retried = false;
  const Tensor* outputs = nullptr;
  int output_count = 0;
};

// One engine-loaded batch flavor of a front-door model. `engine_model` must
// already be load()ed; its graph must be the same network built at
// batch=`batch` (row-independent, so any rows of a larger variant equal the
// batch-1 results bit for bit).
struct FrontDoorBatchVariant {
  int batch = 1;
  std::string engine_model;
};

struct FrontDoorModelOptions {
  std::size_t queue_capacity = 64;  // bounded admission queue (per model)
  // Largest coalesced batch; 0 means "largest registered variant". Clamped
  // to the largest variant batch.
  int max_batch = 0;
  double max_wait_ms = 1.0;  // batching SLO: oldest request waits at most this
  // Applied when submit passes deadline_ms <= 0; 0 = no deadline.
  double default_deadline_ms = 0.0;
  // Circuit breaker: consecutive failed invokes that trip it open, and how
  // long it fails fast before half-open-probing.
  int breaker_failure_threshold = 3;
  double breaker_open_ms = 50.0;
  // One bounded retry for transient contained faults, after a jittered
  // 0.2-2 ms backoff.
  bool retry_transient_faults = true;
  // Batch flavors, ascending batch. Empty = {{1, <registered name>}}.
  std::vector<FrontDoorBatchVariant> variants;
};

// Counters for one front-door model (monotonic unless noted). submitted ==
// admitted + rejected_*; admitted == completed_ok + failed +
// deadline_exceeded + shed + flushed_breaker_open + unknown_model + (still
// queued/in flight). Each model's counters live in one of these structs;
// stats() returns a copy with the snapshot fields (queue_depth, inflight,
// breaker_state, breaker_version, service_estimate_us) read from the
// scheduler's live state.
struct FrontDoorStats {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t completed_ok = 0;
  std::uint64_t failed = 0;              // terminal kError
  std::uint64_t deadline_exceeded = 0;   // terminal kDeadlineExceeded
  std::uint64_t shed = 0;                // terminal kShed
  std::uint64_t unknown_model = 0;       // terminal kUnknownModel
  std::uint64_t flushed_breaker_open = 0;  // queued, flushed on breaker trip
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_infeasible = 0;
  std::uint64_t rejected_breaker_open = 0;
  std::uint64_t retries = 0;
  // Batch expired against another member's earlier deadline: requeued once.
  std::uint64_t deadline_requeues = 0;
  std::uint64_t batches = 0;  // dispatched batched invokes
  // batch_size_hist[n] = batches that coalesced exactly n requests
  // (index 0 unused); size max_batch + 1.
  std::vector<std::uint64_t> batch_size_hist;
  std::size_t queue_depth = 0;      // snapshot
  std::size_t max_queue_depth = 0;  // high-water
  std::size_t inflight = 0;         // snapshot: requests inside an invoke
  BreakerState breaker_state = BreakerState::kClosed;
  std::uint64_t breaker_trips = 0;
  std::uint64_t breaker_version = 0;  // engine version the breaker is keyed to
  double service_estimate_us = 0.0;   // EWMA per-batch service time
};

// Push-based visibility into the two things no counter records: which batch
// variant served each dispatch, and the order of breaker transitions — the
// serving-side counterpart of InvokeObserver. Rejections, sheds and
// completions are counted in FrontDoorStats. Hooks fire under the
// front-door mutex: keep them cheap and never call back into the FrontDoor.
// Attach before traffic.
class FrontDoorObserver {
 public:
  virtual ~FrontDoorObserver() = default;
  virtual void on_dispatch(const std::string& model, int coalesced,
                           int variant_batch) {
    (void)model;
    (void)coalesced;
    (void)variant_batch;
  }
  virtual void on_breaker(const std::string& model, std::uint64_t version,
                          BreakerState from, BreakerState to) {
    (void)model;
    (void)version;
    (void)from;
    (void)to;
  }
};

// Completion callback for submit_async: fires exactly once per *admitted*
// request, on a scheduler thread, with the terminal result. The slot (and
// result.outputs) is recycled when the callback returns. Plain function
// pointer + context so the submit path never allocates.
using FrontDoorCallback = void (*)(void* ctx, const RequestResult& result);

struct FrontDoorOptions {
  int workers = 1;  // scheduler/dispatch threads
};

// Handle to one submitted (or synchronously rejected) request. Move-only.
// wait() blocks until the terminal result; release() (or the destructor)
// recycles the slot — the result and its outputs die with it. Tickets must
// be released before the FrontDoor is destroyed.
class Ticket {
 public:
  Ticket() = default;
  Ticket(Ticket&& other) noexcept { *this = std::move(other); }
  Ticket& operator=(Ticket&& other) noexcept;
  ~Ticket() { release(); }

  Ticket(const Ticket&) = delete;
  Ticket& operator=(const Ticket&) = delete;

  // False only for a default-constructed / moved-from ticket.
  explicit operator bool() const { return valid_; }

  // True once the request reached a terminal code (never blocks). Rejected
  // tickets are born done.
  bool done() const;

  // Blocks until terminal; returns the result (stable until release()).
  const RequestResult& wait();

  // Recycles the queue slot. Safe to call repeatedly; blocks until the
  // request is terminal first (a slot can't be reclaimed mid-flight).
  void release();

 private:
  friend class FrontDoor;
  Ticket(FrontDoor* door, FrontDoorSlot* slot) : door_(door), slot_(slot), valid_(true) {}
  explicit Ticket(const RequestResult& inline_result)
      : inline_result_(inline_result), valid_(true) {}

  FrontDoor* door_ = nullptr;     // null for synchronously rejected tickets
  FrontDoorSlot* slot_ = nullptr;
  RequestResult inline_result_;   // used when slot_ == nullptr
  bool valid_ = false;
};

class FrontDoor {
 public:
  // engine must outlive the front door.
  explicit FrontDoor(Engine* engine, FrontDoorOptions options = {});
  // Stops the workers, completes every queued request as kShed (callbacks
  // fire inline), and joins. Release all Tickets first.
  ~FrontDoor();

  FrontDoor(const FrontDoor&) = delete;
  FrontDoor& operator=(const FrontDoor&) = delete;

  // Registers `name` for serving. Every variant's engine model must already
  // be loaded (the slot shapes are derived from it); throws MlxError on
  // inconsistent variants — registration is not the hot path. Idempotent
  // per name is NOT supported: registering the same name twice throws.
  void register_model(const std::string& name,
                      FrontDoorModelOptions options = {});
  bool registered(const std::string& name) const;

  // Blocking-capable path: admit (copying `input` into a queue slot) or
  // reject synchronously. The returned Ticket's result is one of the
  // terminal codes above; for rejections it is already done.
  Ticket submit(const std::string& model, const Tensor& input,
                double deadline_ms = 0.0, int priority = 0);

  // Fire-and-forget path for open-loop load generators: returns the
  // admission decision. kOk means admitted — `done(done_ctx, result)` will
  // fire exactly once on a scheduler thread; any other code means rejected
  // and the callback never fires.
  RequestCode submit_async(const std::string& model, const Tensor& input,
                           double deadline_ms, int priority,
                           FrontDoorCallback done, void* done_ctx);

  FrontDoorStats stats(const std::string& model) const;
  void set_observer(FrontDoorObserver* observer);

  // Tests/benches: pin the EWMA service estimate (microseconds) admission
  // and shedding use, as if measured.
  void set_service_estimate_for_testing(const std::string& model, double us);

  Engine* engine() const { return engine_; }

 private:
  friend class Ticket;

  using Clock = std::chrono::steady_clock;
  using ModelEntry = FrontDoorModelEntry;

  ModelEntry* find_model_locked(const std::string& name) const;
  RequestCode admit_locked(ModelEntry& m, const Tensor& input,
                           double deadline_ms, int priority,
                           FrontDoorCallback done, void* done_ctx,
                           Clock::time_point now, FrontDoorSlot** out_slot);
  void complete_locked(ModelEntry& m, FrontDoorSlot* slot, RequestCode code,
                       Clock::time_point now,
                       std::vector<FrontDoorSlot*>& callback_batch);
  void shed_unservable_locked(ModelEntry& m, Clock::time_point now,
                              std::vector<FrontDoorSlot*>& callback_batch);
  void breaker_transition_locked(ModelEntry& m, BreakerState to,
                                 Clock::time_point now);
  bool breaker_admits_locked(ModelEntry& m, Clock::time_point now);
  void form_batch_locked(ModelEntry& m, Clock::time_point now,
                         std::vector<FrontDoorSlot*>& batch);
  void execute_batch(ModelEntry& m, std::vector<FrontDoorSlot*>& batch,
                     bool was_probe,
                     std::vector<FrontDoorSlot*>& callback_batch,
                     std::unique_lock<std::mutex>& lock);
  void fire_callbacks(std::vector<FrontDoorSlot*>& callback_batch,
                      std::unique_lock<std::mutex>& lock);
  void recycle_slot_locked(FrontDoorSlot* slot);
  void worker_loop();

  Engine* engine_;
  FrontDoorOptions options_;
  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // workers: new work / state change
  std::condition_variable done_cv_;   // ticket waiters
  // unique_ptr so ModelEntry addresses are stable across registration.
  std::vector<std::unique_ptr<FrontDoorModelEntry>> models_;
  FrontDoorObserver* observer_ = nullptr;
  std::vector<std::thread> workers_;
  std::size_t rr_cursor_ = 0;  // round-robin fairness across models
  std::uint64_t jitter_state_ = 0;  // retry-backoff jitter (guarded by mu_)
  bool stopping_ = false;
};

}  // namespace mlexray
