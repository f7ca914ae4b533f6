#include "src/interpreter/front_door.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/common/error.h"
#include "src/graph/graph.h"

namespace mlexray {

namespace {

using Clock = std::chrono::steady_clock;

// EWMA smoothing for the per-batch service-time estimate admission uses.
constexpr double kServiceEwmaAlpha = 0.2;
// Backoff range of the one retry for a transient contained fault.
constexpr double kRetryBackoffMinMs = 0.2;
constexpr double kRetryBackoffMaxMs = 2.0;
// Seed of the retry-backoff jitter stream.
constexpr std::uint64_t kJitterSeed = 0x51ed5eedULL;

Clock::duration ms_duration(double ms) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(ms));
}

double us_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

// splitmix64 step: cheap, stateless-quality jitter for retry backoff. Not
// Pcg32 because this runs under the front-door mutex and one multiply-xor
// is all the randomness a backoff needs.
std::uint64_t next_jitter(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

const char* request_code_name(RequestCode code) {
  switch (code) {
    case RequestCode::kOk:
      return "ok";
    case RequestCode::kError:
      return "error";
    case RequestCode::kDeadlineExceeded:
      return "deadline_exceeded";
    case RequestCode::kUnknownModel:
      return "unknown_model";
    case RequestCode::kQueueFull:
      return "queue_full";
    case RequestCode::kDeadlineInfeasible:
      return "deadline_infeasible";
    case RequestCode::kShed:
      return "shed";
    case RequestCode::kBreakerOpen:
      return "breaker_open";
  }
  return "unknown";
}

const char* breaker_state_name(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half_open";
  }
  return "unknown";
}

// One pre-sized request slot: the input row copied at admission, the output
// rows copied back at completion, and the request's scheduling state. Slots
// are allocated once at register_model and cycle free -> pending ->
// in-batch -> done -> free without further allocation.
struct FrontDoorSlot {
  FrontDoorModelEntry* owner = nullptr;
  Tensor input;                 // single-row ([1, ...]) input copy
  std::vector<Tensor> outputs;  // single-row output copies (kOk only)
  RequestResult result;
  int priority = 0;
  Clock::time_point submit_time{};
  Clock::time_point deadline{};    // time_point::max() when none
  Clock::time_point not_before{};  // retry backoff hold
  bool has_deadline = false;
  bool retried = false;
  bool deadline_requeued = false;  // one requeue after a collateral batch expiry
  bool done = false;
  FrontDoorCallback callback = nullptr;
  void* callback_ctx = nullptr;

  // The request can no longer make its own deadline: it has passed, or the
  // time left is below the service estimate, so even an immediate dispatch
  // would finish late.
  bool deadline_unmeetable(Clock::time_point now, double est_us) const {
    return has_deadline &&
           (now >= deadline ||
            (est_us > 0.0 && us_between(now, deadline) < est_us));
  }
};

// Per-registered-model state: options, the bounded queue, the slot pool,
// the EWMA service estimate, the circuit breaker, and the stats counters.
// Heap-allocated with a stable address (slots hold owner backpointers).
struct FrontDoorModelEntry {
  std::string name;
  FrontDoorModelOptions opts;
  int max_batch = 1;
  std::size_t input_row_bytes = 0;
  std::vector<std::size_t> output_row_bytes;
  std::vector<std::unique_ptr<FrontDoorSlot>> slots;
  std::vector<FrontDoorSlot*> free_slots;
  std::vector<FrontDoorSlot*> pending;

  // The counters; stats() fills the snapshot fields from the state below.
  FrontDoorStats stats;
  std::size_t inflight = 0;  // requests inside a dispatched batch
  std::size_t inflight_batches = 0;

  double est_us = 0.0;  // EWMA per-batch service time

  BreakerState breaker = BreakerState::kClosed;
  int consecutive_failures = 0;
  std::chrono::steady_clock::time_point breaker_opened_at{};
  std::uint64_t breaker_version = 0;  // engine version the breaker is keyed to
  bool probe_inflight = false;  // half-open: one probe batch at a time
};

// ---------------------------------------------------------------------------
// Ticket.
// ---------------------------------------------------------------------------

Ticket& Ticket::operator=(Ticket&& other) noexcept {
  if (this != &other) {
    release();
    door_ = other.door_;
    slot_ = other.slot_;
    inline_result_ = other.inline_result_;
    valid_ = other.valid_;
    other.door_ = nullptr;
    other.slot_ = nullptr;
    other.valid_ = false;
  }
  return *this;
}

bool Ticket::done() const {
  if (!valid_) return false;
  if (slot_ == nullptr) return true;  // rejected tickets are born done
  std::lock_guard<std::mutex> lock(door_->mu_);
  return slot_->done;
}

const RequestResult& Ticket::wait() {
  MLX_CHECK(valid_) << "wait() on an empty Ticket";
  if (slot_ == nullptr) return inline_result_;
  std::unique_lock<std::mutex> lock(door_->mu_);
  door_->done_cv_.wait(lock, [this] { return slot_->done; });
  return slot_->result;
}

void Ticket::release() {
  if (!valid_) return;
  if (slot_ != nullptr) {
    std::unique_lock<std::mutex> lock(door_->mu_);
    // A slot can't be reclaimed mid-flight: wait for the terminal result
    // first (normally instant — callers wait() before releasing).
    door_->done_cv_.wait(lock, [this] { return slot_->done; });
    door_->recycle_slot_locked(slot_);
  }
  door_ = nullptr;
  slot_ = nullptr;
  valid_ = false;
}

// ---------------------------------------------------------------------------
// FrontDoor.
// ---------------------------------------------------------------------------

FrontDoor::FrontDoor(Engine* engine, FrontDoorOptions options)
    : engine_(engine), options_(options), jitter_state_(kJitterSeed) {
  MLX_CHECK(engine_ != nullptr);
  if (options_.workers < 1) options_.workers = 1;
  workers_.reserve(static_cast<std::size_t>(options_.workers));
  for (int i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

FrontDoor::~FrontDoor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();

  // Workers are gone; whatever is still queued is shed, callbacks fired
  // inline on this thread.
  std::vector<FrontDoorSlot*> callbacks;
  std::unique_lock<std::mutex> lock(mu_);
  const Clock::time_point now = Clock::now();
  for (auto& m : models_) {
    for (FrontDoorSlot* slot : m->pending) {
      complete_locked(*m, slot, RequestCode::kShed, now, callbacks);
    }
    m->pending.clear();
  }
  fire_callbacks(callbacks, lock);
}

void FrontDoor::register_model(const std::string& name,
                               FrontDoorModelOptions options) {
  std::lock_guard<std::mutex> lock(mu_);
  MLX_CHECK(find_model_locked(name) == nullptr)
      << "front-door model '" << name << "' already registered";
  auto entry = std::make_unique<ModelEntry>();
  entry->name = name;
  entry->opts = std::move(options);
  if (entry->opts.variants.empty()) {
    entry->opts.variants.push_back(FrontDoorBatchVariant{1, name});
  }
  std::sort(entry->opts.variants.begin(), entry->opts.variants.end(),
            [](const FrontDoorBatchVariant& a, const FrontDoorBatchVariant& b) {
              return a.batch < b.batch;
            });
  MLX_CHECK_GT(entry->opts.queue_capacity, 0u);

  // Derive the single-row slot shapes from the variants' loaded models and
  // check the variants agree with each other.
  Shape input_single;
  DType input_dtype = DType::kF32;
  QuantParams input_quant;
  std::vector<Shape> output_single;
  std::vector<DType> output_dtype;
  std::vector<QuantParams> output_quant;
  for (std::size_t vi = 0; vi < entry->opts.variants.size(); ++vi) {
    const FrontDoorBatchVariant& v = entry->opts.variants[vi];
    MLX_CHECK_GE(v.batch, 1);
    if (vi > 0) {
      MLX_CHECK_GT(v.batch, entry->opts.variants[vi - 1].batch)
          << "duplicate batch variant for '" << name << "'";
    }
    const Model* model = engine_->find(v.engine_model);
    MLX_CHECK(model != nullptr) << "front-door variant '" << v.engine_model
                                << "' is not loaded in the engine";
    const Graph& graph = model->graph();
    MLX_CHECK_EQ(model->input_ids().size(), 1u)
        << "the front door serves single-input models";
    const Node& in_node =
        graph.nodes[static_cast<std::size_t>(model->input_ids()[0])];
    MLX_CHECK_EQ(in_node.output_shape.dim(0), v.batch)
        << "variant '" << v.engine_model << "' input batch dim "
        << in_node.output_shape.dim(0) << " != declared batch " << v.batch;
    Shape in_single = in_node.output_shape;
    in_single.set_dim(0, 1);
    if (vi == 0) {
      input_single = in_single;
      input_dtype = in_node.output_dtype;
      input_quant = in_node.output_quant;
      for (int out_id : graph.outputs) {
        const Node& out_node = graph.nodes[static_cast<std::size_t>(out_id)];
        MLX_CHECK_EQ(out_node.output_shape.dim(0), v.batch);
        Shape out_s = out_node.output_shape;
        out_s.set_dim(0, 1);
        output_single.push_back(out_s);
        output_dtype.push_back(out_node.output_dtype);
        output_quant.push_back(out_node.output_quant);
      }
    } else {
      MLX_CHECK(in_single == input_single && in_node.output_dtype == input_dtype)
          << "variant '" << v.engine_model << "' input row disagrees";
      MLX_CHECK_EQ(graph.outputs.size(), output_single.size());
      for (std::size_t oi = 0; oi < output_single.size(); ++oi) {
        const Node& out_node = graph.nodes[static_cast<std::size_t>(
            graph.outputs[oi])];
        MLX_CHECK_EQ(out_node.output_shape.dim(0), v.batch);
        Shape out_s = out_node.output_shape;
        out_s.set_dim(0, 1);
        MLX_CHECK(out_s == output_single[oi] &&
                  out_node.output_dtype == output_dtype[oi])
            << "variant '" << v.engine_model << "' output " << oi
            << " row disagrees";
      }
    }
  }

  const int largest = entry->opts.variants.back().batch;
  entry->max_batch = entry->opts.max_batch;
  if (entry->max_batch <= 0 || entry->max_batch > largest) {
    entry->max_batch = largest;
  }
  entry->opts.max_batch = entry->max_batch;
  entry->stats.batch_size_hist.assign(
      static_cast<std::size_t>(entry->max_batch) + 1, 0);

  // Slot pool: the bounded queue plus every worker's largest possible
  // in-flight batch. Done-but-unreleased Tickets borrow from the same pool,
  // so hoarding finished tickets eventually surfaces as kQueueFull.
  const std::size_t slot_count =
      entry->opts.queue_capacity +
      static_cast<std::size_t>(entry->max_batch) *
          static_cast<std::size_t>(options_.workers);
  entry->slots.reserve(slot_count);
  entry->free_slots.reserve(slot_count);
  entry->pending.reserve(entry->opts.queue_capacity);
  for (std::size_t i = 0; i < slot_count; ++i) {
    auto slot = std::make_unique<FrontDoorSlot>();
    slot->owner = entry.get();
    slot->input = Tensor(input_dtype, input_single);
    slot->input.quant() = input_quant;
    slot->outputs.reserve(output_single.size());
    for (std::size_t oi = 0; oi < output_single.size(); ++oi) {
      Tensor out(output_dtype[oi], output_single[oi]);
      out.quant() = output_quant[oi];
      slot->outputs.push_back(std::move(out));
    }
    entry->free_slots.push_back(slot.get());
    entry->slots.push_back(std::move(slot));
  }
  entry->input_row_bytes = entry->slots[0]->input.byte_size();
  for (const Tensor& out : entry->slots[0]->outputs) {
    entry->output_row_bytes.push_back(out.byte_size());
  }

  models_.push_back(std::move(entry));
  work_cv_.notify_all();
}

bool FrontDoor::registered(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return find_model_locked(name) != nullptr;
}

FrontDoor::ModelEntry* FrontDoor::find_model_locked(
    const std::string& name) const {
  for (const auto& m : models_) {
    if (m->name == name) return m.get();
  }
  return nullptr;
}

Ticket FrontDoor::submit(const std::string& model, const Tensor& input,
                         double deadline_ms, int priority) {
  std::lock_guard<std::mutex> lock(mu_);
  ModelEntry* m = find_model_locked(model);
  if (m == nullptr) {
    RequestResult r;
    r.code = RequestCode::kUnknownModel;
    return Ticket(r);
  }
  FrontDoorSlot* slot = nullptr;
  const RequestCode code = admit_locked(*m, input, deadline_ms, priority,
                                        nullptr, nullptr, Clock::now(), &slot);
  if (code != RequestCode::kOk) {
    RequestResult r;
    r.code = code;
    return Ticket(r);
  }
  return Ticket(this, slot);
}

RequestCode FrontDoor::submit_async(const std::string& model,
                                    const Tensor& input, double deadline_ms,
                                    int priority, FrontDoorCallback done,
                                    void* done_ctx) {
  MLX_CHECK(done != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  ModelEntry* m = find_model_locked(model);
  if (m == nullptr) return RequestCode::kUnknownModel;
  FrontDoorSlot* slot = nullptr;
  return admit_locked(*m, input, deadline_ms, priority, done, done_ctx,
                      Clock::now(), &slot);
}

RequestCode FrontDoor::admit_locked(ModelEntry& m, const Tensor& input,
                                    double deadline_ms, int priority,
                                    FrontDoorCallback done, void* done_ctx,
                                    Clock::time_point now,
                                    FrontDoorSlot** out_slot) {
  ++m.stats.submitted;
  if (!breaker_admits_locked(m, now)) {
    ++m.stats.rejected_breaker_open;
    return RequestCode::kBreakerOpen;
  }
  if (m.pending.size() >= m.opts.queue_capacity || m.free_slots.empty()) {
    ++m.stats.rejected_queue_full;
    return RequestCode::kQueueFull;
  }
  double dl_ms = deadline_ms > 0.0 ? deadline_ms : m.opts.default_deadline_ms;
  if (dl_ms > 0.0 && m.est_us > 0.0) {
    // Worst-case serial projection: the batches already in flight, the
    // queued requests ahead of this one (coalesced max_batch at a time),
    // then this request's own batch.
    const double batches_ahead =
        1.0 + static_cast<double>(m.inflight_batches) +
        std::floor(static_cast<double>(m.pending.size()) /
                   static_cast<double>(m.max_batch));
    if (batches_ahead * m.est_us > dl_ms * 1000.0) {
      ++m.stats.rejected_infeasible;
      return RequestCode::kDeadlineInfeasible;
    }
  }
  // Admitted: copy the input into a pre-sized slot. Shape/dtype mismatch is
  // a caller bug, not load — MLX_CHECK is fine off the overload path.
  FrontDoorSlot* slot = m.free_slots.back();
  MLX_CHECK(input.byte_size() == slot->input.byte_size() &&
            input.dtype() == slot->input.dtype())
      << "submit input " << input.shape().to_string() << "/"
      << dtype_name(input.dtype()) << " does not match model row "
      << slot->input.shape().to_string() << "/"
      << dtype_name(slot->input.dtype());
  m.free_slots.pop_back();
  std::memcpy(slot->input.raw_data(), input.raw_data(), input.byte_size());
  slot->priority = priority;
  slot->submit_time = now;
  slot->has_deadline = dl_ms > 0.0;
  slot->deadline =
      slot->has_deadline ? now + ms_duration(dl_ms) : Clock::time_point::max();
  slot->not_before = now;
  slot->retried = false;
  slot->deadline_requeued = false;
  slot->done = false;
  slot->callback = done;
  slot->callback_ctx = done_ctx;
  slot->result = RequestResult{};
  slot->result.outputs = slot->outputs.data();
  slot->result.output_count = static_cast<int>(slot->outputs.size());
  m.pending.push_back(slot);
  ++m.stats.admitted;
  m.stats.max_queue_depth = std::max(m.stats.max_queue_depth, m.pending.size());
  *out_slot = slot;
  work_cv_.notify_one();
  return RequestCode::kOk;
}

bool FrontDoor::breaker_admits_locked(ModelEntry& m, Clock::time_point now) {
  if (m.breaker == BreakerState::kClosed) return true;
  if (m.breaker == BreakerState::kHalfOpen) return true;  // queue the probe
  // Open: cooldown elapsed -> half-open and admit the probe.
  if (now >= m.breaker_opened_at + ms_duration(m.opts.breaker_open_ms)) {
    breaker_transition_locked(m, BreakerState::kHalfOpen, now);
    return true;
  }
  // A hot-swap heals an open breaker immediately: the failing version is
  // gone, the new one deserves traffic.
  const std::uint64_t v =
      engine_->serving_version(m.opts.variants[0].engine_model);
  if (v != 0 && v != m.breaker_version) {
    breaker_transition_locked(m, BreakerState::kClosed, now);
    m.breaker_version = v;
    return true;
  }
  return false;
}

void FrontDoor::breaker_transition_locked(ModelEntry& m, BreakerState to,
                                          Clock::time_point now) {
  if (m.breaker == to) return;
  const BreakerState from = m.breaker;
  m.breaker = to;
  if (to == BreakerState::kOpen) {
    ++m.stats.breaker_trips;
    m.breaker_opened_at = now;
    m.probe_inflight = false;
  } else if (to == BreakerState::kClosed) {
    m.consecutive_failures = 0;
    m.probe_inflight = false;
  }
  if (observer_ != nullptr) {
    observer_->on_breaker(m.name, m.breaker_version, from, to);
  }
}

void FrontDoor::complete_locked(ModelEntry& m, FrontDoorSlot* slot,
                                RequestCode code, Clock::time_point now,
                                std::vector<FrontDoorSlot*>& callback_batch) {
  slot->result.code = code;
  slot->result.latency_us = us_between(slot->submit_time, now);
  slot->result.retried = slot->retried;
  switch (code) {
    case RequestCode::kOk:
      ++m.stats.completed_ok;
      break;
    case RequestCode::kError:
      ++m.stats.failed;
      break;
    case RequestCode::kDeadlineExceeded:
      ++m.stats.deadline_exceeded;
      break;
    case RequestCode::kUnknownModel:
      ++m.stats.unknown_model;
      break;
    case RequestCode::kShed:
      ++m.stats.shed;
      break;
    case RequestCode::kBreakerOpen:
      ++m.stats.flushed_breaker_open;
      break;
    default:
      break;
  }
  if (slot->callback != nullptr) {
    callback_batch.push_back(slot);
  } else {
    slot->done = true;
    done_cv_.notify_all();
  }
}

void FrontDoor::shed_unservable_locked(
    ModelEntry& m, Clock::time_point now,
    std::vector<FrontDoorSlot*>& callback_batch) {
  if (m.pending.empty()) return;
  std::size_t w = 0;
  for (std::size_t r = 0; r < m.pending.size(); ++r) {
    FrontDoorSlot* slot = m.pending[r];
    if (slot->deadline_unmeetable(now, m.est_us)) {
      // Shed now instead of burning a batch slot on a guaranteed miss.
      complete_locked(m, slot, RequestCode::kShed, now, callback_batch);
    } else {
      m.pending[w++] = slot;
    }
  }
  m.pending.resize(w);
}

void FrontDoor::form_batch_locked(ModelEntry& m, Clock::time_point now,
                                  std::vector<FrontDoorSlot*>& batch) {
  batch.clear();
  // Ready requests first, then priority (higher first), then deadline
  // (earlier first; no deadline sorts last), then arrival. Under overload
  // this is also the shedding order read backwards: low-priority,
  // late-deadline requests are the ones left waiting.
  std::sort(m.pending.begin(), m.pending.end(),
            [now](const FrontDoorSlot* a, const FrontDoorSlot* b) {
              const bool ra = a->not_before <= now;
              const bool rb = b->not_before <= now;
              if (ra != rb) return ra;
              if (a->priority != b->priority) return a->priority > b->priority;
              if (a->deadline != b->deadline) return a->deadline < b->deadline;
              return a->submit_time < b->submit_time;
            });
  std::size_t n = 0;
  while (n < m.pending.size() &&
         n < static_cast<std::size_t>(m.max_batch) &&
         m.pending[n]->not_before <= now) {
    ++n;
  }
  batch.assign(m.pending.begin(),
               m.pending.begin() + static_cast<std::ptrdiff_t>(n));
  m.pending.erase(m.pending.begin(),
                  m.pending.begin() + static_cast<std::ptrdiff_t>(n));
  for (FrontDoorSlot* slot : batch) {
    slot->result.queue_us = us_between(slot->submit_time, now);
  }
  m.inflight += n;
  ++m.inflight_batches;
  ++m.stats.batches;
  if (n < m.stats.batch_size_hist.size()) ++m.stats.batch_size_hist[n];
  if (m.breaker == BreakerState::kHalfOpen) m.probe_inflight = true;
}

void FrontDoor::execute_batch(ModelEntry& m,
                              std::vector<FrontDoorSlot*>& batch,
                              bool was_probe,
                              std::vector<FrontDoorSlot*>& callback_batch,
                              std::unique_lock<std::mutex>& lock) {
  const std::size_t n = batch.size();
  // Smallest registered variant that fits the coalesced count (exists:
  // max_batch is clamped to the largest variant batch).
  const FrontDoorBatchVariant* variant = &m.opts.variants.back();
  for (const FrontDoorBatchVariant& v : m.opts.variants) {
    if (static_cast<std::size_t>(v.batch) >= n) {
      variant = &v;
      break;
    }
  }
  if (observer_ != nullptr) {
    observer_->on_dispatch(m.name, static_cast<int>(n), variant->batch);
  }

  lock.unlock();
  const Clock::time_point t0 = Clock::now();
  RequestCode code = RequestCode::kUnknownModel;
  std::uint64_t version = 0;
  double service_us = 0.0;
  {
    SessionLease lease = engine_->try_acquire(variant->engine_model);
    if (lease) {
      version = lease.version();
      Tensor& in = lease->mutable_input(0);
      auto* dst = static_cast<std::uint8_t*>(in.raw_data());
      for (std::size_t i = 0; i < n; ++i) {
        std::memcpy(dst + i * m.input_row_bytes, batch[i]->input.raw_data(),
                    m.input_row_bytes);
      }
      // Pad spare variant rows with row 0: batched graph rows are
      // independent, so the padding only costs the (constant) batch work.
      for (std::size_t i = n; i < static_cast<std::size_t>(variant->batch);
           ++i) {
        std::memcpy(dst + i * m.input_row_bytes, batch[0]->input.raw_data(),
                    m.input_row_bytes);
      }
      Clock::time_point earliest = Clock::time_point::max();
      for (std::size_t i = 0; i < n; ++i) {
        if (batch[i]->has_deadline && batch[i]->deadline < earliest) {
          earliest = batch[i]->deadline;
        }
      }
      const InvokeStatus status = earliest == Clock::time_point::max()
                                      ? lease->try_invoke()
                                      : lease->try_invoke_until(earliest);
      service_us = us_between(t0, Clock::now());
      if (status.code == InvokeCode::kOk) {
        for (std::size_t oi = 0; oi < m.output_row_bytes.size(); ++oi) {
          const auto* src = static_cast<const std::uint8_t*>(
              lease->output(static_cast<int>(oi)).raw_data());
          const std::size_t row = m.output_row_bytes[oi];
          for (std::size_t i = 0; i < n; ++i) {
            std::memcpy(batch[i]->outputs[oi].raw_data(), src + i * row, row);
          }
        }
        code = RequestCode::kOk;
      } else if (status.code == InvokeCode::kDeadlineExceeded) {
        code = RequestCode::kDeadlineExceeded;
      } else {
        // kError / kPoisoned: contained fault; the Engine destroys the
        // poisoned session on release, so the pool stays healthy.
        code = RequestCode::kError;
      }
    }
  }  // lease released (poisoned sessions die here)

  lock.lock();
  const Clock::time_point now = Clock::now();
  m.inflight -= n;
  --m.inflight_batches;
  if (was_probe) m.probe_inflight = false;

  // Breaker keying: a new engine version gets a clean slate.
  if (version != 0 && version != m.breaker_version) {
    if (m.breaker != BreakerState::kClosed) {
      breaker_transition_locked(m, BreakerState::kClosed, now);
    }
    m.breaker_version = version;
    m.consecutive_failures = 0;
  }

  for (FrontDoorSlot* slot : batch) {
    slot->result.batch_size = static_cast<int>(n);
    slot->result.version = version;
  }

  if (code == RequestCode::kOk) {
    m.consecutive_failures = 0;
    if (m.breaker == BreakerState::kHalfOpen) {
      breaker_transition_locked(m, BreakerState::kClosed, now);
    }
    m.est_us = m.est_us <= 0.0
                   ? service_us
                   : kServiceEwmaAlpha * service_us +
                         (1.0 - kServiceEwmaAlpha) * m.est_us;
    for (FrontDoorSlot* slot : batch) {
      complete_locked(m, slot, RequestCode::kOk, now, callback_batch);
    }
  } else if (code == RequestCode::kError) {
    ++m.consecutive_failures;
    if (m.breaker == BreakerState::kHalfOpen) {
      // The probe failed: back to failing fast.
      breaker_transition_locked(m, BreakerState::kOpen, now);
    } else if (m.breaker == BreakerState::kClosed &&
               m.consecutive_failures >= m.opts.breaker_failure_threshold) {
      breaker_transition_locked(m, BreakerState::kOpen, now);
    }
    if (m.breaker == BreakerState::kOpen) {
      // Fail fast on *every* transition to open — the first trip and a
      // failed half-open probe alike. Requests admitted while the probe was
      // in flight would otherwise strand: nothing serves an open model, and
      // with no new submits nothing would ever half-open it again.
      for (FrontDoorSlot* slot : m.pending) {
        complete_locked(m, slot, RequestCode::kBreakerOpen, now,
                        callback_batch);
      }
      m.pending.clear();
    }
    for (FrontDoorSlot* slot : batch) {
      bool can_retry = m.opts.retry_transient_faults && !slot->retried &&
                       m.breaker != BreakerState::kOpen &&
                       m.pending.size() < m.opts.queue_capacity;
      double backoff_ms = 0.0;
      if (can_retry) {
        const double u =
            static_cast<double>(next_jitter(jitter_state_) >> 11) *
            (1.0 / 9007199254740992.0);  // uniform [0, 1)
        backoff_ms = kRetryBackoffMinMs +
                     u * (kRetryBackoffMaxMs - kRetryBackoffMinMs);
        if (slot->has_deadline &&
            us_between(now, slot->deadline) <
                backoff_ms * 1000.0 + m.est_us) {
          can_retry = false;  // the retry could not finish in time anyway
        }
      }
      if (can_retry) {
        slot->retried = true;
        slot->not_before = now + ms_duration(backoff_ms);
        m.pending.push_back(slot);
        ++m.stats.retries;
      } else {
        complete_locked(m, slot, RequestCode::kError, now, callback_batch);
      }
    }
  } else if (code == RequestCode::kDeadlineExceeded) {
    // The batched invoke expired against the *earliest* member deadline.
    // That verdict is only final for members whose own deadline has passed
    // (or provably cannot be met); members with later or no deadlines were
    // collateral of the coalescing choice — requeue each of them once
    // instead of failing a request that still has budget.
    for (FrontDoorSlot* slot : batch) {
      if (!slot->deadline_unmeetable(now, m.est_us) &&
          !slot->deadline_requeued && m.breaker != BreakerState::kOpen &&
          m.pending.size() < m.opts.queue_capacity) {
        slot->deadline_requeued = true;
        m.pending.push_back(slot);
        ++m.stats.deadline_requeues;
      } else {
        complete_locked(m, slot, RequestCode::kDeadlineExceeded, now,
                        callback_batch);
      }
    }
  } else {
    // kUnknownModel applies to every member.
    for (FrontDoorSlot* slot : batch) {
      complete_locked(m, slot, code, now, callback_batch);
    }
  }
  batch.clear();
  // Requests may have queued behind this batch (or a probe just resolved)
  // while other workers slept with no timed wakeup pending.
  if (!m.pending.empty()) work_cv_.notify_all();
}

void FrontDoor::fire_callbacks(std::vector<FrontDoorSlot*>& callback_batch,
                               std::unique_lock<std::mutex>& lock) {
  if (callback_batch.empty()) return;
  lock.unlock();
  for (FrontDoorSlot* slot : callback_batch) {
    slot->callback(slot->callback_ctx, slot->result);
  }
  lock.lock();
  for (FrontDoorSlot* slot : callback_batch) recycle_slot_locked(slot);
  callback_batch.clear();
}

void FrontDoor::recycle_slot_locked(FrontDoorSlot* slot) {
  slot->done = false;
  slot->callback = nullptr;
  slot->callback_ctx = nullptr;
  slot->owner->free_slots.push_back(slot);
}

void FrontDoor::worker_loop() {
  std::vector<FrontDoorSlot*> batch;
  std::vector<FrontDoorSlot*> callbacks;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (stopping_) break;
    // Keep the worker-local scratch big enough for the largest shed/flush
    // (allocates only when a model is registered, never in steady state).
    std::size_t total_slots = 0;
    std::size_t largest_batch = 1;
    for (const auto& mp : models_) {
      total_slots += mp->slots.size();
      largest_batch =
          std::max(largest_batch, static_cast<std::size_t>(mp->max_batch));
    }
    if (callbacks.capacity() < total_slots) callbacks.reserve(total_slots);
    if (batch.capacity() < largest_batch) batch.reserve(largest_batch);

    const Clock::time_point now = Clock::now();
    Clock::time_point next_event = Clock::time_point::max();
    ModelEntry* target = nullptr;
    bool target_probe = false;
    const std::size_t n_models = models_.size();
    for (std::size_t k = 0; k < n_models; ++k) {
      const std::size_t idx = (rr_cursor_ + k) % n_models;
      ModelEntry& m = *models_[idx];
      shed_unservable_locked(m, now, callbacks);
      if (m.pending.empty()) continue;
      if (m.breaker == BreakerState::kOpen) {
        // Every transition to open flushes the queue, so pending behind an
        // open breaker is a narrow race (e.g. a concurrent batch requeued a
        // member after the flush). Don't strand them: once the cooldown
        // elapses, half-open here — the submit path only transitions on new
        // traffic — and let the queued requests form the probe.
        const Clock::time_point reopen =
            m.breaker_opened_at + ms_duration(m.opts.breaker_open_ms);
        if (now < reopen) {
          next_event = std::min(next_event, reopen);
          continue;
        }
        breaker_transition_locked(m, BreakerState::kHalfOpen, now);
      }
      if (m.breaker == BreakerState::kHalfOpen && m.probe_inflight) {
        continue;  // one probe at a time; its completion re-notifies
      }
      std::size_t ready = 0;
      Clock::time_point oldest = Clock::time_point::max();
      Clock::time_point soonest_hold = Clock::time_point::max();
      for (const FrontDoorSlot* slot : m.pending) {
        if (slot->not_before > now) {
          soonest_hold = std::min(soonest_hold, slot->not_before);
          continue;
        }
        ++ready;
        oldest = std::min(oldest, slot->submit_time);
      }
      if (ready == 0) {
        next_event = std::min(next_event, soonest_hold);
        continue;
      }
      const Clock::time_point wait_deadline =
          oldest + ms_duration(m.opts.max_wait_ms);
      if (ready >= static_cast<std::size_t>(m.max_batch) ||
          now >= wait_deadline) {
        target = &m;
        target_probe = m.breaker == BreakerState::kHalfOpen;
        rr_cursor_ = (idx + 1) % n_models;
        break;
      }
      next_event = std::min(next_event, wait_deadline);
      next_event = std::min(next_event, soonest_hold);
    }

    if (target != nullptr) {
      form_batch_locked(*target, now, batch);
      if (!batch.empty()) {
        execute_batch(*target, batch, target_probe, callbacks, lock);
      }
      fire_callbacks(callbacks, lock);
      continue;
    }
    fire_callbacks(callbacks, lock);
    if (stopping_) break;
    if (next_event == Clock::time_point::max()) {
      work_cv_.wait(lock);
    } else {
      work_cv_.wait_until(lock, next_event);
    }
  }
}

FrontDoorStats FrontDoor::stats(const std::string& model) const {
  std::lock_guard<std::mutex> lock(mu_);
  const ModelEntry* m = find_model_locked(model);
  MLX_CHECK(m != nullptr) << "front-door model '" << model
                          << "' is not registered";
  FrontDoorStats s = m->stats;
  s.queue_depth = m->pending.size();
  s.inflight = m->inflight;
  s.breaker_state = m->breaker;
  s.breaker_version = m->breaker_version;
  s.service_estimate_us = m->est_us;
  return s;
}

void FrontDoor::set_observer(FrontDoorObserver* observer) {
  std::lock_guard<std::mutex> lock(mu_);
  observer_ = observer;
}

void FrontDoor::set_service_estimate_for_testing(const std::string& model,
                                                 double us) {
  std::lock_guard<std::mutex> lock(mu_);
  ModelEntry* m = find_model_locked(model);
  MLX_CHECK(m != nullptr);
  m->est_us = us;
}

}  // namespace mlexray
