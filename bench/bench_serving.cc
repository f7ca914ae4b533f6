// Concurrent serving benchmark: one shared prepared Model, T threads each
// holding a pooled Engine session — the prepare-once/serve-many contract of
// the Model/Session split.
//
// For every model/dtype it sweeps thread counts and records steady-state
// invoke throughput plus the memory split the API is designed around:
// prepared bytes are paid ONCE per model (constant in session count), while
// each session pays only its private scratch-arena high-water mark.
// Near-linear invokes/s scaling with
// threads is the signal that sessions really share the plan without
// synchronizing.
//
// An mt-model sweep then serves a model whose kernels are themselves
// multi-threaded from two concurrent sessions, sweeping the engine's
// kernel-thread cap: throughput rising with the cap shows concurrent
// parallel_for jobs sharing the engine's worker set instead of serializing
// on a process-global queue.
//
// An open-loop sweep then drives the FrontDoor at fixed offered load
// (Poisson arrivals at 0.4x / 1x / 2x / 4x of single-session capacity,
// independent of completions — the arrival process does not slow down when
// the server backs up, unlike the closed loops above). Each factor records
// admitted p50/p99 against the deadline plus the full rejection/shed
// accounting, so BENCH_serving.json carries the overload curve the front
// door is designed for: past the knee, excess demand shows up as typed
// sheds/rejections while the latency of what IS served stays bounded.
//
// A final hot-swap scenario loads a second version of a model while T
// closed-loop threads keep serving (acquire / try_invoke / release per
// request): the row locks in zero failed requests across the swap and
// reports the swap window's p99 latency against the pre-swap steady state.
//
// Emits google-benchmark-shaped JSON on stdout (context + benchmarks[])
// so bench/run_benches.sh can digest and stamp BENCH_serving.json with the
// same tooling as the gbench harnesses. Pass --quick for a CI smoke run.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/interpreter/front_door.h"

#include "src/convert/converter.h"
#include "src/interpreter/engine.h"
#include "src/models/zoo.h"
#include "src/quant/quantizer.h"

namespace mlexray {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kSeed = 17;

Tensor random_model_input(const Graph& graph, std::uint64_t seed) {
  const Shape& shape = graph.node(graph.input_ids()[0]).output_shape;
  Tensor input = Tensor::f32(shape);
  Pcg32 rng(seed);
  float* p = input.data<float>();
  for (std::int64_t i = 0; i < input.num_elements(); ++i) {
    p[i] = rng.uniform(-1, 1);
  }
  return input;
}

struct Row {
  std::string name;
  double us_per_invoke = 0.0;
  double invokes_per_sec = 0.0;
  int threads = 0;
  std::int64_t invokes = 0;
  double prepared_kb = 0.0;
  double arena_hw_kb = 0.0;      // max across sessions
  double activation_kb = 0.0;    // per session
  std::size_t sessions = 0;
};

// Runs `threads` workers, each invoking its own pooled session
// `invokes_per_thread` times against the already-loaded model.
Row serve(Engine& engine, const std::string& model_name, int threads,
          std::int64_t invokes_per_thread, const Tensor& input) {
  std::vector<SessionLease> leases;
  leases.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    leases.push_back(engine.acquire(model_name));
    // Warmup grows each session's arena to its high-water mark so the timed
    // region is the zero-alloc steady state.
    leases.back()->set_input(0, input);
    leases.back()->invoke();
  }

  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(threads));
  const auto start = Clock::now();
  for (int t = 0; t < threads; ++t) {
    Session* session = leases[static_cast<std::size_t>(t)].get();
    workers.emplace_back([session, invokes_per_thread, &input] {
      for (std::int64_t i = 0; i < invokes_per_thread; ++i) {
        session->set_input(0, input);
        session->invoke();
      }
    });
  }
  for (std::thread& w : workers) w.join();
  const double secs = std::chrono::duration<double>(Clock::now() - start).count();

  Row row;
  row.threads = threads;
  row.invokes = invokes_per_thread * threads;
  row.us_per_invoke = secs * 1e6 / static_cast<double>(row.invokes);
  row.invokes_per_sec = static_cast<double>(row.invokes) / secs;
  const EnginePoolStats stats = engine.pool_stats(model_name);
  row.prepared_kb = static_cast<double>(stats.prepared_bytes) / 1024.0;
  row.sessions = stats.sessions_created;
  for (const SessionLease& lease : leases) {
    row.arena_hw_kb =
        std::max(row.arena_hw_kb,
                 static_cast<double>(
                     lease->last_stats().arena_high_water_bytes) /
                     1024.0);
    row.activation_kb =
        static_cast<double>(lease->activation_bytes()) / 1024.0;
  }
  return row;
}

// --- multi-threaded model x multi-session ------------------------------------

// mt-model scenario: a fixed pair of concurrent sessions over ONE model
// whose kernels are themselves multi-threaded, sweeping the engine's
// kernel-thread cap. Every session's parallel_for jobs land on the engine's
// shared worker set, so invoke throughput rising with the cap (on hosts
// with cores to back it) is the signal that concurrent jobs really run
// side by side instead of serializing on a process-global queue — the
// composable-threading contract. Rows keep the serving sweep's invariant:
// prepared bytes constant in the cap.
std::vector<Row> mt_model_sweep(bool quick, unsigned hw) {
  const ZooEntry* entry = nullptr;
  for (const ZooEntry& e : image_zoo()) {
    if (e.name == "mobilenet_v1_mini") entry = &e;
  }
  MLX_CHECK(entry != nullptr);

  const int sessions = 2;
  std::vector<int> caps = {1, 2};
  if (hw >= 4) caps.push_back(4);

  std::int64_t invokes_per_thread = 0;
  std::vector<Row> rows;
  for (int cap : caps) {
    Graph graph = convert_for_inference(entry->build(kSeed, 1).model);
    Tensor input = random_model_input(graph, kSeed + 7);
    BuiltinOpResolver resolver;
    Engine engine(&resolver, cap);
    engine.load("mobilenet_v1_mini/f32", std::move(graph));

    // Calibrate once at cap 1 so every cap serves the same invoke count.
    if (invokes_per_thread == 0) {
      const auto probe_start = Clock::now();
      {
        SessionLease probe = engine.acquire("mobilenet_v1_mini/f32");
        probe->set_input(0, input);
        for (int i = 0; i < 5; ++i) probe->invoke();
      }
      const double probe_ms =
          std::chrono::duration<double, std::milli>(Clock::now() -
                                                    probe_start)
              .count() /
          5.0;
      const double target_ms = quick ? 30.0 : 300.0;
      invokes_per_thread = static_cast<std::int64_t>(
          std::max(2.0, target_ms / std::max(probe_ms, 1e-3)));
    }

    Row row = serve(engine, "mobilenet_v1_mini/f32", sessions,
                    invokes_per_thread, input);
    // The swept axis for this scenario is the kernel-thread cap, not the
    // session count (which stays fixed at `sessions`).
    row.threads = cap;
    row.name = "mtmodel/mobilenet_v1_mini/f32/t" + std::to_string(cap);
    std::fprintf(stderr, "%-44s %10.1f us/invoke %12.1f inv/s\n",
                 row.name.c_str(), row.us_per_invoke, row.invokes_per_sec);
    rows.push_back(row);
  }
  return rows;
}

// --- hot-swap under load -----------------------------------------------------

struct HotSwapRow {
  std::string name;
  int threads = 0;
  std::int64_t requests = 0;
  std::int64_t failed_requests = 0;
  std::int64_t empty_leases = 0;
  double mean_us = 0.0;
  double steady_p99_us = 0.0;       // before the swap started
  double swap_window_p99_us = 0.0;  // completed while the swap was in flight
  double swap_load_ms = 0.0;        // wall clock of the load() call itself
  std::uint64_t versions_retired = 0;
};

double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

// Closed-loop serving with a mid-run hot swap: T workers acquire / try_invoke
// / release per request (the full pool round trip, so the swap's drain logic
// is on the request path) while the main thread loads a new version of the
// same name. Every request must succeed; the row reports tail latency inside
// the swap window against the pre-swap steady state.
HotSwapRow hotswap_scenario(const std::string& model_name, Graph graph_v1,
                            Graph graph_v2, const Tensor& input, int threads,
                            bool quick) {
  struct Sample {
    double end_us = 0.0;  // completion time, relative to run start
    double latency_us = 0.0;
  };
  const double warm_ms = quick ? 40.0 : 250.0;
  const double tail_ms = quick ? 40.0 : 250.0;

  BuiltinOpResolver resolver;
  Engine engine(&resolver);
  engine.load(model_name, std::move(graph_v1));

  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> failed{0};
  std::atomic<std::int64_t> empty{0};
  std::vector<std::vector<Sample>> samples(
      static_cast<std::size_t>(threads));
  const auto run_start = Clock::now();

  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    std::vector<Sample>* out = &samples[static_cast<std::size_t>(t)];
    out->reserve(1 << 16);
    workers.emplace_back([&, out] {
      while (!stop.load(std::memory_order_relaxed)) {
        const auto req_start = Clock::now();
        SessionLease lease = engine.try_acquire(model_name);
        if (!lease) {
          empty.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        lease->set_input(0, input);
        const InvokeStatus status = lease->try_invoke();
        const auto req_end = Clock::now();
        if (!status.ok()) {
          failed.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        Sample s;
        s.end_us =
            std::chrono::duration<double, std::micro>(req_end - run_start)
                .count();
        s.latency_us =
            std::chrono::duration<double, std::micro>(req_end - req_start)
                .count();
        out->push_back(s);
      }
    });
  }

  // Steady state, then the swap, then a post-swap tail.
  std::this_thread::sleep_for(
      std::chrono::duration<double, std::milli>(warm_ms));
  const auto swap_begin = Clock::now();
  engine.load(model_name, std::move(graph_v2));
  const auto swap_end = Clock::now();
  std::this_thread::sleep_for(
      std::chrono::duration<double, std::milli>(tail_ms));
  stop.store(true);
  for (std::thread& w : workers) w.join();

  const double swap_begin_us =
      std::chrono::duration<double, std::micro>(swap_begin - run_start)
          .count();
  const double swap_end_us =
      std::chrono::duration<double, std::micro>(swap_end - run_start).count();

  HotSwapRow row;
  row.threads = threads;
  row.failed_requests = failed.load();
  row.empty_leases = empty.load();
  row.swap_load_ms = (swap_end_us - swap_begin_us) / 1000.0;
  row.versions_retired = engine.pool_stats(model_name).versions_retired;

  std::vector<double> steady, swap_window;
  double latency_sum = 0.0;
  for (const std::vector<Sample>& per_thread : samples) {
    row.requests += static_cast<std::int64_t>(per_thread.size());
    for (const Sample& s : per_thread) {
      latency_sum += s.latency_us;
      if (s.end_us < swap_begin_us) {
        steady.push_back(s.latency_us);
      } else if (s.end_us <= swap_end_us) {
        swap_window.push_back(s.latency_us);
      }
    }
  }
  row.mean_us =
      row.requests > 0 ? latency_sum / static_cast<double>(row.requests) : 0.0;
  row.steady_p99_us = percentile(steady, 0.99);
  row.swap_window_p99_us = percentile(swap_window, 0.99);
  // An empty swap window (the load outpaced every in-flight request) is
  // healthy; report the steady tail so the column is never misleadingly 0.
  if (swap_window.empty()) row.swap_window_p99_us = row.steady_p99_us;
  return row;
}

// --- open-loop offered-load sweep (FrontDoor) --------------------------------

struct OpenLoopRow {
  std::string name;
  double factor = 0.0;        // offered load as a multiple of capacity
  double deadline_ms = 0.0;
  double offered_qps = 0.0;   // actually generated, not the nominal target
  double achieved_qps = 0.0;  // kOk completions per second
  std::int64_t submitted = 0;
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t failed_requests = 0;
  std::uint64_t unknown_model = 0;
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_infeasible = 0;
  std::uint64_t rejected_breaker_open = 0;
  double p50_us = 0.0;  // admitted kOk latency, submit -> done
  double p99_us = 0.0;
  std::uint64_t batches = 0;
  double mean_batch_size = 0.0;
  std::size_t max_queue_depth = 0;
};

double probe_service_us(Engine& engine, const std::string& model,
                        const Tensor& input, int reps) {
  SessionLease lease = engine.acquire(model);
  lease->set_input(0, input);
  lease->invoke();  // warm the arena so the probe is steady-state
  const auto start = Clock::now();
  for (int i = 0; i < reps; ++i) {
    lease->set_input(0, input);
    lease->invoke();
  }
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
             .count() /
         static_cast<double>(reps);
}

// One offered-load point: Poisson arrivals at `lambda_qps` through
// submit_async for `duration_s`, then drain. A fresh FrontDoor per point
// keeps the counters and the EWMA estimate per-row.
OpenLoopRow run_open_loop(Engine& engine, const std::string& name,
                          const FrontDoorModelOptions& mopts,
                          const Tensor& input, double lambda_qps,
                          double deadline_ms, double duration_s,
                          std::uint64_t seed) {
  struct Tally {
    std::vector<double> ok_us;
    std::uint64_t ok = 0;
    std::uint64_t shed = 0;
    std::uint64_t deadline_exceeded = 0;
    std::uint64_t failed = 0;
    std::uint64_t unknown = 0;
    std::atomic<std::int64_t> done{0};
  } tally;
  tally.ok_us.reserve(
      static_cast<std::size_t>(lambda_qps * duration_s * 1.5) + 1024);
  // Scheduler-thread callback: non-atomic fields are safe because the single
  // worker is the only writer and the generator only reads them after the
  // drain barrier below.
  const FrontDoorCallback on_done = [](void* ctx, const RequestResult& r) {
    auto* t = static_cast<Tally*>(ctx);
    switch (r.code) {
      case RequestCode::kOk:
        ++t->ok;
        t->ok_us.push_back(r.latency_us);
        break;
      case RequestCode::kShed: ++t->shed; break;
      case RequestCode::kDeadlineExceeded: ++t->deadline_exceeded; break;
      case RequestCode::kError: ++t->failed; break;
      default: ++t->unknown; break;
    }
    t->done.fetch_add(1, std::memory_order_release);
  };

  FrontDoor door(&engine, {.workers = 1});
  door.register_model(name, mopts);
  // Warmup primes the batch variants' arenas and seeds the EWMA service
  // estimate so admission control is armed from the first timed arrival.
  for (int i = 0; i < 3; ++i) {
    Ticket t = door.submit(name, input);
    t.wait();
  }
  const FrontDoorStats warm = door.stats(name);

  OpenLoopRow row;
  Pcg32 rng(seed);
  std::int64_t admitted = 0;
  auto next = Clock::now();
  const auto start = next;
  const auto end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(duration_s));
  while (true) {
    // Exponential inter-arrival: the open loop never waits for completions.
    const double gap_s =
        -std::log(1.0 - rng.next_double()) / std::max(lambda_qps, 1.0);
    next += std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(gap_s));
    if (next >= end) break;
    std::this_thread::sleep_until(next);
    const RequestCode code =
        door.submit_async(name, input, deadline_ms, /*priority=*/0, on_done,
                          &tally);
    ++row.submitted;
    switch (code) {
      case RequestCode::kOk: ++admitted; break;
      case RequestCode::kQueueFull: ++row.rejected_queue_full; break;
      case RequestCode::kDeadlineInfeasible: ++row.rejected_infeasible; break;
      case RequestCode::kBreakerOpen: ++row.rejected_breaker_open; break;
      default: ++row.unknown_model; break;
    }
  }
  const double gen_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  const auto drain_deadline = Clock::now() + std::chrono::seconds(10);
  while (tally.done.load(std::memory_order_acquire) < admitted &&
         Clock::now() < drain_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  row.offered_qps = static_cast<double>(row.submitted) / gen_s;
  row.achieved_qps = static_cast<double>(tally.ok) / gen_s;
  row.ok = tally.ok;
  row.shed = tally.shed;
  row.deadline_exceeded = tally.deadline_exceeded;
  row.failed_requests = tally.failed;
  row.unknown_model += tally.unknown;
  row.p50_us = percentile(tally.ok_us, 0.50);
  row.p99_us = percentile(tally.ok_us, 0.99);
  const FrontDoorStats stats = door.stats(name);
  row.batches = stats.batches - warm.batches;
  row.max_queue_depth = stats.max_queue_depth;
  std::uint64_t coalesced = 0;
  for (std::size_t n = 1; n < stats.batch_size_hist.size(); ++n) {
    std::uint64_t h = stats.batch_size_hist[n];
    if (n < warm.batch_size_hist.size()) h -= warm.batch_size_hist[n];
    coalesced += h * n;
  }
  row.mean_batch_size =
      row.batches > 0
          ? static_cast<double>(coalesced) / static_cast<double>(row.batches)
          : 0.0;
  return row;
}

std::vector<OpenLoopRow> open_loop_sweep(bool quick) {
  const ZooEntry* entry = nullptr;
  for (const ZooEntry& e : image_zoo()) {
    if (e.name == "mobilenet_v1_mini") entry = &e;
  }
  MLX_CHECK(entry != nullptr);
  Graph b1 = convert_for_inference(entry->build(kSeed, 1).model);
  Graph b4 = convert_for_inference(entry->build(kSeed, 4).model);
  Tensor input1 = random_model_input(b1, kSeed + 7);
  Tensor input4 = random_model_input(b4, kSeed + 7);

  BuiltinOpResolver resolver;
  Engine engine(&resolver);
  engine.load("mobilenet_v1_mini/f32", std::move(b1));
  engine.load("mobilenet_v1_mini/f32@b4", std::move(b4));

  const double s1_us = probe_service_us(engine, "mobilenet_v1_mini/f32",
                                        input1, quick ? 3 : 8);
  const double s4_us = probe_service_us(engine, "mobilenet_v1_mini/f32@b4",
                                        input4, quick ? 3 : 8);

  FrontDoorModelOptions mopts;
  mopts.queue_capacity = 64;
  mopts.max_batch = 4;
  mopts.max_wait_ms = std::clamp(s4_us / 1000.0, 0.2, 5.0);
  mopts.variants = {{1, "mobilenet_v1_mini/f32"},
                    {4, "mobilenet_v1_mini/f32@b4"}};

  const double capacity_qps = 1e6 / std::max(s1_us, 1.0);
  const double duration_s = quick ? 0.3 : 1.5;
  const double factors[] = {0.4, 1.0, 2.0, 4.0};

  std::vector<OpenLoopRow> rows;
  double p99_base_us = 0.0;
  for (double f : factors) {
    // Below capacity the deadline is generous (nothing should miss it); the
    // overload points get a deadline pinned to the below-capacity tail so
    // the bound "admitted p99 stays within 2x the uncontended p99" is the
    // deadline policy itself, not luck. The 2.2*s4 floor keeps the deadline
    // serviceable even if the base tail was unusually tight; it stays under
    // 2x base structurally because base p99 >= max_wait + s1 ~ s4 + s1 and
    // s4 <= 4*s1.
    const double deadline_ms =
        f <= 0.5 ? std::max(20.0 * s4_us / 1000.0, 5.0)
                 : std::max(1.8 * p99_base_us / 1000.0, 2.2 * s4_us / 1000.0);
    OpenLoopRow row = run_open_loop(
        engine, "mobilenet_v1_mini/f32", mopts, input1, f * capacity_qps,
        deadline_ms, duration_s,
        /*seed=*/kSeed + 31 + static_cast<std::uint64_t>(f * 10.0));
    row.factor = f;
    row.deadline_ms = deadline_ms;
    char name[96];
    std::snprintf(name, sizeof(name), "openloop/mobilenet_v1_mini/f32/x%g", f);
    row.name = name;
    if (f <= 0.5) p99_base_us = row.p99_us;
    std::fprintf(stderr,
                 "%-44s offered %8.0f q/s served %8.0f q/s  p99 %8.0f us  "
                 "shed %llu rejected %llu\n",
                 row.name.c_str(), row.offered_qps, row.achieved_qps,
                 row.p99_us, static_cast<unsigned long long>(row.shed),
                 static_cast<unsigned long long>(row.rejected_queue_full +
                                                 row.rejected_infeasible +
                                                 row.rejected_breaker_open));
    rows.push_back(std::move(row));
  }
  return rows;
}

int run(bool quick) {
  // Serving sweep: a classification model in both dtypes. Sessions run
  // single-threaded kernels (num_threads=1) so thread scaling comes from
  // concurrent sessions, not the kernel pool.
  struct Case {
    std::string model;
    bool quantized;
  };
  const std::vector<Case> cases = {
      {"mobilenet_v1_mini", false},
      {"mobilenet_v1_mini", true},
      {"resnet50v2_mini", false},
  };
  // Always sweep to 4 threads even on smaller hosts: the concurrency
  // behaviour (shared plan, private arenas, no re-packing) is what the
  // bench locks in; the scaling *factor* is read against the recorded
  // hardware_concurrency.
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<int> thread_counts = {1, 2, 4};
  if (hw >= 8) thread_counts.push_back(8);

  std::vector<Row> rows;
  for (const Case& c : cases) {
    const ZooEntry* entry = nullptr;
    for (const ZooEntry& e : image_zoo()) {
      if (e.name == c.model) entry = &e;
    }
    MLX_CHECK(entry != nullptr) << "unknown zoo model " << c.model;
    Graph graph = convert_for_inference(entry->build(kSeed, 1).model);
    if (c.quantized) {
      Calibrator calib(&graph);
      for (int i = 0; i < 2; ++i) {
        calib.observe({random_model_input(graph, kSeed + 100 + i)});
      }
      graph = quantize_model(graph, calib);
    }
    Tensor input = random_model_input(graph, kSeed + 7);
    const std::string dtype = c.quantized ? "int8" : "f32";
    const std::string loaded = c.model + "/" + dtype;

    BuiltinOpResolver resolver;
    Engine engine(&resolver);
    engine.load(loaded, std::move(graph));

    // Calibrate the per-thread invoke count off a single-session probe so
    // every thread count runs roughly the same wall clock.
    const auto probe_start = Clock::now();
    {
      SessionLease probe = engine.acquire(loaded);
      probe->set_input(0, input);
      for (int i = 0; i < 5; ++i) probe->invoke();
    }
    const double probe_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - probe_start)
            .count() /
        5.0;
    const double target_ms = quick ? 30.0 : 400.0;
    const auto invokes_per_thread = static_cast<std::int64_t>(
        std::max(2.0, target_ms / std::max(probe_ms, 1e-3)));

    for (int threads : thread_counts) {
      Row row = serve(engine, loaded, threads, invokes_per_thread, input);
      row.name = "serving/" + c.model + "/" + dtype + "/t" +
                 std::to_string(threads);
      rows.push_back(row);
      std::fprintf(stderr, "%-44s %10.1f us/invoke %12.1f inv/s\n",
                   row.name.c_str(), row.us_per_invoke, row.invokes_per_sec);
    }
  }

  // Multi-threaded model x multi-session: kernel-thread-cap scaling on the
  // engine's shared worker set, with the serving invariants intact.
  {
    std::vector<Row> mt_rows = mt_model_sweep(quick, hw);
    rows.insert(rows.end(), mt_rows.begin(), mt_rows.end());
  }

  // Open-loop offered-load sweep through the FrontDoor: the overload curve
  // (QPS vs p50/p99 plus shed/rejected accounting) past the capacity knee.
  std::vector<OpenLoopRow> openloop_rows = open_loop_sweep(quick);

  // Hot-swap under load: version 2 of the same zoo model (different weight
  // seed) is loaded while T closed-loop threads keep serving. The row locks
  // in zero failed requests and reports the swap window's p99 against the
  // steady state.
  const int swap_threads = static_cast<int>(std::min(4u, hw));
  HotSwapRow swap_row;
  {
    const ZooEntry* entry = nullptr;
    for (const ZooEntry& e : image_zoo()) {
      if (e.name == "mobilenet_v1_mini") entry = &e;
    }
    MLX_CHECK(entry != nullptr);
    Graph v1 = convert_for_inference(entry->build(kSeed, 1).model);
    Graph v2 = convert_for_inference(entry->build(kSeed + 1, 1).model);
    Tensor input = random_model_input(v1, kSeed + 7);
    swap_row = hotswap_scenario("mobilenet_v1_mini/f32", std::move(v1),
                                std::move(v2), input, swap_threads, quick);
    swap_row.name = "hotswap/mobilenet_v1_mini/f32/t" +
                    std::to_string(swap_threads);
    std::fprintf(stderr,
                 "%-44s steady p99 %.1f us, swap-window p99 %.1f us, "
                 "%lld requests, %lld failed\n",
                 swap_row.name.c_str(), swap_row.steady_p99_us,
                 swap_row.swap_window_p99_us,
                 static_cast<long long>(swap_row.requests),
                 static_cast<long long>(swap_row.failed_requests));
  }

  // google-benchmark-shaped JSON so run_benches.sh digests it unchanged.
  std::printf("{\n");
  std::printf("  \"context\": {\n");
  std::printf("    \"executable\": \"bench_serving\",\n");
  std::printf("    \"hardware_concurrency\": %u,\n", hw);
  std::printf("    \"quick\": %s\n", quick ? "true" : "false");
  std::printf("  },\n");
  std::printf("  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::printf("    {\n");
    std::printf("      \"name\": \"%s\",\n", r.name.c_str());
    std::printf("      \"run_type\": \"iteration\",\n");
    std::printf("      \"iterations\": %lld,\n",
                static_cast<long long>(r.invokes));
    std::printf("      \"real_time\": %.4f,\n", r.us_per_invoke);
    std::printf("      \"cpu_time\": %.4f,\n", r.us_per_invoke);
    std::printf("      \"time_unit\": \"us\",\n");
    std::printf("      \"threads\": %d,\n", r.threads);
    std::printf("      \"invokes_per_second\": %.2f,\n", r.invokes_per_sec);
    std::printf("      \"sessions\": %zu,\n", r.sessions);
    std::printf("      \"prepared_kb\": %.2f,\n", r.prepared_kb);
    std::printf("      \"arena_high_water_kb\": %.2f,\n", r.arena_hw_kb);
    std::printf("      \"activation_kb_per_session\": %.2f\n",
                r.activation_kb);
    std::printf("    },\n");
  }
  for (const OpenLoopRow& r : openloop_rows) {
    std::printf("    {\n");
    std::printf("      \"name\": \"%s\",\n", r.name.c_str());
    std::printf("      \"run_type\": \"iteration\",\n");
    std::printf("      \"iterations\": %lld,\n",
                static_cast<long long>(r.submitted));
    std::printf("      \"real_time\": %.4f,\n", r.p50_us);
    std::printf("      \"cpu_time\": %.4f,\n", r.p50_us);
    std::printf("      \"time_unit\": \"us\",\n");
    std::printf("      \"threads\": 1,\n");
    std::printf("      \"load_factor\": %.2f,\n", r.factor);
    std::printf("      \"deadline_ms\": %.3f,\n", r.deadline_ms);
    std::printf("      \"offered_qps\": %.2f,\n", r.offered_qps);
    std::printf("      \"achieved_qps\": %.2f,\n", r.achieved_qps);
    std::printf("      \"ok\": %llu,\n",
                static_cast<unsigned long long>(r.ok));
    std::printf("      \"shed\": %llu,\n",
                static_cast<unsigned long long>(r.shed));
    std::printf("      \"deadline_exceeded\": %llu,\n",
                static_cast<unsigned long long>(r.deadline_exceeded));
    std::printf("      \"failed_requests\": %llu,\n",
                static_cast<unsigned long long>(r.failed_requests));
    std::printf("      \"unknown_model\": %llu,\n",
                static_cast<unsigned long long>(r.unknown_model));
    std::printf("      \"rejected_queue_full\": %llu,\n",
                static_cast<unsigned long long>(r.rejected_queue_full));
    std::printf("      \"rejected_infeasible\": %llu,\n",
                static_cast<unsigned long long>(r.rejected_infeasible));
    std::printf("      \"rejected_breaker_open\": %llu,\n",
                static_cast<unsigned long long>(r.rejected_breaker_open));
    std::printf("      \"p50_us\": %.2f,\n", r.p50_us);
    std::printf("      \"p99_us\": %.2f,\n", r.p99_us);
    std::printf("      \"batches\": %llu,\n",
                static_cast<unsigned long long>(r.batches));
    std::printf("      \"mean_batch_size\": %.3f,\n", r.mean_batch_size);
    std::printf("      \"max_queue_depth\": %zu\n", r.max_queue_depth);
    std::printf("    },\n");
  }
  {
    const HotSwapRow& r = swap_row;
    std::printf("    {\n");
    std::printf("      \"name\": \"%s\",\n", r.name.c_str());
    std::printf("      \"run_type\": \"iteration\",\n");
    std::printf("      \"iterations\": %lld,\n",
                static_cast<long long>(r.requests));
    std::printf("      \"real_time\": %.4f,\n", r.mean_us);
    std::printf("      \"cpu_time\": %.4f,\n", r.mean_us);
    std::printf("      \"time_unit\": \"us\",\n");
    std::printf("      \"threads\": %d,\n", r.threads);
    std::printf("      \"failed_requests\": %lld,\n",
                static_cast<long long>(r.failed_requests));
    std::printf("      \"empty_leases\": %lld,\n",
                static_cast<long long>(r.empty_leases));
    std::printf("      \"steady_p99_us\": %.2f,\n", r.steady_p99_us);
    std::printf("      \"swap_window_p99_us\": %.2f,\n", r.swap_window_p99_us);
    std::printf("      \"swap_load_ms\": %.3f,\n", r.swap_load_ms);
    std::printf("      \"versions_retired\": %llu\n",
                static_cast<unsigned long long>(r.versions_retired));
    std::printf("    }\n");
  }
  std::printf("  ]\n}\n");
  return 0;
}

}  // namespace
}  // namespace mlexray

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  return mlexray::run(quick);
}
