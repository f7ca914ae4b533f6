// Concurrent serving: the Model/Session split and the Engine session pool.
//
// Locks in the prepare-once/serve-many contracts the serving API claims:
//  - sessions over one shared Model are bit-exact with a session over a
//    separately prepared Model, in f32 and int8;
//  - prepared storage is built once per Model: prepared_bytes() does not
//    grow with session count;
//  - T threads invoking one Model through pooled Engine sessions produce
//    bit-identical outputs to a single session run sequentially;
//  - steady-state acquire/invoke/release performs zero heap allocations,
//    enforced with the same operator-new counter + AllocStats events
//    test_kernel_grid.cc uses for bare invoke;
//  - releasing a lease returns the session to the free list and a later
//    acquire reuses it (same pointer, observer cleared).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/core/monitor.h"
#include "src/graph/builder.h"
#include "src/interpreter/engine.h"
#include "src/interpreter/invoke_observer.h"
#include "src/quant/quantizer.h"
#include "src/tensor/alloc_stats.h"
#include "tests/heap_counter.h"
#include "tests/test_util.h"

namespace mlexray {
namespace {

Graph quantized_conv_stack_graph(Pcg32* rng) {
  Graph m = conv_stack_graph(rng);
  Calibrator calib(&m);
  Pcg32 crng(172);
  for (int i = 0; i < 4; ++i) {
    calib.observe({random_input(Shape{1, 16, 16, 8}, crng)});
  }
  return quantize_model(m, calib);
}

// --- Model/Session sharing ---------------------------------------------------

TEST(ModelSessionSplit, TwoSessionsShareOnePreparedModel) {
  Pcg32 rng(71);
  Graph graph = conv_stack_graph(&rng);
  BuiltinOpResolver opt;

  // A separately prepared Model + Session: the one-caller execution path.
  Model standalone_model(&graph, &opt);
  Session standalone(&standalone_model);

  Model model(&graph, &opt);
  const std::size_t prepared = model.prepared_bytes();
  EXPECT_GT(prepared, 0u);

  // Creating sessions must not prepare anything: prepare ran once at Model
  // build.
  Session a(&model);
  Session b(&model);
  EXPECT_EQ(model.prepared_bytes(), prepared)
      << "session construction grew the prepared storage";

  Pcg32 drng(72);
  Tensor x0 = random_input(Shape{1, 16, 16, 8}, drng);
  Tensor x1 = random_input(Shape{1, 16, 16, 8}, drng);

  // Interleave invokes across the two sessions with different inputs: each
  // session's activations are private, so results must match a standalone
  // session bit-for-bit.
  a.set_input(0, x0);
  b.set_input(0, x1);
  a.invoke();
  b.invoke();
  standalone.set_input(0, x0);
  standalone.invoke();
  EXPECT_TRUE(same_bytes(a.output(0), standalone.output(0)));
  standalone.set_input(0, x1);
  standalone.invoke();
  EXPECT_TRUE(same_bytes(b.output(0), standalone.output(0)));

  EXPECT_EQ(model.prepared_bytes(), prepared)
      << "invoking sessions grew the prepared storage";
}

TEST(ModelSessionSplit, QuantizedSessionsMatchStandaloneBitExact) {
  Pcg32 rng(81);
  Graph qgraph = quantized_conv_stack_graph(&rng);
  BuiltinOpResolver opt;
  Model standalone_model(&qgraph, &opt);
  Session standalone(&standalone_model);
  Model model(&qgraph, &opt);
  Session s(&model);
  EXPECT_GT(model.prepared_bytes(), 0u);

  Pcg32 drng(82);
  for (int i = 0; i < 3; ++i) {
    Tensor x = random_input(Shape{1, 16, 16, 8}, drng);
    s.set_input(0, x);
    s.invoke();
    standalone.set_input(0, x);
    standalone.invoke();
    EXPECT_TRUE(same_bytes(s.output(0), standalone.output(0)));
  }
}

TEST(ModelSessionSplit, ModelCanOwnItsGraph) {
  Pcg32 rng(91);
  BuiltinOpResolver opt;
  Pcg32 drng(92);
  Tensor x = random_input(Shape{1, 16, 16, 8}, drng);

  Graph graph = conv_stack_graph(&rng);
  Tensor want;
  {
    Model borrowed(&graph, &opt);
    Session session(&borrowed);
    session.set_input(0, x);
    session.invoke();
    want = session.output(0);  // deep copy: `graph` is about to be moved out
  }

  // Owning Model: the graph is moved in; the hollowed-out original must not
  // be referenced again (the non-owning Model above is gone).
  Model model(std::move(graph), &opt);
  Session s(&model);
  s.set_input(0, x);
  s.invoke();
  EXPECT_TRUE(same_bytes(s.output(0), want));
}

// --- Engine pool -------------------------------------------------------------

TEST(EnginePool, LeaseReuseAndPoolAccounting) {
  Pcg32 rng(101);
  BuiltinOpResolver opt;
  Engine engine(&opt);
  engine.load("stack", conv_stack_graph(&rng));
  EXPECT_EQ(engine.model_count(), 1u);
  ASSERT_NE(engine.find("stack"), nullptr);
  EXPECT_EQ(engine.find("missing"), nullptr);

  Session* first = nullptr;
  {
    SessionLease lease = engine.acquire("stack");
    ASSERT_TRUE(lease);
    first = lease.get();
  }
  // Released back to the free list: the next acquire reuses the session.
  {
    SessionLease lease = engine.acquire("stack");
    EXPECT_EQ(lease.get(), first) << "free-listed session was not reused";
    // Two concurrent leases need a second session.
    SessionLease second = engine.acquire("stack");
    EXPECT_NE(second.get(), first);
    const EnginePoolStats stats = engine.pool_stats("stack");
    EXPECT_EQ(stats.sessions_created, 2u);
    EXPECT_EQ(stats.sessions_free, 0u);
    EXPECT_EQ(stats.leases_issued, 3u);
    EXPECT_GT(stats.prepared_bytes, 0u);
  }
  const EnginePoolStats stats = engine.pool_stats("stack");
  EXPECT_EQ(stats.sessions_created, 2u);
  EXPECT_EQ(stats.sessions_free, 2u);
}

TEST(EnginePool, ReleaseClearsObserver) {
  // A TraceBuffer left attached by a previous leaseholder must never fire
  // into freed memory for the next one.
  class CountingObserver : public InvokeObserver {
   public:
    void on_invoke_end(const SessionStats&) override { ++count; }
    int count = 0;
  };
  Pcg32 rng(111);
  BuiltinOpResolver opt;
  Engine engine(&opt);
  engine.load("stack", conv_stack_graph(&rng));
  CountingObserver observer;
  Pcg32 drng(112);
  Tensor x = random_input(Shape{1, 16, 16, 8}, drng);
  {
    SessionLease lease = engine.acquire("stack");
    lease->set_observer(&observer);
    lease->set_input(0, x);
    lease->invoke();
    EXPECT_EQ(observer.count, 1);
  }
  {
    SessionLease lease = engine.acquire("stack");
    EXPECT_EQ(lease->observer(), nullptr)
        << "released session kept its previous observer attached";
    lease->set_input(0, x);
    lease->invoke();
    EXPECT_EQ(observer.count, 1);
  }
}

TEST(EnginePool, MonitorReattachesToReacquiredSession) {
  // Engine::release clears the session's observer; a monitor re-observing
  // the same pooled session after a release/acquire round trip must
  // re-attach its buffer, not early-return on the pointer match.
  Pcg32 rng(115);
  BuiltinOpResolver opt;
  Engine engine(&opt);
  engine.load("stack", conv_stack_graph(&rng));
  EdgeMLMonitor monitor;
  Pcg32 drng(116);
  Tensor x = random_input(Shape{1, 16, 16, 8}, drng);
  Session* observed = nullptr;
  {
    SessionLease lease = engine.acquire("stack");
    observed = lease.get();
    monitor.observe(*lease);
    EXPECT_EQ(lease->observer(), &monitor.buffer());
    // No unobserve: releasing the lease clears the session's observer while
    // the monitor still points at it (single-threaded, so this is safe).
  }
  EXPECT_EQ(observed->observer(), nullptr);
  {
    SessionLease lease = engine.acquire("stack");
    ASSERT_EQ(lease.get(), observed);  // same pooled session came back
    monitor.observe(*lease);
    EXPECT_EQ(lease->observer(), &monitor.buffer())
        << "monitor did not re-attach to the re-acquired session";
    lease->set_input(0, x);
    monitor.on_inf_start();
    lease->invoke();
    monitor.on_inf_stop(*lease);
    EXPECT_TRUE(monitor.buffer().captured_invoke())
        << "push capture missed the invoke after re-observe";
    monitor.unobserve(*lease);
  }
}

TEST(EnginePool, SteadyStateAcquireInvokeReleaseIsHeapFree) {
  Pcg32 rng(121);
  BuiltinOpResolver opt;
  Engine engine(&opt);
  const std::string name = "stack";
  engine.load(name, conv_stack_graph(&rng));
  Pcg32 drng(122);
  Tensor x = random_input(Shape{1, 16, 16, 8}, drng);

  // Warm the pool (session built, arena grown) and the lease cycle.
  for (int i = 0; i < 2; ++i) {
    SessionLease lease = engine.acquire(name);
    lease->set_input(0, x);
    lease->invoke();
  }

  const std::uint64_t events_before = AllocStats::instance().alloc_events();
  const std::size_t bytes_before = AllocStats::instance().current_bytes();
  const std::uint64_t heap_before = g_heap_allocs.load();
  for (int i = 0; i < 5; ++i) {
    SessionLease lease = engine.acquire(name);
    lease->set_input(0, x);
    // The guarded path shares the plain invoke()'s zero-alloc walk; checking
    // it here keeps the serving entry point honest too.
    EXPECT_TRUE(lease->try_invoke().ok());
    lease.release();
  }
  EXPECT_EQ(AllocStats::instance().alloc_events(), events_before)
      << "steady-state serving registered new tensor/arena allocations";
  EXPECT_EQ(AllocStats::instance().current_bytes(), bytes_before);
  EXPECT_EQ(g_heap_allocs.load(), heap_before)
      << "steady-state acquire/try_invoke/release touched the heap";
}

// --- versioned lifecycle -----------------------------------------------------

TEST(EngineLifecycle, HotSwapPinsOutstandingLeasesAndDrainsTheOldVersion) {
  Pcg32 rng_a(151);
  Pcg32 rng_b(152);
  BuiltinOpResolver opt;
  Engine engine(&opt);
  const std::string name = "stack";
  Pcg32 drng(153);
  Tensor x = random_input(Shape{1, 16, 16, 8}, drng);

  engine.load(name, conv_stack_graph(&rng_a));
  Tensor want_v1;
  {
    SessionLease lease = engine.acquire(name);
    EXPECT_EQ(lease.version(), 1u);
    lease->set_input(0, x);
    lease->invoke();
    want_v1 = lease->output(0);  // deep copy
  }

  // Hold a v1 lease across the swap: it must keep serving v1 bit-exactly.
  SessionLease pinned = engine.acquire(name);
  pinned->set_input(0, x);
  pinned->invoke();
  EXPECT_TRUE(same_bytes(pinned->output(0), want_v1));

  const std::size_t bytes_before_swap = AllocStats::instance().current_bytes();
  engine.load(name, conv_stack_graph(&rng_b));  // hot-swap to v2

  EnginePoolStats stats = engine.pool_stats(name);
  EXPECT_EQ(stats.serving_version, 2u);
  EXPECT_EQ(stats.live_versions, 2u);
  EXPECT_EQ(stats.draining_versions, 1u);
  EXPECT_EQ(stats.leases_outstanding, 1u);
  EXPECT_GT(stats.prepared_bytes_total, stats.prepared_bytes)
      << "draining v1's prepared storage should still be accounted";

  // New acquires land on v2, whose weights differ from v1.
  Tensor want_v2;
  {
    SessionLease lease = engine.acquire(name);
    EXPECT_EQ(lease.version(), 2u);
    lease->set_input(0, x);
    lease->invoke();
    want_v2 = lease->output(0);
    EXPECT_FALSE(same_bytes(want_v2, want_v1))
        << "v2 should produce different outputs (different random weights)";
  }

  // The pinned lease still runs v1 after the swap.
  pinned->set_input(0, x);
  pinned->invoke();
  EXPECT_TRUE(same_bytes(pinned->output(0), want_v1));

  // Releasing the last v1 lease retires the version: sessions + prepared
  // storage freed, tracked allocations drop below the pre-release level.
  const std::size_t bytes_before_release =
      AllocStats::instance().current_bytes();
  pinned.release();
  stats = engine.pool_stats(name);
  EXPECT_EQ(stats.live_versions, 1u);
  EXPECT_EQ(stats.draining_versions, 0u);
  EXPECT_EQ(stats.versions_retired, 1u);
  EXPECT_EQ(stats.leases_outstanding, 0u);
  EXPECT_LT(AllocStats::instance().current_bytes(), bytes_before_release)
      << "retiring v1 did not free its sessions/prepared storage";
  // want_v2 was deep-copied after the snapshot; everything else must be back.
  EXPECT_LE(AllocStats::instance().current_bytes(),
            bytes_before_swap + want_v2.byte_size())
      << "after the drain, residency should not exceed the pre-swap level";

  // v2 keeps serving, still bit-exact.
  SessionLease lease = engine.acquire(name);
  EXPECT_EQ(lease.version(), 2u);
  lease->set_input(0, x);
  lease->invoke();
  EXPECT_TRUE(same_bytes(lease->output(0), want_v2));
}

TEST(EngineLifecycle, HotSwapWithNoOutstandingLeasesRetiresImmediately) {
  Pcg32 rng_a(155);
  Pcg32 rng_b(156);
  BuiltinOpResolver opt;
  Engine engine(&opt);
  engine.load("stack", conv_stack_graph(&rng_a));
  {
    SessionLease lease = engine.acquire("stack");  // build + pool a session
  }
  engine.load("stack", conv_stack_graph(&rng_b));
  const EnginePoolStats stats = engine.pool_stats("stack");
  EXPECT_EQ(stats.serving_version, 2u);
  EXPECT_EQ(stats.live_versions, 1u);
  EXPECT_EQ(stats.versions_retired, 1u);
  EXPECT_EQ(stats.sessions_destroyed, 1u) << "v1's pooled session";
  EXPECT_EQ(stats.prepared_bytes_total, stats.prepared_bytes);
}

TEST(EngineLifecycle, UnloadHidesTheNameWhileHeldLeasesKeepWorking) {
  Pcg32 rng(161);
  BuiltinOpResolver opt;
  Engine engine(&opt);
  const std::string name = "stack";
  Pcg32 drng(162);
  Tensor x = random_input(Shape{1, 16, 16, 8}, drng);

  const std::size_t bytes_baseline = AllocStats::instance().current_bytes();
  engine.load(name, conv_stack_graph(&rng));

  SessionLease held = engine.acquire(name);
  held->set_input(0, x);
  held->invoke();
  Tensor want = held->output(0);  // deep copy

  EXPECT_TRUE(engine.unload(name));
  EXPECT_FALSE(engine.unload(name)) << "second unload of the same name";
  EXPECT_FALSE(engine.unload("missing"));

  // Gone from every lookup surface immediately...
  EXPECT_EQ(engine.find(name), nullptr);
  EXPECT_EQ(engine.model_count(), 0u);
  EXPECT_FALSE(engine.try_acquire(name));
  EXPECT_THROW(engine.acquire(name), MlxError);

  // ...but the held lease still serves its pinned version bit-exactly.
  held->set_input(0, x);
  held->invoke();
  EXPECT_TRUE(same_bytes(held->output(0), want));

  // The last release frees everything the load allocated; drop the local
  // reference copy too so the baseline comparison is exact.
  held.release();
  want = Tensor();
  EXPECT_EQ(engine.prepared_bytes_total(), 0u);
  EXPECT_EQ(AllocStats::instance().current_bytes(), bytes_baseline)
      << "unload leaked tracked memory after the last lease released";
}

TEST(EngineLifecycle, ReloadAfterUnloadStartsAFreshVersionLineage) {
  Pcg32 rng_a(165);
  Pcg32 rng_b(166);
  BuiltinOpResolver opt;
  Engine engine(&opt);
  engine.load("stack", conv_stack_graph(&rng_a));
  EXPECT_TRUE(engine.unload("stack"));
  engine.load("stack", conv_stack_graph(&rng_b));
  const EnginePoolStats stats = engine.pool_stats("stack");
  // A fresh lineage: version ids restart at 1 and no drained baggage remains.
  EXPECT_EQ(stats.serving_version, 1u);
  EXPECT_EQ(stats.live_versions, 1u);
  EXPECT_EQ(stats.versions_retired, 0u);
  SessionLease lease = engine.acquire("stack");
  EXPECT_EQ(lease.version(), 1u);
}

TEST(EngineLifecycle, TryAcquireReturnsEmptyForUnknownNames) {
  BuiltinOpResolver opt;
  Engine engine(&opt);
  SessionLease lease = engine.try_acquire("nope");
  EXPECT_FALSE(lease);
  EXPECT_EQ(lease.get(), nullptr);
  EXPECT_EQ(lease.version(), 0u);
  lease.release();  // releasing an empty lease is a no-op
  EXPECT_THROW(engine.acquire("nope"), MlxError);
}

TEST(EngineLifecycle, PreparedBudgetRefusesLoadsThatWouldExceedIt) {
  Pcg32 rng(171);
  BuiltinOpResolver opt;
  Engine engine(&opt);
  engine.load("first", conv_stack_graph(&rng));
  const std::size_t resident = engine.prepared_bytes_total();
  ASSERT_GT(resident, 0u);

  // Budget with room for one model only: a second name must be refused and
  // the registry left unchanged.
  engine.set_prepared_budget(resident + resident / 2);
  EXPECT_EQ(engine.prepared_budget(), resident + resident / 2);
  EXPECT_THROW(engine.load("second", conv_stack_graph(&rng)), MlxError);
  EXPECT_EQ(engine.model_count(), 1u);
  EXPECT_EQ(engine.find("second"), nullptr);
  EXPECT_EQ(engine.prepared_bytes_total(), resident);

  // A hot-swap of the existing name fits: the replaced version retires
  // immediately (no leases outstanding), so residency stays ~constant.
  engine.load("first", conv_stack_graph(&rng));
  EXPECT_EQ(engine.pool_stats("first").serving_version, 2u);
  EXPECT_LE(engine.prepared_bytes_total(), engine.prepared_budget());

  // With an outstanding lease pinning the serving version, the swap would
  // have to hold both versions resident — over budget, so it is refused and
  // the serving version is unchanged.
  SessionLease pinned = engine.acquire("first");
  EXPECT_THROW(engine.load("first", conv_stack_graph(&rng)), MlxError);
  EXPECT_EQ(engine.pool_stats("first").serving_version, 2u);

  // Lifting the budget lets the same swap through.
  engine.set_prepared_budget(0);
  engine.load("first", conv_stack_graph(&rng));
  EXPECT_EQ(engine.pool_stats("first").serving_version, 3u);
}

TEST(EngineLifecycle, HotSwapUnderConcurrentLoadServesEveryRequestBitExact) {
  constexpr int kThreads = 4;
  constexpr int kInvokesPerThread = 24;
  Pcg32 rng_a(181);
  Pcg32 rng_b(182);
  BuiltinOpResolver opt;
  const std::string name = "stack";
  Pcg32 drng(183);
  Tensor x = random_input(Shape{1, 16, 16, 8}, drng);

  Graph graph_a = conv_stack_graph(&rng_a);
  Graph graph_b = conv_stack_graph(&rng_b);

  // Expected outputs per version, computed on private models up front.
  Tensor want_v1, want_v2;
  {
    Model ma(&graph_a, &opt);
    Session sa(&ma);
    sa.set_input(0, x);
    sa.invoke();
    want_v1 = sa.output(0);
    Model mb(&graph_b, &opt);
    Session sb(&mb);
    sb.set_input(0, x);
    sb.invoke();
    want_v2 = sb.output(0);
  }

  Engine engine(&opt);
  engine.load(name, std::move(graph_a));

  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kInvokesPerThread; ++i) {
        SessionLease lease = engine.acquire(name);
        const std::uint64_t version = lease.version();
        lease->set_input(0, x);
        if (!lease->try_invoke().ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        // Every request must be bit-exact with whichever version served it.
        const Tensor& want = version == 1 ? want_v1 : want_v2;
        const Tensor& got = lease->output(0);
        if (!same_bytes(got, want)) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // Swap mid-flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  engine.load(name, std::move(graph_b));
  for (std::thread& w : workers) w.join();

  EXPECT_EQ(mismatches.load(), 0)
      << "a request was not bit-exact with the version that served it";
  EXPECT_EQ(failures.load(), 0) << "hot-swap failed requests";

  // All leases are home: v1 must be fully drained and freed.
  const EnginePoolStats stats = engine.pool_stats(name);
  EXPECT_EQ(stats.serving_version, 2u);
  EXPECT_EQ(stats.live_versions, 1u);
  EXPECT_EQ(stats.draining_versions, 0u);
  EXPECT_EQ(stats.versions_retired, 1u);
  EXPECT_EQ(stats.leases_outstanding, 0u);
  EXPECT_EQ(stats.prepared_bytes_total, stats.prepared_bytes);

  // Residency after the drain: one version's worth of prepared storage, not
  // two.
  EXPECT_EQ(engine.prepared_bytes_total(), stats.prepared_bytes);
}

// --- concurrency -------------------------------------------------------------

TEST(EnginePool, ConcurrentThreadsOneModelBitExact) {
  constexpr int kThreads = 4;
  constexpr int kInvokesPerThread = 8;
  Pcg32 rng(131);
  BuiltinOpResolver opt;
  Engine engine(&opt);
  const std::string name = "stack";
  engine.load(name, conv_stack_graph(&rng));

  // Per-thread inputs and their expected outputs, computed sequentially on
  // one session up front.
  std::vector<Tensor> inputs;
  std::vector<Tensor> expected;
  {
    Pcg32 drng(132);
    SessionLease ref = engine.acquire(name);
    for (int t = 0; t < kThreads; ++t) {
      inputs.push_back(random_input(Shape{1, 16, 16, 8}, drng));
      ref->set_input(0, inputs.back());
      ref->invoke();
      expected.push_back(ref->output(0));  // deep copy
    }
  }

  std::vector<std::thread> workers;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kInvokesPerThread; ++i) {
        SessionLease lease = engine.acquire(name);
        lease->set_input(0, inputs[static_cast<std::size_t>(t)]);
        lease->invoke();
        const Tensor& got = lease->output(0);
        const Tensor& want = expected[static_cast<std::size_t>(t)];
        if (!same_bytes(got, want)) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(mismatches.load(), 0)
      << "concurrent sessions over one Model diverged from the sequential "
         "reference";
  const EnginePoolStats stats = engine.pool_stats(name);
  EXPECT_LE(stats.sessions_created, static_cast<std::size_t>(kThreads) + 1);
  EXPECT_EQ(stats.leases_issued,
            static_cast<std::uint64_t>(kThreads) * kInvokesPerThread + 1);
}

TEST(EnginePool, ConcurrentQuantizedThreadsBitExact) {
  constexpr int kThreads = 3;
  Pcg32 rng(141);
  BuiltinOpResolver opt;
  Engine engine(&opt);
  const std::string name = "stack_i8";
  engine.load(name, quantized_conv_stack_graph(&rng));

  Pcg32 drng(142);
  Tensor x = random_input(Shape{1, 16, 16, 8}, drng);
  Tensor want;
  {
    SessionLease ref = engine.acquire(name);
    ref->set_input(0, x);
    ref->invoke();
    want = ref->output(0);
  }

  std::vector<std::thread> workers;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < 6; ++i) {
        SessionLease lease = engine.acquire(name);
        lease->set_input(0, x);
        lease->invoke();
        const Tensor& got = lease->output(0);
        if (!same_bytes(got, want)) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// --- composable threading ----------------------------------------------------
//
// A multi-threaded Engine gives every Model one shared bounded worker set
// with num_threads as a per-job participant cap. The tests below are the
// oversubscription story: T caller threads x a multi-threaded model must
// stay bit-exact, allocation-free in steady state, and must not serialize
// across models. They run under TSan in CI.

TEST(EngineThreading, ModelsShareTheEnginePoolWithHonoredCaps) {
  Pcg32 rng(151);
  BuiltinOpResolver opt;
  Engine engine(&opt, /*num_threads=*/3);
  engine.load("a", conv_stack_graph(&rng));
  engine.load("b", conv_stack_graph(&rng));
  const Model* a = engine.find("a");
  const Model* b = engine.find("b");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  // One engine-wide worker set, not one per model. Owned pools are sized by
  // ThreadPool::workers_for (at most num_threads - 1, clamped to the host's
  // spare cores), so expectations are derived from the same rule.
  const std::size_t engine_workers = ThreadPool::workers_for(3);
  EXPECT_NE(a->pool().get(), nullptr);
  EXPECT_EQ(a->pool().get(), b->pool().get());
  EXPECT_EQ(a->pool().get()->size(), engine_workers);
  // ...with num_threads as each model's hard participant cap.
  EXPECT_EQ(a->thread_cap(), 3);
  EXPECT_EQ(a->pool().parallelism(),
            std::min<std::size_t>(3, engine_workers + 1));

  // A standalone Model owns its bounded worker set and honors the cap too.
  const std::size_t solo_workers = ThreadPool::workers_for(2);
  Graph g = conv_stack_graph(&rng);
  Model solo(&g, &opt, /*num_threads=*/2);
  ASSERT_NE(solo.pool().get(), nullptr);
  EXPECT_NE(solo.pool().get(), a->pool().get());
  EXPECT_EQ(solo.pool().get()->size(), solo_workers);
  EXPECT_EQ(solo.pool().parallelism(),
            std::min<std::size_t>(2, solo_workers + 1));
  EXPECT_EQ(solo.thread_cap(), 2);

  // num_threads == 1 means inline kernels: no pool at all.
  Model single(&g, &opt, /*num_threads=*/1);
  EXPECT_EQ(single.pool().get(), nullptr);
  EXPECT_EQ(single.pool().parallelism(), 1u);
}

// Two models invoking "concurrently" must overlap their parallel_for jobs on
// the shared engine pool — measured with barrier-instrumented bodies
// submitted through each model's own capped pool view. With the old
// one-job-at-a-time pool the second body could never start while the first
// waited, and the rendezvous timed out.
TEST(EngineThreading, CrossModelJobsOverlapOnTheSharedPool) {
  Pcg32 rng(153);
  BuiltinOpResolver opt;
  Engine engine(&opt, /*num_threads=*/2);
  engine.load("a", conv_stack_graph(&rng));
  engine.load("b", conv_stack_graph(&rng));
  const PoolRef pool_a = engine.find("a")->pool();
  const PoolRef pool_b = engine.find("b")->pool();
  ASSERT_EQ(pool_a.get(), pool_b.get());

  std::mutex mu;
  std::condition_variable cv;
  int arrived = 0;
  std::atomic<int> overlap_failures{0};
  auto submit = [&](PoolRef pool) {
    std::atomic<int> covered{0};
    pool.parallel_for(
        0, 8,
        [&](std::size_t lo, std::size_t hi) {
          if (lo == 0) {
            std::unique_lock<std::mutex> lock(mu);
            ++arrived;
            cv.notify_all();
            if (!cv.wait_for(lock, std::chrono::seconds(20),
                             [&] { return arrived >= 2; })) {
              overlap_failures.fetch_add(1);
            }
          }
          covered.fetch_add(static_cast<int>(hi - lo));
        },
        /*min_chunk=*/1);
    EXPECT_EQ(covered.load(), 8);
  };
  std::thread ta([&] { submit(pool_a); });
  std::thread tb([&] { submit(pool_b); });
  ta.join();
  tb.join();
  EXPECT_EQ(overlap_failures.load(), 0)
      << "jobs from two models serialized on the shared engine pool";
}

// T caller threads oversubscribing a multi-threaded model: outputs stay
// bit-exact vs the single-threaded reference (row-partitioned GEMM keeps
// each output's accumulation order), f32 and int8, across models running
// simultaneously.
TEST(EngineThreading, OversubscribedMultiThreadedSessionsStayBitExact) {
  constexpr int kThreads = 4;
  constexpr int kInvokes = 6;
  Pcg32 rng(157);
  BuiltinOpResolver opt;
  Graph f32_graph = conv_stack_graph(&rng);
  Graph i8_graph = quantized_conv_stack_graph(&rng);

  // Single-threaded reference outputs.
  Pcg32 drng(158);
  Tensor x = random_input(Shape{1, 16, 16, 8}, drng);
  Tensor want_f32, want_i8;
  {
    Model ref_f32_model(&f32_graph, &opt, /*num_threads=*/1);
    Session ref_f32(&ref_f32_model);
    ref_f32.set_input(0, x);
    ref_f32.invoke();
    want_f32 = ref_f32.output(0);
    Model ref_i8_model(&i8_graph, &opt, /*num_threads=*/1);
    Session ref_i8(&ref_i8_model);
    ref_i8.set_input(0, x);
    ref_i8.invoke();
    want_i8 = ref_i8.output(0);
  }

  Engine engine(&opt, /*num_threads=*/3);
  engine.load("f32", std::move(f32_graph));
  engine.load("i8", std::move(i8_graph));

  std::vector<std::thread> workers;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      const std::string name = (t % 2 == 0) ? "f32" : "i8";
      const Tensor& want = (t % 2 == 0) ? want_f32 : want_i8;
      for (int i = 0; i < kInvokes; ++i) {
        SessionLease lease = engine.acquire(name);
        lease->set_input(0, x);
        lease->invoke();
        const Tensor& got = lease->output(0);
        if (!same_bytes(got, want)) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(mismatches.load(), 0)
      << "oversubscribed multi-threaded sessions diverged from the "
         "single-threaded reference";
}

// Steady-state acquire/invoke/release through a MULTI-threaded model is as
// heap-free as the single-threaded path: pool submission uses fixed job
// slots and FunctionRef bodies, never task objects.
TEST(EngineThreading, MultiThreadedSteadyStateInvokeIsHeapFree) {
  Pcg32 rng(163);
  BuiltinOpResolver opt;
  Engine engine(&opt, /*num_threads=*/3);
  engine.load("stack", conv_stack_graph(&rng));
  Pcg32 drng(164);
  Tensor x = random_input(Shape{1, 16, 16, 8}, drng);

  // Warm up: session built, arena high-water reached, pool workers latched
  // at least one job each.
  for (int i = 0; i < 4; ++i) {
    SessionLease lease = engine.acquire("stack");
    lease->set_input(0, x);
    lease->invoke();
  }

  const std::uint64_t heap_before = g_heap_allocs.load();
  const std::uint64_t events_before = AllocStats::instance().alloc_events();
  for (int i = 0; i < 16; ++i) {
    SessionLease lease = engine.acquire("stack");
    lease->set_input(0, x);
    lease->invoke();
  }
  EXPECT_EQ(g_heap_allocs.load(), heap_before)
      << "multi-threaded steady-state invoke hit operator new";
  EXPECT_EQ(AllocStats::instance().alloc_events(), events_before);
}

}  // namespace
}  // namespace mlexray
