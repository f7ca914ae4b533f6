// Fault containment under injected failures: the serving runtime must keep
// its pool-integrity promises while kernels throw, steps stall past
// deadlines, outputs go NaN, the spooler's writes fail, and model loads
// abort — all driven through src/common/fault_injection.h.
//
// Locked-in contracts:
//  - a kernel throw mid-invoke surfaces as an InvokeStatus on that lease
//    only (failing step recorded); the poisoned session is destroyed on
//    release and never re-leased; follow-up requests on fresh leases are
//    bit-exact with an unfaulted run;
//  - invoke() still throws for legacy callers, and poisons identically;
//  - per-invoke deadlines expire cooperatively at step boundaries without
//    poisoning;
//  - a failed load (plan.prepare throw) leaves the previous version serving;
//  - a spooler write failure is contained to close_spool();
//  - truncated .mlxtrace files load tolerantly (crash-safe spooling);
//  - the chaos test races acquire/try_invoke/release against hot-swaps,
//    unload, and fault arming from a driver thread (run under TSan in CI).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <thread>
#include <vector>

#include "src/common/fault_injection.h"
#include "src/core/trace.h"
#include "src/core/trace_buffer.h"
#include "src/graph/builder.h"
#include "src/interpreter/engine.h"
#include "src/tensor/alloc_stats.h"
#include "tests/test_util.h"

namespace mlexray {
namespace {

// Every test leaves the global fault registry clean, pass or fail.
class FaultTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::disarm_all(); }
};

// --- fault framework mechanics ----------------------------------------------

TEST_F(FaultTest, SkipAndMaxFiresControlWhenASiteFires) {
  fault::Spec spec;
  spec.kind = fault::Kind::kThrow;
  spec.skip = 3;
  spec.max_fires = 2;
  fault::arm("test.site", spec);

  int throws = 0;
  for (int i = 0; i < 8; ++i) {
    try {
      fault::check("test.site");
    } catch (const MlxError& e) {
      ++throws;
      EXPECT_NE(std::string(e.what()).find("test.site"), std::string::npos);
      // Hits 3 and 4 (0-based) fire; everything before and after passes.
      EXPECT_TRUE(i == 3 || i == 4) << "fired on hit " << i;
    }
  }
  EXPECT_EQ(throws, 2);
  EXPECT_EQ(fault::hit_count("test.site"), 8u);
  EXPECT_EQ(fault::fire_count("test.site"), 2u);

  fault::disarm("test.site");
  EXPECT_FALSE(fault::enabled());
  EXPECT_EQ(fault::hit_count("test.site"), 0u);  // unknown again
}

TEST_F(FaultTest, DisarmedSitesAreFree) {
  EXPECT_FALSE(fault::enabled());
  EXPECT_FALSE(fault::check("never.armed"));
}

// --- kernel failure containment ---------------------------------------------

TEST_F(FaultTest, KernelThrowSurfacesAsStatusAndPoisonsOnlyThatLease) {
  BuiltinOpResolver opt;
  Engine engine(&opt);
  engine.load("stack", conv_stack_graph(31));
  Pcg32 drng(32);
  Tensor x = random_input(Shape{1, 16, 16, 8}, drng);

  // Unfaulted reference outputs for the follow-up bit-exactness check.
  Tensor want;
  {
    SessionLease ref = engine.acquire("stack");
    ref->set_input(0, x);
    ASSERT_TRUE(ref->try_invoke().ok());
    want = ref->output(0);  // deep copy
  }

  {
    SessionLease lease = engine.acquire("stack");
    lease->set_input(0, x);
    fault::Spec spec;
    spec.skip = 2;  // fail the third prepared step
    fault::arm(fault_sites::kInvokeStep, spec);
    const InvokeStatus status = lease->try_invoke();
    fault::disarm(fault_sites::kInvokeStep);

    EXPECT_EQ(status.code, InvokeCode::kError);
    EXPECT_EQ(status.failed_step, 2);
    EXPECT_EQ(status.failed_node_id,
              lease->plan().steps()[2].node->id);
    EXPECT_NE(status.message.find("injected fault"), std::string::npos);
    EXPECT_TRUE(lease->poisoned());
    EXPECT_EQ(lease->last_stats().invoke_errors, 1u);

    // A poisoned session refuses to run again on the same lease.
    EXPECT_EQ(lease->try_invoke().code, InvokeCode::kPoisoned);
  }  // release destroys the poisoned session

  EnginePoolStats stats = engine.pool_stats("stack");
  EXPECT_EQ(stats.invoke_errors, 1u);
  EXPECT_EQ(stats.sessions_destroyed, 1u);
  // Both leases so far reused the one pooled session.
  EXPECT_EQ(stats.sessions_created, 1u);

  // The next N requests on fresh leases are bit-exact with the unfaulted
  // run — no partial activations leak across the pool.
  for (int i = 0; i < 3; ++i) {
    SessionLease lease = engine.acquire("stack");
    EXPECT_FALSE(lease->poisoned()) << "poisoned session was re-leased";
    lease->set_input(0, x);
    ASSERT_TRUE(lease->try_invoke().ok());
    EXPECT_TRUE(same_bytes(lease->output(0), want));
  }
  stats = engine.pool_stats("stack");
  EXPECT_EQ(stats.sessions_destroyed, 1u);  // nothing else was torn down
  EXPECT_EQ(stats.sessions_created, 2u);    // one replacement session
}

TEST_F(FaultTest, ThrowingInvokeAlsoPoisonsAndPoolRecovers) {
  BuiltinOpResolver opt;
  Engine engine(&opt);
  engine.load("stack", conv_stack_graph(41));
  Pcg32 drng(42);
  Tensor x = random_input(Shape{1, 16, 16, 8}, drng);

  {
    SessionLease lease = engine.acquire("stack");
    lease->set_input(0, x);
    fault::arm(fault_sites::kInvokeStep, fault::Spec{});
    EXPECT_THROW(lease->invoke(), MlxError);
    fault::disarm(fault_sites::kInvokeStep);
    EXPECT_TRUE(lease->poisoned());
  }
  const EnginePoolStats stats = engine.pool_stats("stack");
  EXPECT_EQ(stats.sessions_destroyed, 1u);
  EXPECT_EQ(stats.invoke_errors, 1u);

  SessionLease lease = engine.acquire("stack");
  lease->set_input(0, x);
  EXPECT_TRUE(lease->try_invoke().ok());
}

TEST_F(FaultTest, KernelLevelGemmFaultIsContainedAtTheSessionBoundary) {
  BuiltinOpResolver opt;
  Engine engine(&opt);
  engine.load("stack", conv_stack_graph(51));
  Pcg32 drng(52);
  Tensor x = random_input(Shape{1, 16, 16, 8}, drng);

  SessionLease lease = engine.acquire("stack");
  lease->set_input(0, x);
  fault::Spec spec;
  spec.max_fires = 1;
  fault::arm(fault_sites::kKernelGemm, spec);
  const InvokeStatus status = lease->try_invoke();
  EXPECT_EQ(status.code, InvokeCode::kError);
  EXPECT_GE(status.failed_step, 0);
  EXPECT_TRUE(lease->poisoned());
  EXPECT_EQ(fault::fire_count(fault_sites::kKernelGemm), 1u);
}

// --- deadlines ---------------------------------------------------------------

TEST_F(FaultTest, DeadlineExpiresCooperativelyWithoutPoisoning) {
  BuiltinOpResolver opt;
  Engine engine(&opt);
  engine.load("stack", conv_stack_graph(61));
  Pcg32 drng(62);
  Tensor x = random_input(Shape{1, 16, 16, 8}, drng);

  Tensor want;
  {
    SessionLease ref = engine.acquire("stack");
    ref->set_input(0, x);
    ASSERT_TRUE(ref->try_invoke().ok());
    want = ref->output(0);
  }

  SessionLease lease = engine.acquire("stack");
  lease->set_input(0, x);
  // Stall the first step well past the deadline; the check before the
  // *second* step must stop the walk.
  fault::Spec spec;
  spec.kind = fault::Kind::kDelay;
  spec.delay_ms = 50;
  spec.max_fires = 1;
  fault::arm(fault_sites::kInvokeStep, spec);
  const InvokeStatus status = lease->try_invoke(/*deadline_ms=*/5.0);
  fault::disarm(fault_sites::kInvokeStep);

  EXPECT_EQ(status.code, InvokeCode::kDeadlineExceeded);
  EXPECT_GT(status.failed_step, 0);
  EXPECT_TRUE(status.message.empty());
  EXPECT_FALSE(lease->poisoned());
  EXPECT_EQ(lease->last_stats().deadline_exceeded, 1u);

  // The same session keeps serving: no poisoning, next invoke bit-exact.
  lease->set_input(0, x);
  ASSERT_TRUE(lease->try_invoke().ok());
  EXPECT_TRUE(same_bytes(lease->output(0), want));

  // A generous deadline never fires.
  lease->set_input(0, x);
  EXPECT_TRUE(lease->try_invoke(/*deadline_ms=*/10000.0).ok());
}

// --- NaN poke ----------------------------------------------------------------

TEST_F(FaultTest, NanPokeCorruptsOneInvokeAndTheNextRunIsClean) {
  BuiltinOpResolver opt;
  Engine engine(&opt);
  engine.load("stack", conv_stack_graph(71));
  Pcg32 drng(72);
  Tensor x = random_input(Shape{1, 16, 16, 8}, drng);

  SessionLease lease = engine.acquire("stack");
  lease->set_input(0, x);
  ASSERT_TRUE(lease->try_invoke().ok());
  Tensor want = lease->output(0);  // deep copy of the clean run

  // Poke the final step's output — the model output — so the NaN is
  // directly observable without relying on propagation semantics.
  fault::Spec spec;
  spec.kind = fault::Kind::kNanPoke;
  spec.skip = lease->plan().steps().size() - 1;
  spec.max_fires = 1;
  fault::arm(fault_sites::kInvokeOutput, spec);
  lease->set_input(0, x);
  const InvokeStatus status = lease->try_invoke();
  fault::disarm(fault_sites::kInvokeOutput);

  // Numerically corrupt but structurally fine: the invoke succeeds, the
  // session is not poisoned — exactly how a silent-kernel-bug deployment
  // looks, which is what the paper's drift monitoring exists to catch.
  EXPECT_TRUE(status.ok());
  EXPECT_FALSE(lease->poisoned());
  EXPECT_TRUE(std::isnan(lease->output(0).data<float>()[0]));

  lease->set_input(0, x);
  ASSERT_TRUE(lease->try_invoke().ok());
  EXPECT_TRUE(same_bytes(lease->output(0), want));
}

// --- failed load / hot-swap rollback ----------------------------------------

TEST_F(FaultTest, FailedLoadLeavesThePreviousVersionServing) {
  BuiltinOpResolver opt;
  Engine engine(&opt);
  engine.load("stack", conv_stack_graph(81));
  Pcg32 drng(82);
  Tensor x = random_input(Shape{1, 16, 16, 8}, drng);

  Tensor want;
  {
    SessionLease lease = engine.acquire("stack");
    lease->set_input(0, x);
    ASSERT_TRUE(lease->try_invoke().ok());
    want = lease->output(0);
  }

  fault::arm(fault_sites::kPlanPrepare, fault::Spec{});
  EXPECT_THROW(engine.load("stack", conv_stack_graph(99)), MlxError);
  fault::disarm(fault_sites::kPlanPrepare);

  // The registry is untouched: still version 1, still bit-exact.
  const EnginePoolStats stats = engine.pool_stats("stack");
  EXPECT_EQ(stats.serving_version, 1u);
  EXPECT_EQ(stats.live_versions, 1u);
  SessionLease lease = engine.acquire("stack");
  EXPECT_EQ(lease.version(), 1u);
  lease->set_input(0, x);
  ASSERT_TRUE(lease->try_invoke().ok());
  EXPECT_TRUE(same_bytes(lease->output(0), want));
}

// --- spooler faults and crash-safe traces ------------------------------------

TEST_F(FaultTest, SpoolWriteFailureSurfacesAtCloseNotInTheInvokePath) {
  BuiltinOpResolver opt;
  Engine engine(&opt);
  engine.load("stack", conv_stack_graph(91));
  Pcg32 drng(92);
  Tensor x = random_input(Shape{1, 16, 16, 8}, drng);

  const auto path =
      std::filesystem::temp_directory_path() / "mlx_fault_spool.mlxtrace";
  TraceBuffer buffer;
  SessionLease lease = engine.acquire("stack");
  buffer.bind(*lease);
  lease->set_observer(&buffer);
  buffer.open_spool(path);

  fault::arm(fault_sites::kSpoolWrite, fault::Spec{});
  for (int i = 0; i < 3; ++i) {
    lease->set_input(0, x);
    ASSERT_TRUE(lease->try_invoke().ok()) << "spool fault leaked into invoke";
    buffer.next_frame();
  }

  // The IO failure is contained to the spooling surface and reported where
  // the caller can handle it. The fault stays armed until after close so the
  // worker fails whether it drained eagerly or only at shutdown.
  EXPECT_THROW(buffer.close_spool(), MlxError);
  fault::disarm(fault_sites::kSpoolWrite);
  lease->set_observer(nullptr);

  // Serving was never disturbed.
  lease->set_input(0, x);
  EXPECT_TRUE(lease->try_invoke().ok());
  std::filesystem::remove(path);
}

TEST_F(FaultTest, SpoolHeaderIsCrashSafePerBatch) {
  BuiltinOpResolver opt;
  Engine engine(&opt);
  engine.load("stack", conv_stack_graph(95));
  Pcg32 drng(96);
  Tensor x = random_input(Shape{1, 16, 16, 8}, drng);

  const auto path =
      std::filesystem::temp_directory_path() / "mlx_crash_spool.mlxtrace";
  constexpr int kFrames = 5;
  TraceBuffer buffer;
  SessionLease lease = engine.acquire("stack");
  buffer.bind(*lease);
  lease->set_observer(&buffer);
  buffer.open_spool(path);
  for (int i = 0; i < kFrames; ++i) {
    lease->set_input(0, x);
    ASSERT_TRUE(lease->try_invoke().ok());
    buffer.next_frame();
  }
  // Wait for the worker to drain — but do NOT close the spool: the file on
  // disk right now is what a killed process would leave behind.
  for (int i = 0; i < 5000 && buffer.spooled_frames() < kFrames; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(buffer.spooled_frames(), static_cast<std::size_t>(kFrames));

  std::size_t truncated = 0;
  Trace snapshot = load_trace_tolerant(path, &truncated);
  EXPECT_EQ(snapshot.frames.size(), static_cast<std::size_t>(kFrames))
      << "pre-close spool file was not readable";
  EXPECT_EQ(truncated, 0u);

  lease->set_observer(nullptr);
  buffer.close_spool();
  std::filesystem::remove(path);
}

TEST_F(FaultTest, TolerantLoadDropsTheTornTailFrame) {
  // Build a two-frame trace, then tear bytes off the tail — the shape of a
  // file whose writer died mid-frame after the last header patch.
  Trace trace;
  trace.pipeline_name = "torn";
  for (int i = 0; i < 2; ++i) {
    FrameTrace f;
    f.frame_id = i;
    f.scalars["latency.inference_ms"] = 1.0 + i;
    Tensor t = Tensor::f32(Shape{4});
    for (int k = 0; k < 4; ++k) t.data<float>()[k] = static_cast<float>(k + i);
    f.tensors.emplace("model.output", std::move(t));
    trace.frames.push_back(std::move(f));
  }
  const auto path =
      std::filesystem::temp_directory_path() / "mlx_torn.mlxtrace";
  save_trace(trace, path);

  const auto full_size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full_size - 9);

  // The strict loader refuses; the tolerant one returns the valid prefix.
  EXPECT_THROW(load_trace(path), MlxError);
  std::size_t truncated = 0;
  Trace back = load_trace_tolerant(path, &truncated);
  EXPECT_EQ(back.frames.size(), 1u);
  EXPECT_EQ(truncated, 1u);
  EXPECT_EQ(back.pipeline_name, "torn");
  EXPECT_DOUBLE_EQ(back.frames[0].scalar("latency.inference_ms"), 1.0);

  // An intact file reports zero truncation.
  save_trace(trace, path);
  back = load_trace_tolerant(path, &truncated);
  EXPECT_EQ(back.frames.size(), 2u);
  EXPECT_EQ(truncated, 0u);
  std::filesystem::remove(path);
}

// --- chaos: concurrent serving under faults, swaps, and unload ---------------

TEST_F(FaultTest, ChaosConcurrentServingUnderFaultsAndHotSwaps) {
  constexpr int kWorkers = 4;
  constexpr int kItersPerWorker = 250;
  const std::string name = "chaos";

  BuiltinOpResolver opt;
  Pcg32 drng(102);
  Tensor x = random_input(Shape{1, 16, 16, 8}, drng);

  // Two alternating artifacts: odd engine versions serve graph A, even
  // serve graph B. Expected outputs precomputed on private models.
  Tensor want_a, want_b;
  {
    Model ma(conv_stack_graph(201), &opt);
    Session sa(&ma);
    sa.set_input(0, x);
    sa.invoke();
    want_a = sa.output(0);
    Model mb(conv_stack_graph(202), &opt);
    Session sb(&mb);
    sb.set_input(0, x);
    sb.invoke();
    want_b = sb.output(0);
  }

  const std::size_t alloc_baseline = AllocStats::instance().current_bytes();
  std::atomic<int> mismatches{0};
  std::atomic<int> unexpected_status{0};
  std::atomic<std::int64_t> ok_count{0};
  std::atomic<std::int64_t> error_count{0};
  std::atomic<std::int64_t> deadline_count{0};
  std::atomic<std::int64_t> empty_leases{0};

  {
    Engine engine(&opt);
    engine.load(name, conv_stack_graph(201));  // v1 = A
    // Canary shadowing races the hot-swaps and the faults below: shadows of
    // the A-weights reference must keep remapping across every swap without
    // tripping TSan, shadowing a poisoned session, or blocking the pool.
    CanaryOptions canary_opts;
    canary_opts.shadow_every = 5;
    engine.enable_canary(name, conv_stack_graph(201), nullptr, canary_opts);
    std::atomic<std::int64_t> shadow_events{0};
    engine.set_canary_observer(name, [&](const CanaryShadowEvent&) {
      shadow_events.fetch_add(1, std::memory_order_relaxed);
    });

    std::vector<std::thread> workers;
    for (int w = 0; w < kWorkers; ++w) {
      workers.emplace_back([&, w] {
        for (int i = 0; i < kItersPerWorker; ++i) {
          SessionLease lease = engine.try_acquire(name);
          if (!lease) {
            // Unloaded (or not yet reloaded): a guarded front end just
            // reports and moves on.
            empty_leases.fetch_add(1, std::memory_order_relaxed);
            std::this_thread::yield();
            continue;
          }
          const std::uint64_t version = lease.version();
          lease->set_input(0, x);
          // Every 16th request runs with a tight-but-feasible deadline so
          // the deadline path is exercised concurrently too.
          const double deadline_ms = (i % 16 == 15) ? 50.0 : 0.0;
          const InvokeStatus status = lease->try_invoke(deadline_ms);
          switch (status.code) {
            case InvokeCode::kOk: {
              ok_count.fetch_add(1, std::memory_order_relaxed);
              const Tensor& want = (version % 2 == 1) ? want_a : want_b;
              const Tensor& got = lease->output(0);
              if (!same_bytes(got, want)) {
                mismatches.fetch_add(1, std::memory_order_relaxed);
              }
              break;
            }
            case InvokeCode::kError:
              error_count.fetch_add(1, std::memory_order_relaxed);
              break;
            case InvokeCode::kDeadlineExceeded:
              deadline_count.fetch_add(1, std::memory_order_relaxed);
              break;
            default:
              // kPoisoned can never reach a fresh lease.
              unexpected_status.fetch_add(1, std::memory_order_relaxed);
          }
          (void)w;
        }
      });
    }

    // Chaos driver: hot-swaps A<->B, arms short fault bursts, finally
    // unloads while workers are still running.
    std::thread driver([&] {
      for (int swap = 0; swap < 6; ++swap) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        // v1 was A, so swap 0 installs B (v2), swap 1 installs A (v3), ...
        engine.load(name, conv_stack_graph(swap % 2 == 0 ? 202 : 201));
        if (swap % 2 == 0) {
          fault::Spec spec;
          spec.max_fires = 3;
          fault::arm(fault_sites::kInvokeStep, spec);
        } else {
          fault::disarm(fault_sites::kInvokeStep);
        }
      }
      fault::disarm_all();
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      engine.unload(name);
    });

    for (std::thread& t : workers) t.join();
    driver.join();

    // The canary kept shadowing through swaps, faults, and the unload; the
    // observer fired exactly once per shadowed frame. Reference invokes may
    // themselves have absorbed injected faults — that is the contained
    // reference_errors path, not a test failure.
    const CanaryReport canary = engine.canary_report(name);
    EXPECT_TRUE(canary.enabled);
    EXPECT_GT(canary.shadowed, 0u);
    EXPECT_EQ(shadow_events.load(),
              static_cast<std::int64_t>(canary.shadowed));

    EXPECT_EQ(mismatches.load(), 0)
        << "a request saw output that was not bit-exact with the version "
           "that served it";
    EXPECT_EQ(unexpected_status.load(), 0);
    EXPECT_GT(ok_count.load(), 0);
    EXPECT_EQ(engine.model_count(), 0u);
    EXPECT_EQ(engine.prepared_bytes_total(), 0u)
        << "drained versions did not free their prepared storage";
  }
  // With the engine gone, every session, activation, arena, and prepared
  // buffer must be back to the pre-engine baseline.
  EXPECT_EQ(AllocStats::instance().current_bytes(), alloc_baseline)
      << "lifecycle leaked tracked memory";
}

}  // namespace
}  // namespace mlexray
