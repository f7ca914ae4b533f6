#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "src/common/error.h"
#include "src/common/file_io.h"
#include "src/common/loc_counter.h"
#include "src/common/rng.h"
#include "src/common/string_util.h"
#include "src/common/thread_pool.h"
#include "src/kernels/kernel.h"

namespace mlexray {
namespace {

TEST(Error, CheckThrowsWithContext) {
  try {
    MLX_CHECK_EQ(1, 2) << "custom context";
    FAIL() << "expected throw";
  } catch (const MlxError& e) {
    EXPECT_NE(std::string(e.what()).find("custom context"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(Error, CheckPassesSilently) {
  EXPECT_NO_THROW(MLX_CHECK(true) << "never evaluated");
  EXPECT_NO_THROW(MLX_CHECK_LT(1, 2));
}

TEST(Rng, Deterministic) {
  Pcg32 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u32(), b.next_u32());
}

TEST(Rng, DifferentSeedsDiffer) {
  Pcg32 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u32() == b.next_u32());
  EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowInRange) {
  Pcg32 rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(17), 17u);
}

TEST(Rng, NormalMoments) {
  Pcg32 rng(11);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    float v = rng.normal();
    sum += v;
    sum_sq += static_cast<double>(v) * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(Rng, ShufflePreservesElements) {
  Pcg32 rng(5);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto original = v;
  rng.shuffle(v);
  EXPECT_EQ(std::set<int>(v.begin(), v.end()),
            std::set<int>(original.begin(), original.end()));
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(0, 100, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(5, 5, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ZeroWorkerPoolRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_EQ(pool.parallelism(), 1u);
  std::vector<int> hits(50, 0);
  pool.parallel_for(0, 50, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) hits[i]++;
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, MinChunkRespectsGranularity) {
  ThreadPool pool(3);
  std::mutex mu;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  pool.parallel_for(
      0, 100,
      [&](std::size_t lo, std::size_t hi) {
        std::lock_guard<std::mutex> lock(mu);
        chunks.emplace_back(lo, hi);
      },
      /*min_chunk=*/16);
  std::size_t covered = 0;
  for (auto [lo, hi] : chunks) {
    covered += hi - lo;
    // Every chunk except possibly the final remainder honours min_chunk.
    if (hi != 100) {
      EXPECT_GE(hi - lo, 16u);
    }
  }
  EXPECT_EQ(covered, 100u);
}

TEST(ThreadPool, WorkerIndexVariantCoversRangeWithValidIds) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(64);
  std::atomic<bool> bad_worker{false};
  pool.parallel_for_workers(
      0, 64,
      [&](std::size_t lo, std::size_t hi, std::size_t worker) {
        if (worker >= pool.parallelism()) bad_worker = true;
        for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
      },
      /*min_chunk=*/4);
  EXPECT_FALSE(bad_worker.load());
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, BackToBackJobsReuseWorkers) {
  ThreadPool pool(2);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> count{0};
    pool.parallel_for(0, 40,
                      [&](std::size_t lo, std::size_t hi) {
                        count.fetch_add(static_cast<int>(hi - lo));
                      });
    ASSERT_EQ(count.load(), 40);
  }
}

// The headline num_threads bugfix: a participant cap of k must mean AT MOST
// k distinct threads touch the job, no matter how wide the pool is. Counted
// over many rounds so workers get every chance to (wrongly) join.
TEST(ThreadPool, ParticipantCapIsAHardLimit) {
  ThreadPool pool(7);  // parallelism() == 8, far above the cap under test
  constexpr std::size_t kCap = 2;
  std::atomic<std::size_t> max_index{0};
  std::mutex mu;
  for (int round = 0; round < 200; ++round) {
    pool.parallel_for_workers(
        0, 64,
        [&](std::size_t lo, std::size_t hi, std::size_t worker) {
          std::size_t seen = max_index.load();
          while (worker > seen &&
                 !max_index.compare_exchange_weak(seen, worker)) {
          }
          // Touch the range so the chunk is real work, not a no-op the
          // optimizer could collapse.
          volatile std::size_t sink = 0;
          for (std::size_t i = lo; i < hi; ++i) sink = sink + i;
        },
        /*min_chunk=*/1, /*max_participants=*/kCap);
  }
  EXPECT_LT(max_index.load(), kCap)
      << "worker index escaped the participant cap";
  // Distinct threads inside one job must also respect the cap (indices
  // could lie; thread identity cannot).
  std::set<std::thread::id> single_round;
  pool.parallel_for_workers(
      0, 256,
      [&](std::size_t, std::size_t, std::size_t) {
        std::lock_guard<std::mutex> lock(mu);
        single_round.insert(std::this_thread::get_id());
      },
      /*min_chunk=*/1, /*max_participants=*/kCap);
  EXPECT_LE(single_round.size(), kCap);
}

TEST(ThreadPool, PoolRefAppliesCapAndReportsCappedParallelism) {
  ThreadPool pool(5);
  EXPECT_EQ(PoolRef(&pool).parallelism(), 6u);
  EXPECT_EQ(PoolRef(&pool, 3).parallelism(), 3u);
  EXPECT_EQ(PoolRef(&pool, 100).parallelism(), 6u);  // cap above pool width
  EXPECT_EQ(PoolRef().parallelism(), 1u);

  // A null ref runs inline; a capped ref never hands out an index >= cap.
  int inline_calls = 0;
  PoolRef().parallel_for_workers(0, 10, [&](std::size_t lo, std::size_t hi,
                                            std::size_t worker) {
    ++inline_calls;
    EXPECT_EQ(worker, 0u);
    EXPECT_EQ(lo, 0u);
    EXPECT_EQ(hi, 10u);
  });
  EXPECT_EQ(inline_calls, 1);

  PoolRef capped(&pool, 3);
  std::atomic<bool> over_cap{false};
  std::vector<std::atomic<int>> hits(128);
  for (int round = 0; round < 50; ++round) {
    capped.parallel_for_workers(
        0, 128,
        [&](std::size_t lo, std::size_t hi, std::size_t worker) {
          if (worker >= capped.parallelism()) over_cap = true;
          for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
        },
        /*min_chunk=*/1);
  }
  EXPECT_FALSE(over_cap.load());
  for (const auto& h : hits) EXPECT_EQ(h.load(), 50);
}

namespace {
// Rendezvous for the overlap tests: both sides must be inside a pool job at
// the same instant. Generous timeout so a single-CPU host can timeslice its
// way there; with a job-serializing pool the second side can never start
// while the first waits, so the wait times out and the test fails.
struct Rendezvous {
  std::mutex mu;
  std::condition_variable cv;
  int arrived = 0;

  bool arrive_and_wait(int expected) {
    std::unique_lock<std::mutex> lock(mu);
    ++arrived;
    cv.notify_all();
    return cv.wait_for(lock, std::chrono::seconds(20),
                       [&] { return arrived >= expected; });
  }
};
}  // namespace

// Two submitters on ONE pool must have their jobs in flight simultaneously
// (multi-job submission) — the tentpole's no-process-wide-serialization
// property. Under the old single-job-slot pool the second submit blocked
// until the first job fully finished, so this rendezvous would time out.
TEST(ThreadPool, ConcurrentJobsOnOnePoolOverlap) {
  ThreadPool pool(2);
  Rendezvous rv;
  std::atomic<int> overlap_failures{0};
  auto submit = [&] {
    std::atomic<int> covered{0};
    pool.parallel_for(
        0, 8,
        [&](std::size_t lo, std::size_t hi) {
          if (lo == 0 && !rv.arrive_and_wait(2)) overlap_failures.fetch_add(1);
          covered.fetch_add(static_cast<int>(hi - lo));
        },
        /*min_chunk=*/1);
    EXPECT_EQ(covered.load(), 8);
  };
  std::thread a(submit);
  std::thread b(submit);
  a.join();
  b.join();
  EXPECT_EQ(overlap_failures.load(), 0)
      << "two parallel_for jobs on one pool serialized instead of running "
         "side by side";
}

// Per-pool worker identity: a worker of pool A submitting to pool B must
// submit normally (B's workers can help; multiple chunks), not inline the
// whole range the way the old process-wide t_is_pool_worker flag forced.
TEST(ThreadPool, CrossPoolSubmissionDoesNotInline) {
  ThreadPool pool_a(1);
  ThreadPool pool_b(2);
  Rendezvous rv;
  // Both of A's participants (the caller and A's one worker) run an outer
  // chunk; the rendezvous guarantees the pool-A *worker* path is exercised.
  std::atomic<bool> rendezvous_ok{true};
  std::atomic<int> whole_range_calls{0};
  std::atomic<int> chunk_calls[2] = {{0}, {0}};
  pool_a.parallel_for_workers(
      0, 2,
      [&](std::size_t lo, std::size_t, std::size_t outer_worker) {
        if (!rv.arrive_and_wait(2)) rendezvous_ok = false;
        std::vector<std::atomic<int>> hits(64);
        pool_b.parallel_for(
            0, 64,
            [&](std::size_t ilo, std::size_t ihi) {
              if (ilo == 0 && ihi == 64) whole_range_calls.fetch_add(1);
              chunk_calls[lo].fetch_add(1);
              for (std::size_t i = ilo; i < ihi; ++i) hits[i].fetch_add(1);
            },
            /*min_chunk=*/4);
        for (const auto& h : hits) {
          if (h.load() != 1) rendezvous_ok = false;  // lost/duplicated chunks
        }
        (void)outer_worker;
      },
      /*min_chunk=*/1);
  ASSERT_TRUE(rendezvous_ok.load());
  EXPECT_EQ(whole_range_calls.load(), 0)
      << "a cross-pool submission inlined its whole range (global worker "
         "flag instead of per-pool identity)";
  // Chunked submission: every outer participant saw its inner range split.
  EXPECT_GT(chunk_calls[0].load(), 1);
  EXPECT_GT(chunk_calls[1].load(), 1);
}

// ...while a worker submitting to its OWN pool still runs inline (the
// pool-mates may all be busy on the very job that called it).
TEST(ThreadPool, NestedSubmissionToOwnPoolRunsInline) {
  ThreadPool pool(1);
  Rendezvous rv;
  std::atomic<bool> rendezvous_ok{true};
  std::atomic<int> worker_inline_violations{0};
  pool.parallel_for_workers(
      0, 2,
      [&](std::size_t, std::size_t, std::size_t outer_worker) {
        if (!rv.arrive_and_wait(2)) rendezvous_ok = false;
        // Atomics: the caller's nested call is a real submission, so its
        // inner body may run on several threads.
        std::atomic<int> calls{0};
        std::atomic<bool> full_range{false};
        pool.parallel_for(
            0, 64,
            [&](std::size_t ilo, std::size_t ihi) {
              calls.fetch_add(1);
              if (ilo == 0 && ihi == 64) full_range = true;
            },
            /*min_chunk=*/4);
        // outer_worker 1 is the pool-owned thread: its nested call must be
        // one inline pass over the whole range. The caller (worker 0) is
        // not a pool thread, so its nested call submits normally.
        if (outer_worker != 0 && !(calls.load() == 1 && full_range.load())) {
          worker_inline_violations.fetch_add(1);
        }
      },
      /*min_chunk=*/1);
  ASSERT_TRUE(rendezvous_ok.load());
  EXPECT_EQ(worker_inline_violations.load(), 0);
}

// Forced prepare/invoke pool mismatch (satellite bugfix): per-worker scratch
// must be sized from the EXECUTING context's worker_count(), and the worker
// indices that context's pool hands out must stay below it — even when a
// different, wider pool was attached at prepare time (trainer vs serving
// path). Before caps existed, sizing from the prepare-time pool and
// executing on a wider one indexed past the end of the scratch slices.
TEST(KernelContextScratch, WorkerIndicesStayWithinExecutingWorkerCount) {
  ThreadPool prepare_pool(2);  // what the plan build saw: worker_count 3
  ThreadPool serving_pool(7);  // what actually executes, capped to 2

  KernelContext prepare_ctx;
  prepare_ctx.pool = PoolRef(&prepare_pool);
  EXPECT_EQ(prepare_ctx.worker_count(), 3u);

  KernelContext exec_ctx;
  exec_ctx.pool = PoolRef(&serving_pool, /*cap=*/2);
  ASSERT_EQ(exec_ctx.worker_count(), 2u);

  // Size per-worker slices from the executing context (the contract) and
  // prove no index the executing pool hands out can escape them, over many
  // rounds so every pool thread gets a chance to misbehave.
  std::vector<std::atomic<int>> slices(exec_ctx.worker_count());
  std::atomic<bool> out_of_bounds{false};
  for (int round = 0; round < 100; ++round) {
    exec_ctx.pool.parallel_for_workers(
        0, 96,
        [&](std::size_t lo, std::size_t hi, std::size_t worker) {
          if (worker >= slices.size()) {
            out_of_bounds = true;
            return;
          }
          slices[worker].fetch_add(static_cast<int>(hi - lo));
        },
        /*min_chunk=*/1);
  }
  EXPECT_FALSE(out_of_bounds.load())
      << "executing pool handed out a worker index past the scratch sized "
         "from the executing context";
  int covered = 0;
  for (auto& s : slices) covered += s.load();
  EXPECT_EQ(covered, 96 * 100);
}

TEST(BinaryIo, RoundTripAllTypes) {
  BinaryWriter w;
  w.write_u8(7);
  w.write_u32(123456);
  w.write_i32(-42);
  w.write_u64(1ULL << 40);
  w.write_f32(3.25f);
  w.write_f64(-2.5);
  w.write_string("hello");
  w.write_f32_array({1.0f, 2.0f});
  BinaryReader r(w.bytes());
  EXPECT_EQ(r.read_u8(), 7);
  EXPECT_EQ(r.read_u32(), 123456u);
  EXPECT_EQ(r.read_i32(), -42);
  EXPECT_EQ(r.read_u64(), 1ULL << 40);
  EXPECT_FLOAT_EQ(r.read_f32(), 3.25f);
  EXPECT_DOUBLE_EQ(r.read_f64(), -2.5);
  EXPECT_EQ(r.read_string(), "hello");
  auto arr = r.read_f32_array();
  ASSERT_EQ(arr.size(), 2u);
  EXPECT_TRUE(r.at_end());
}

TEST(BinaryIo, OutOfBoundsThrows) {
  BinaryWriter w;
  w.write_u8(1);
  BinaryReader r(w.bytes());
  r.read_u8();
  EXPECT_THROW(r.read_u32(), MlxError);
}

TEST(FileIo, RoundTrip) {
  auto path = std::filesystem::temp_directory_path() / "mlx_test_file.bin";
  std::vector<std::uint8_t> payload{1, 2, 3, 250};
  write_file(path, payload);
  EXPECT_EQ(read_file(path), payload);
  std::filesystem::remove(path);
}

TEST(FileIo, MissingFileThrows) {
  EXPECT_THROW(read_file("/nonexistent/mlx/nothing.bin"), MlxError);
}

TEST(StringUtil, SplitJoin) {
  auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(join({"x", "y"}, "-"), "x-y");
}

TEST(StringUtil, TrimAndCase) {
  EXPECT_EQ(trim("  hi \t"), "hi");
  EXPECT_EQ(to_lower("AbC"), "abc");
  EXPECT_TRUE(starts_with("hello", "he"));
  EXPECT_TRUE(ends_with("hello", "lo"));
}

TEST(StringUtil, FormatFloat) {
  EXPECT_EQ(format_float(3.14159, 2), "3.14");
}

TEST(StringUtil, RenderTableAligns) {
  std::string t = render_table({"a", "bb"}, {{"xxx", "y"}});
  EXPECT_NE(t.find("| xxx | y  |"), std::string::npos);
}

TEST(LocCounter, CountsMarkedRegions) {
  std::string src = R"(
int main() {
  // [mlx-inst-begin]
  monitor.on_inf_start();
  monitor.on_inf_stop(session);

  // a comment inside does not count
  // [mlx-inst-end]
  // [mlx-asrt-begin]
  check(a == b);
  // [mlx-asrt-end]
}
)";
  LocCount c = count_marked_loc(src);
  EXPECT_EQ(c.instrumentation, 2);
  EXPECT_EQ(c.assertion, 1);
  EXPECT_EQ(c.total(), 3);
}

TEST(LocCounter, UnbalancedMarkersThrow) {
  EXPECT_THROW(count_marked_loc("// [mlx-inst-begin]\nint x;\n"), MlxError);
}

}  // namespace
}  // namespace mlexray
