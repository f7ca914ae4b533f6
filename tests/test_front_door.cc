// Overload-safe serving front door: bounded admission, deadline-aware
// dynamic batching, load shedding, and the per-model-version circuit
// breaker.
//
// Locked-in contracts:
//  - admission is typed, never throws on the hot path: kQueueFull when the
//    bounded queue / slot pool is exhausted, kDeadlineInfeasible when the
//    EWMA estimator projects a guaranteed miss, kBreakerOpen while failing
//    fast — and released slots restore admission;
//  - the shedding policy drops expired and provably-late requests as kShed
//    while batch selection dispatches higher priority before earlier
//    arrival (so B submitted before C still dispatches after it);
//  - batched coalesced invokes are bit-exact with sequential single-request
//    invokes, including partial batches padded up to a larger variant;
//  - the breaker trips on an error burst, flushes the queue, fails fast,
//    half-open-probes after the cooldown, closes on probe success, re-opens
//    on probe failure, and heals immediately on an engine hot-swap;
//  - one bounded retry with jittered backoff recovers transient faults;
//  - steady-state submit -> batch -> complete -> release performs zero heap
//    allocations (operator-new counter + AllocStats, same as test_engine);
//  - the chaos test races submit threads (both Ticket and submit_async
//    paths) against hot-swaps, fault bursts, and unload (run under TSan in
//    CI), with every kOk bit-exact against the version that served it and
//    no tracked memory leaked after teardown.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "src/common/fault_injection.h"
#include "src/graph/builder.h"
#include "src/interpreter/engine.h"
#include "src/interpreter/front_door.h"
#include "src/interpreter/model.h"
#include "src/interpreter/session.h"
#include "src/tensor/alloc_stats.h"
#include "tests/heap_counter.h"
#include "tests/test_util.h"

namespace mlexray {
namespace {

// Spin until the front door reports `inflight` >= 1 for `model`: the single
// worker has formed a batch and is inside the (fault-stalled) invoke.
bool wait_for_inflight(const FrontDoor& door, const std::string& model,
                       int timeout_ms = 2000) {
  const auto give_up = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < give_up) {
    if (door.stats(model).inflight > 0) return true;
    std::this_thread::yield();
  }
  return false;
}

class FrontDoorTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::disarm_all(); }
};

// --- registration and typed admission ----------------------------------------

TEST_F(FrontDoorTest, RegistrationValidatesVariantsAndNames) {
  BuiltinOpResolver opt;
  Engine engine(&opt);
  engine.load("stack", conv_stack_graph(11));
  engine.load("stack@b4", conv_stack_graph(11, 4));
  FrontDoor door(&engine);

  // Unregistered model: typed inline rejection, not an exception.
  Pcg32 drng(12);
  Tensor x = random_input(Shape{1, 16, 16, 8}, drng);
  {
    Ticket t = door.submit("nope", x);
    ASSERT_TRUE(t);
    EXPECT_TRUE(t.done());
    EXPECT_EQ(t.wait().code, RequestCode::kUnknownModel);
  }
  EXPECT_THROW(door.stats("nope"), MlxError);

  // Variants must be loaded and declare their true batch dim.
  {
    FrontDoorModelOptions bad;
    bad.variants = {{1, "missing"}};
    EXPECT_THROW(door.register_model("stack", bad), MlxError);
  }
  {
    FrontDoorModelOptions bad;
    bad.variants = {{2, "stack"}};  // graph batch dim is 1, not 2
    EXPECT_THROW(door.register_model("stack", bad), MlxError);
  }

  FrontDoorModelOptions opts;
  opts.variants = {{1, "stack"}, {4, "stack@b4"}};
  door.register_model("stack", opts);
  EXPECT_TRUE(door.registered("stack"));
  EXPECT_THROW(door.register_model("stack", opts), MlxError)
      << "duplicate registration must throw";

  Ticket t = door.submit("stack", x);
  EXPECT_EQ(t.wait().code, RequestCode::kOk);
  const FrontDoorStats s = door.stats("stack");
  EXPECT_EQ(s.submitted, 1u);
  EXPECT_EQ(s.admitted, 1u);
  EXPECT_EQ(s.completed_ok, 1u);
}

TEST_F(FrontDoorTest, QueueFullRejectsAndReleasedSlotsRestoreAdmission) {
  BuiltinOpResolver opt;
  Engine engine(&opt);
  engine.load("stack", conv_stack_graph(21));
  FrontDoor door(&engine);
  FrontDoorModelOptions opts;
  opts.queue_capacity = 2;  // slot pool = 2 + max_batch(1) * workers(1) = 3
  door.register_model("stack", opts);

  Pcg32 drng(22);
  Tensor x = random_input(Shape{1, 16, 16, 8}, drng);

  // Done-but-unreleased Tickets hold their slots, so regardless of how fast
  // the worker drains, at most 3 of these 6 submits can be admitted and the
  // rest must reject as kQueueFull (pending cap or slot-pool exhaustion).
  std::vector<Ticket> held;
  int admitted = 0;
  int queue_full = 0;
  for (int i = 0; i < 6; ++i) {
    Ticket t = door.submit("stack", x);
    const RequestCode code = t.wait().code;
    if (code == RequestCode::kQueueFull) {
      ++queue_full;
    } else {
      EXPECT_EQ(code, RequestCode::kOk);
      ++admitted;
    }
    held.push_back(std::move(t));
  }
  EXPECT_LE(admitted, 3);
  EXPECT_GE(queue_full, 3);
  {
    const FrontDoorStats s = door.stats("stack");
    EXPECT_EQ(s.rejected_queue_full, static_cast<std::uint64_t>(queue_full));
    EXPECT_EQ(s.submitted, 6u);
    EXPECT_EQ(s.admitted, static_cast<std::uint64_t>(admitted));
  }

  // Releasing the hoarded tickets recycles their slots: admission recovers.
  held.clear();
  Ticket again = door.submit("stack", x);
  EXPECT_EQ(again.wait().code, RequestCode::kOk);
}

TEST_F(FrontDoorTest, InfeasibleDeadlineRejectsUpFront) {
  BuiltinOpResolver opt;
  Engine engine(&opt);
  engine.load("stack", conv_stack_graph(31));
  FrontDoor door(&engine);
  FrontDoorModelOptions opts;
  opts.default_deadline_ms = 10.0;
  door.register_model("stack", opts);
  door.set_service_estimate_for_testing("stack", 100000.0);  // 100 ms/batch

  Pcg32 drng(32);
  Tensor x = random_input(Shape{1, 16, 16, 8}, drng);

  // 100 ms estimated service > 10 ms explicit deadline: rejected before the
  // input is even copied. Rejected tickets are born done.
  Ticket infeasible = door.submit("stack", x, /*deadline_ms=*/10.0);
  EXPECT_TRUE(infeasible.done());
  EXPECT_EQ(infeasible.wait().code, RequestCode::kDeadlineInfeasible);
  EXPECT_TRUE(request_rejected(infeasible.wait().code));

  // deadline_ms <= 0 falls back to default_deadline_ms (10 ms): same answer.
  Ticket defaulted = door.submit("stack", x, /*deadline_ms=*/0.0);
  EXPECT_EQ(defaulted.wait().code, RequestCode::kDeadlineInfeasible);

  // A roomy deadline admits and completes despite the stale estimate.
  Ticket roomy = door.submit("stack", x, /*deadline_ms=*/5000.0);
  EXPECT_EQ(roomy.wait().code, RequestCode::kOk);

  const FrontDoorStats s = door.stats("stack");
  EXPECT_EQ(s.rejected_infeasible, 2u);
  EXPECT_EQ(s.completed_ok, 1u);
}

// --- shedding and priority ---------------------------------------------------

TEST_F(FrontDoorTest, ShedsExpiredAndProvablyLateDispatchesPriorityFirst) {
  BuiltinOpResolver opt;
  Engine engine(&opt);
  engine.load("stack", conv_stack_graph(41));
  FrontDoor door(&engine);
  FrontDoorModelOptions opts;
  opts.max_wait_ms = 0.0;  // dispatch as soon as anything is ready
  door.register_model("stack", opts);

  Pcg32 drng(42);
  Tensor x = random_input(Shape{1, 16, 16, 8}, drng);

  // Stall the first invoke only: 4 prepared steps x 15 ms. Everything
  // submitted during the stall queues behind it.
  fault::Spec stall;
  stall.kind = fault::Kind::kDelay;
  stall.delay_ms = 15;
  stall.max_fires = 4;
  fault::arm(fault_sites::kInvokeStep, stall);

  Ticket x_ticket = door.submit("stack", x);
  ASSERT_TRUE(wait_for_inflight(door, "stack"));

  // Queued during the ~60 ms stall:
  //   A expires (5 ms deadline) before the worker scans again;
  //   B (prio 0) and C (prio 1) have no deadline.
  Ticket a = door.submit("stack", x, /*deadline_ms=*/5.0, /*priority=*/0);
  Ticket b_ticket = door.submit("stack", x, 0.0, /*priority=*/0);
  Ticket c_ticket = door.submit("stack", x, 0.0, /*priority=*/1);

  EXPECT_EQ(x_ticket.wait().code, RequestCode::kOk);
  EXPECT_EQ(a.wait().code, RequestCode::kShed) << "expired request not shed";
  const RequestResult& rb = b_ticket.wait();
  const RequestResult& rc = c_ticket.wait();
  EXPECT_EQ(rb.code, RequestCode::kOk);
  EXPECT_EQ(rc.code, RequestCode::kOk);
  // B was submitted before C but C outranks it: with one worker dispatching
  // sequentially, C's dispatch strictly precedes B's, so C waited less.
  EXPECT_LT(rc.queue_us, rb.queue_us)
      << "higher-priority request was not dispatched first";

  {
    const FrontDoorStats s = door.stats("stack");
    EXPECT_EQ(s.shed, 1u);
    EXPECT_EQ(s.completed_ok, 3u);
    EXPECT_EQ(s.max_queue_depth, 3u);
  }

  // Proactive shed: D's 120 ms deadline is still alive when the worker next
  // scans (~100 ms in), but with a pinned 40 ms/batch service estimate the
  // ~20 ms left cannot fit a batch — serving D would be a guaranteed miss.
  door.set_service_estimate_for_testing("stack", 40000.0);
  fault::Spec stall2;
  stall2.kind = fault::Kind::kDelay;
  stall2.delay_ms = 25;
  stall2.max_fires = 4;
  fault::arm(fault_sites::kInvokeStep, stall2);
  Ticket x2 = door.submit("stack", x);
  ASSERT_TRUE(wait_for_inflight(door, "stack"));
  Ticket d = door.submit("stack", x, /*deadline_ms=*/120.0, /*priority=*/0);
  EXPECT_EQ(x2.wait().code, RequestCode::kOk);
  EXPECT_EQ(d.wait().code, RequestCode::kShed)
      << "provably-late request was served instead of shed";
  EXPECT_EQ(door.stats("stack").shed, 2u);
}

// --- dynamic batching --------------------------------------------------------

TEST_F(FrontDoorTest, CoalescedBatchMatchesSequentialBitExact) {
  BuiltinOpResolver opt;
  Engine engine(&opt);
  engine.load("stack", conv_stack_graph(51));
  engine.load("stack@b4", conv_stack_graph(51, 4));  // same weights at batch 4

  // Sequential reference: each input through the batch-1 model on its own.
  Pcg32 drng(52);
  std::vector<Tensor> inputs;
  std::vector<Tensor> expected;
  for (int i = 0; i < 4; ++i) {
    inputs.push_back(random_input(Shape{1, 16, 16, 8}, drng));
    SessionLease ref = engine.acquire("stack");
    ref->set_input(0, inputs.back());
    ref->invoke();
    expected.push_back(ref->output(0));  // deep copy
  }

  class DispatchRecorder : public FrontDoorObserver {
   public:
    void on_dispatch(const std::string&, int coalesced,
                     int variant_batch) override {
      dispatches.push_back({coalesced, variant_batch});
    }
    std::vector<std::pair<int, int>> dispatches;
  };

  FrontDoor door(&engine);
  DispatchRecorder recorder;
  door.set_observer(&recorder);
  FrontDoorModelOptions opts;
  opts.variants = {{1, "stack"}, {4, "stack@b4"}};
  opts.max_wait_ms = 200.0;  // wait for the full batch to coalesce
  door.register_model("stack", opts);

  // Full batch: 4 submits coalesce into one batch-4 invoke.
  {
    std::vector<Ticket> tickets;
    for (int i = 0; i < 4; ++i) {
      tickets.push_back(door.submit("stack", inputs[static_cast<std::size_t>(i)]));
    }
    for (int i = 0; i < 4; ++i) {
      const RequestResult& r = tickets[static_cast<std::size_t>(i)].wait();
      ASSERT_EQ(r.code, RequestCode::kOk);
      EXPECT_EQ(r.batch_size, 4);
      ASSERT_EQ(r.output_count, 1);
      EXPECT_TRUE(
          same_bytes(r.outputs[0], expected[static_cast<std::size_t>(i)]));
    }
  }
  {
    const FrontDoorStats s = door.stats("stack");
    EXPECT_EQ(s.batches, 1u);
    ASSERT_EQ(s.batch_size_hist.size(), 5u);
    EXPECT_EQ(s.batch_size_hist[4], 1u);
  }
  ASSERT_EQ(recorder.dispatches.size(), 1u);
  EXPECT_EQ(recorder.dispatches[0], (std::pair<int, int>{4, 4}));

  // Partial batch padded up to the 4-row variant: results for the 3 real
  // rows are still bit-exact; padding rows are never copied out.
  {
    FrontDoorModelOptions fast = opts;
    fast.max_wait_ms = 5.0;
    fast.max_batch = 3;
    door.register_model("stack.partial", fast);
    std::vector<Ticket> tickets;
    for (int i = 0; i < 3; ++i) {
      tickets.push_back(
          door.submit("stack.partial", inputs[static_cast<std::size_t>(i)]));
    }
    for (int i = 0; i < 3; ++i) {
      const RequestResult& r = tickets[static_cast<std::size_t>(i)].wait();
      ASSERT_EQ(r.code, RequestCode::kOk);
      ASSERT_EQ(r.output_count, 1);
      EXPECT_TRUE(
          same_bytes(r.outputs[0], expected[static_cast<std::size_t>(i)]));
    }
    bool saw_padded = false;
    for (const auto& d : recorder.dispatches) {
      if (d.second == 4 && d.first < 4) saw_padded = true;
    }
    EXPECT_TRUE(saw_padded)
        << "expected at least one partial batch padded up to the 4-variant";
  }
}

// --- deadline propagation ----------------------------------------------------

TEST_F(FrontDoorTest, BatchDeadlineExpiresCooperativelyWithoutPoisoning) {
  BuiltinOpResolver opt;
  Engine engine(&opt);
  engine.load("stack", conv_stack_graph(61));
  FrontDoor door(&engine);
  door.register_model("stack");

  Pcg32 drng(62);
  Tensor x = random_input(Shape{1, 16, 16, 8}, drng);

  // Each step stalls 20 ms (4 steps = 80 ms) against a 30 ms deadline: the
  // propagated try_invoke_until deadline expires at a step boundary.
  fault::Spec stall;
  stall.kind = fault::Kind::kDelay;
  stall.delay_ms = 20;
  stall.max_fires = 4;
  fault::arm(fault_sites::kInvokeStep, stall);

  Ticket late = door.submit("stack", x, /*deadline_ms=*/30.0);
  EXPECT_EQ(late.wait().code, RequestCode::kDeadlineExceeded);
  EXPECT_EQ(door.stats("stack").deadline_exceeded, 1u);

  // Cooperative expiry does not poison the session: the next request is
  // served fine (the stall burst is exhausted).
  fault::disarm_all();
  Ticket ok = door.submit("stack", x);
  EXPECT_EQ(ok.wait().code, RequestCode::kOk);
}

TEST_F(FrontDoorTest, CoalescedPeerWithRoomIsRequeuedNotFailedOnBatchExpiry) {
  BuiltinOpResolver opt;
  Engine engine(&opt);
  engine.load("stack", conv_stack_graph(65));
  engine.load("stack@b4", conv_stack_graph(65, 4));

  // Reference output for the no-deadline request (before any faults).
  Pcg32 drng(66);
  Tensor x = random_input(Shape{1, 16, 16, 8}, drng);
  Tensor expected;
  {
    SessionLease ref = engine.acquire("stack");
    ref->set_input(0, x);
    ref->invoke();
    expected = ref->output(0);
  }

  FrontDoor door(&engine);
  FrontDoorModelOptions opts;
  opts.variants = {{1, "stack"}, {4, "stack@b4"}};
  opts.max_wait_ms = 50.0;  // both submits coalesce into one batch
  opts.retry_transient_faults = false;
  door.register_model("stack", opts);

  // The coalesced batch stalls past the urgent member's 120 ms deadline
  // (dispatch at ~50 ms + 30 ms per step), so the batched invoke expires
  // cooperatively mid-walk.
  fault::Spec stall;
  stall.kind = fault::Kind::kDelay;
  stall.delay_ms = 30;
  stall.max_fires = 4;
  fault::arm(fault_sites::kInvokeStep, stall);

  Ticket urgent = door.submit("stack", x, /*deadline_ms=*/120.0);
  Ticket lax = door.submit("stack", x, /*deadline_ms=*/0.0);

  // Only the member whose own deadline blew fails; the no-deadline member
  // was collateral of the coalescing choice and is requeued, then served.
  EXPECT_EQ(urgent.wait().code, RequestCode::kDeadlineExceeded);
  const RequestResult& rl = lax.wait();
  EXPECT_EQ(rl.code, RequestCode::kOk)
      << "no-deadline request failed for a coalesced peer's deadline";
  ASSERT_EQ(rl.output_count, 1);
  EXPECT_TRUE(same_bytes(rl.outputs[0], expected));

  const FrontDoorStats s = door.stats("stack");
  EXPECT_EQ(s.deadline_exceeded, 1u);
  EXPECT_EQ(s.completed_ok, 1u);
  EXPECT_EQ(s.deadline_requeues, 1u)
      << "the two submits did not coalesce into one batch";
}

// --- circuit breaker ---------------------------------------------------------

class BreakerRecorder : public FrontDoorObserver {
 public:
  void on_breaker(const std::string&, std::uint64_t, BreakerState from,
                  BreakerState to) override {
    transitions.push_back({from, to});
  }
  std::vector<std::pair<BreakerState, BreakerState>> transitions;
};

TEST_F(FrontDoorTest, BreakerTripsFlushesFailsFastProbesAndCloses) {
  BuiltinOpResolver opt;
  Engine engine(&opt);
  engine.load("stack", conv_stack_graph(71));
  FrontDoor door(&engine);
  BreakerRecorder recorder;
  door.set_observer(&recorder);
  FrontDoorModelOptions opts;
  opts.breaker_failure_threshold = 1;
  opts.breaker_open_ms = 60.0;
  opts.retry_transient_faults = false;
  door.register_model("stack", opts);

  Pcg32 drng(72);
  Tensor x = random_input(Shape{1, 16, 16, 8}, drng);

  // First invoke: the first GEMM stalls 60 ms (time to queue F2/F3 behind
  // it), then step 2 throws — a contained kernel failure.
  fault::Spec stall;
  stall.kind = fault::Kind::kDelay;
  stall.delay_ms = 60;
  stall.max_fires = 1;
  fault::arm(fault_sites::kKernelGemm, stall);
  fault::Spec boom;
  boom.kind = fault::Kind::kThrow;
  boom.skip = 2;
  boom.max_fires = 1;
  fault::arm(fault_sites::kInvokeStep, boom);

  Ticket f1 = door.submit("stack", x);
  ASSERT_TRUE(wait_for_inflight(door, "stack"));
  Ticket f2 = door.submit("stack", x);
  Ticket f3 = door.submit("stack", x);
  ASSERT_EQ(f2.done(), false);

  // F1 fails -> threshold 1 trips the breaker -> F2/F3 flush as
  // kBreakerOpen without ever touching the engine.
  EXPECT_EQ(f1.wait().code, RequestCode::kError);
  EXPECT_EQ(f2.wait().code, RequestCode::kBreakerOpen);
  EXPECT_EQ(f3.wait().code, RequestCode::kBreakerOpen);

  // Open: new submits fail fast.
  Ticket f4 = door.submit("stack", x);
  EXPECT_TRUE(f4.done());
  EXPECT_EQ(f4.wait().code, RequestCode::kBreakerOpen);
  {
    const FrontDoorStats s = door.stats("stack");
    EXPECT_EQ(s.breaker_state, BreakerState::kOpen);
    EXPECT_EQ(s.breaker_trips, 1u);
    EXPECT_EQ(s.flushed_breaker_open, 2u);
    EXPECT_EQ(s.rejected_breaker_open, 1u);
    EXPECT_EQ(s.failed, 1u);
  }

  // Past the cooldown the next submit is admitted as the half-open probe;
  // it succeeds (the fault burst is exhausted) and closes the breaker.
  fault::disarm_all();
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  Ticket probe = door.submit("stack", x);
  EXPECT_EQ(probe.wait().code, RequestCode::kOk);
  EXPECT_EQ(door.stats("stack").breaker_state, BreakerState::kClosed);

  ASSERT_GE(recorder.transitions.size(), 3u);
  using P = std::pair<BreakerState, BreakerState>;
  EXPECT_EQ(recorder.transitions[0],
            (P{BreakerState::kClosed, BreakerState::kOpen}));
  EXPECT_EQ(recorder.transitions[1],
            (P{BreakerState::kOpen, BreakerState::kHalfOpen}));
  EXPECT_EQ(recorder.transitions[2],
            (P{BreakerState::kHalfOpen, BreakerState::kClosed}));
}

TEST_F(FrontDoorTest, FailedProbeReopensTheBreaker) {
  BuiltinOpResolver opt;
  Engine engine(&opt);
  engine.load("stack", conv_stack_graph(81));
  FrontDoor door(&engine);
  FrontDoorModelOptions opts;
  opts.breaker_failure_threshold = 1;
  opts.breaker_open_ms = 30.0;
  opts.retry_transient_faults = false;
  door.register_model("stack", opts);

  Pcg32 drng(82);
  Tensor x = random_input(Shape{1, 16, 16, 8}, drng);

  fault::Spec boom;
  boom.kind = fault::Kind::kThrow;
  boom.max_fires = 2;  // the tripping failure and the failed probe
  fault::arm(fault_sites::kInvokeStep, boom);

  EXPECT_EQ(door.submit("stack", x).wait().code, RequestCode::kError);
  EXPECT_EQ(door.stats("stack").breaker_state, BreakerState::kOpen);

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(door.submit("stack", x).wait().code, RequestCode::kError)
      << "the half-open probe should reach the engine and fail";
  {
    const FrontDoorStats s = door.stats("stack");
    EXPECT_EQ(s.breaker_state, BreakerState::kOpen) << "failed probe must re-open";
    EXPECT_EQ(s.breaker_trips, 2u);
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(door.submit("stack", x).wait().code, RequestCode::kOk);
  EXPECT_EQ(door.stats("stack").breaker_state, BreakerState::kClosed);
}

TEST_F(FrontDoorTest, FailedProbeFlushesRequestsQueuedBehindIt) {
  BuiltinOpResolver opt;
  Engine engine(&opt);
  engine.load("stack", conv_stack_graph(85));
  FrontDoor door(&engine);
  FrontDoorModelOptions opts;
  opts.breaker_failure_threshold = 1;
  opts.breaker_open_ms = 30.0;
  opts.retry_transient_faults = false;
  door.register_model("stack", opts);

  Pcg32 drng(86);
  Tensor x = random_input(Shape{1, 16, 16, 8}, drng);

  // Trip the breaker, then wait out the cooldown.
  fault::Spec boom;
  boom.kind = fault::Kind::kThrow;
  boom.max_fires = 1;
  fault::arm(fault_sites::kInvokeStep, boom);
  EXPECT_EQ(door.submit("stack", x).wait().code, RequestCode::kError);
  EXPECT_EQ(door.stats("stack").breaker_state, BreakerState::kOpen);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // The half-open probe stalls 60 ms in its first GEMM (time to queue
  // requests behind it), then fails with a contained throw.
  fault::Spec stall;
  stall.kind = fault::Kind::kDelay;
  stall.delay_ms = 60;
  stall.max_fires = 1;
  fault::arm(fault_sites::kKernelGemm, stall);
  fault::Spec boom2;
  boom2.kind = fault::Kind::kThrow;
  boom2.skip = 2;
  boom2.max_fires = 1;
  fault::arm(fault_sites::kInvokeStep, boom2);

  Ticket probe = door.submit("stack", x);
  ASSERT_TRUE(wait_for_inflight(door, "stack"));

  // Admitted during the half-open probe: if the probe fails, nothing will
  // ever serve these — the re-opened breaker must flush them, not strand
  // them. submit_async so a regression fails the EXPECTs at door teardown
  // (kShed) instead of deadlocking a Ticket wait.
  struct FlushCtx {
    std::atomic<int> fired{0};
    std::atomic<int> breaker_open{0};
  } ctx;
  const FrontDoorCallback on_done = [](void* c, const RequestResult& r) {
    auto* fc = static_cast<FlushCtx*>(c);
    if (r.code == RequestCode::kBreakerOpen) {
      fc->breaker_open.fetch_add(1, std::memory_order_relaxed);
    }
    fc->fired.fetch_add(1, std::memory_order_relaxed);
  };
  ASSERT_EQ(door.submit_async("stack", x, 0.0, 0, on_done, &ctx),
            RequestCode::kOk);
  ASSERT_EQ(door.submit_async("stack", x, 0.0, 0, on_done, &ctx),
            RequestCode::kOk);

  EXPECT_EQ(probe.wait().code, RequestCode::kError);
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (ctx.fired.load(std::memory_order_relaxed) < 2 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::yield();
  }
  EXPECT_EQ(ctx.fired.load(), 2)
      << "requests queued behind the failed probe were stranded";
  EXPECT_EQ(ctx.breaker_open.load(), 2);
  {
    const FrontDoorStats s = door.stats("stack");
    EXPECT_EQ(s.breaker_state, BreakerState::kOpen);
    EXPECT_EQ(s.breaker_trips, 2u);
    EXPECT_EQ(s.flushed_breaker_open, 2u);
    EXPECT_EQ(s.queue_depth, 0u);
  }
}

TEST_F(FrontDoorTest, HotSwapHealsAnOpenBreakerImmediately) {
  BuiltinOpResolver opt;
  Engine engine(&opt);
  engine.load("stack", conv_stack_graph(91));
  FrontDoor door(&engine);
  FrontDoorModelOptions opts;
  opts.breaker_failure_threshold = 1;
  opts.breaker_open_ms = 10000.0;  // cooldown alone would stall the test
  opts.retry_transient_faults = false;
  door.register_model("stack", opts);

  Pcg32 drng(92);
  Tensor x = random_input(Shape{1, 16, 16, 8}, drng);

  fault::Spec boom;
  boom.kind = fault::Kind::kThrow;
  boom.max_fires = 1;
  fault::arm(fault_sites::kInvokeStep, boom);
  EXPECT_EQ(door.submit("stack", x).wait().code, RequestCode::kError);
  EXPECT_EQ(door.stats("stack").breaker_state, BreakerState::kOpen);

  // The failing version is replaced: the breaker heals without waiting out
  // the cooldown, and the new version serves.
  engine.load("stack", conv_stack_graph(93));
  Ticket t = door.submit("stack", x);
  const RequestResult& r = t.wait();
  EXPECT_EQ(r.code, RequestCode::kOk);
  EXPECT_EQ(r.version, 2u);
  EXPECT_EQ(door.stats("stack").breaker_state, BreakerState::kClosed);
}

TEST_F(FrontDoorTest, StatsReadTheLiveServiceEstimateAndBreakerVersion) {
  BuiltinOpResolver opt;
  Engine engine(&opt);
  engine.load("stack", conv_stack_graph(95));
  FrontDoor door(&engine);
  door.register_model("stack");

  // The estimate admission and shedding use, before any batch re-measures it.
  door.set_service_estimate_for_testing("stack", 1234.5);
  EXPECT_DOUBLE_EQ(door.stats("stack").service_estimate_us, 1234.5);
  EXPECT_EQ(door.stats("stack").breaker_version, 0u);

  // The breaker keys itself to the engine version that served the last
  // batch, so a hot swap shows up after the next served request.
  Pcg32 drng(96);
  Tensor x = random_input(Shape{1, 16, 16, 8}, drng);
  EXPECT_EQ(door.submit("stack", x).wait().code, RequestCode::kOk);
  EXPECT_EQ(door.stats("stack").breaker_version, 1u);
  engine.load("stack", conv_stack_graph(97));
  EXPECT_EQ(door.submit("stack", x).wait().code, RequestCode::kOk);
  EXPECT_EQ(door.stats("stack").breaker_version, 2u);
}

// --- bounded retry -----------------------------------------------------------

TEST_F(FrontDoorTest, TransientFaultIsRetriedOnceWithBackoff) {
  BuiltinOpResolver opt;
  Engine engine(&opt);
  engine.load("stack", conv_stack_graph(101));
  FrontDoor door(&engine);
  FrontDoorModelOptions opts;
  opts.breaker_failure_threshold = 10;  // keep the breaker out of the way
  door.register_model("stack", opts);

  Pcg32 drng(102);
  Tensor x = random_input(Shape{1, 16, 16, 8}, drng);

  // One transient failure: the retry succeeds.
  fault::Spec boom;
  boom.kind = fault::Kind::kThrow;
  boom.max_fires = 1;
  fault::arm(fault_sites::kInvokeStep, boom);
  {
    Ticket t = door.submit("stack", x);
    const RequestResult& r = t.wait();
    EXPECT_EQ(r.code, RequestCode::kOk);
    EXPECT_TRUE(r.retried);
  }
  {
    const FrontDoorStats s = door.stats("stack");
    EXPECT_EQ(s.retries, 1u);
    EXPECT_EQ(s.completed_ok, 1u);
    EXPECT_EQ(s.failed, 0u);
  }

  // Two consecutive failures: the single retry is spent, kError is final.
  boom.max_fires = 2;
  fault::arm(fault_sites::kInvokeStep, boom);
  {
    Ticket t = door.submit("stack", x);
    const RequestResult& r = t.wait();
    EXPECT_EQ(r.code, RequestCode::kError);
    EXPECT_TRUE(r.retried);
  }
  {
    const FrontDoorStats s = door.stats("stack");
    EXPECT_EQ(s.retries, 2u);
    EXPECT_EQ(s.failed, 1u);
  }
}

// --- zero-alloc steady state -------------------------------------------------

TEST_F(FrontDoorTest, SteadyStateSubmitBatchCompleteReleaseIsHeapFree) {
  BuiltinOpResolver opt;
  Engine engine(&opt);
  const std::string name = "stack";
  engine.load(name, conv_stack_graph(111));
  FrontDoor door(&engine);
  door.register_model(name);

  Pcg32 drng(112);
  Tensor x = random_input(Shape{1, 16, 16, 8}, drng);

  struct AsyncCtx {
    std::atomic<int> done{0};
  } async_ctx;
  const FrontDoorCallback on_done = [](void* ctx, const RequestResult& r) {
    if (r.code == RequestCode::kOk) {
      static_cast<AsyncCtx*>(ctx)->done.fetch_add(1,
                                                  std::memory_order_relaxed);
    }
  };

  // Warm both completion paths: sessions built, arenas grown, worker
  // scratch reserved, EWMA primed.
  for (int i = 0; i < 3; ++i) {
    Ticket t = door.submit(name, x);
    ASSERT_EQ(t.wait().code, RequestCode::kOk);
  }
  ASSERT_EQ(door.submit_async(name, x, 0.0, 0, on_done, &async_ctx),
            RequestCode::kOk);
  while (async_ctx.done.load(std::memory_order_relaxed) < 1) {
    std::this_thread::yield();
  }

  const std::uint64_t events_before = AllocStats::instance().alloc_events();
  const std::size_t bytes_before = AllocStats::instance().current_bytes();
  const std::uint64_t heap_before = g_heap_allocs.load();
  for (int i = 0; i < 10; ++i) {
    Ticket t = door.submit(name, x);
    EXPECT_EQ(t.wait().code, RequestCode::kOk);
    t.release();
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(door.submit_async(name, x, 0.0, 0, on_done, &async_ctx),
              RequestCode::kOk);
    while (async_ctx.done.load(std::memory_order_relaxed) < i + 2) {
      std::this_thread::yield();
    }
  }
  EXPECT_EQ(g_heap_allocs.load(), heap_before)
      << "steady-state front-door serving touched the heap (operator new)";
  EXPECT_EQ(AllocStats::instance().alloc_events(), events_before)
      << "steady-state front-door serving registered tensor/arena allocations";
  EXPECT_EQ(AllocStats::instance().current_bytes(), bytes_before);
}

// --- chaos: overload + fault bursts + hot-swap + unload ----------------------

TEST_F(FrontDoorTest, ChaosSubmitRacesHotSwapFaultBurstsAndUnload) {
  constexpr int kSubmitThreads = 4;
  constexpr int kItersPerThread = 120;
  const std::string name = "chaos";
  const std::string name_b4 = "chaos@b4";

  BuiltinOpResolver opt;
  Pcg32 drng(122);
  Tensor x = random_input(Shape{1, 16, 16, 8}, drng);

  // Every thread submits the same input, and partial batches pad with row 0
  // (= the same input), so whichever variant serves a batch its invoked
  // input is exactly [x] or [x,x,x,x]. Odd engine versions carry graph A
  // (seed 301), even carry graph B (seed 302) — for both variants, since
  // the driver swaps them in lockstep. Expected row outputs per (graph,
  // variant) are precomputed on private models.
  Tensor want[2][2];  // [graph A=0 / B=1][batch-1 row / batch-4 row]
  for (int g = 0; g < 2; ++g) {
    const std::uint64_t seed = g == 0 ? 301 : 302;
    {
      Model m(conv_stack_graph(seed), &opt);
      Session s(&m);
      s.set_input(0, x);
      s.invoke();
      want[g][0] = s.output(0);
    }
    {
      Model m(conv_stack_graph(seed, 4), &opt);
      Session s(&m);
      Tensor stacked = Tensor::f32(Shape{4, 16, 16, 8});
      auto* dst = static_cast<std::uint8_t*>(stacked.raw_data());
      for (int i = 0; i < 4; ++i) {
        std::memcpy(dst + static_cast<std::size_t>(i) * x.byte_size(),
                    x.raw_data(), x.byte_size());
      }
      s.set_input(0, stacked);
      s.invoke();
      Tensor row0 = Tensor::f32(Shape{1, 10});
      std::memcpy(row0.raw_data(), s.output(0).raw_data(), row0.byte_size());
      want[g][1] = std::move(row0);
    }
  }

  const std::size_t alloc_baseline = AllocStats::instance().current_bytes();
  std::atomic<int> mismatches{0};
  std::atomic<int> unexpected_codes{0};
  std::atomic<std::int64_t> ok_count{0};
  std::atomic<std::int64_t> admitted_async{0};
  std::atomic<std::int64_t> done_async{0};

  {
    Engine engine(&opt);
    engine.load(name, conv_stack_graph(301));       // v1 = A
    engine.load(name_b4, conv_stack_graph(301, 4));  // v1 = A

    FrontDoorOptions door_opts;
    door_opts.workers = 2;
    FrontDoor door(&engine, door_opts);
    FrontDoorModelOptions opts;
    opts.variants = {{1, name}, {4, name_b4}};
    opts.max_wait_ms = 0.5;
    opts.queue_capacity = 32;
    door.register_model(name, opts);

    // Checks one terminal result against the want table; safe from any
    // thread (atomics only).
    struct Verify {
      Tensor (*want)[2];
      std::atomic<int>* mismatches;
      std::atomic<int>* unexpected;
      std::atomic<std::int64_t>* ok;
      void check(const RequestResult& r) const {
        switch (r.code) {
          case RequestCode::kOk: {
            ok->fetch_add(1, std::memory_order_relaxed);
            const int g = r.version % 2 == 1 ? 0 : 1;
            const int v = r.batch_size == 1 ? 0 : 1;
            const Tensor& w = want[g][v];
            if (r.output_count != 1 || !same_bytes(r.outputs[0], w)) {
              mismatches->fetch_add(1, std::memory_order_relaxed);
            }
            break;
          }
          case RequestCode::kError:
          case RequestCode::kDeadlineExceeded:
          case RequestCode::kUnknownModel:
          case RequestCode::kQueueFull:
          case RequestCode::kDeadlineInfeasible:
          case RequestCode::kShed:
          case RequestCode::kBreakerOpen:
            break;  // all are legitimate under chaos
          default:
            unexpected->fetch_add(1, std::memory_order_relaxed);
        }
      }
    };
    static Verify verify;  // static so the plain-function callback can see it
    verify = Verify{want, &mismatches, &unexpected_codes, &ok_count};

    const FrontDoorCallback async_done = [](void* ctx, const RequestResult& r) {
      verify.check(r);
      static_cast<std::atomic<std::int64_t>*>(ctx)->fetch_add(
          1, std::memory_order_relaxed);
    };

    std::vector<std::thread> submitters;
    for (int w = 0; w < kSubmitThreads; ++w) {
      submitters.emplace_back([&, w] {
        for (int i = 0; i < kItersPerThread; ++i) {
          const double deadline_ms = (i % 8 == 7) ? 50.0 : 0.0;
          const int priority = (i % 16 == 15) ? 1 : 0;
          if (w == kSubmitThreads - 1) {
            // One thread exercises the fire-and-forget path.
            const RequestCode code = door.submit_async(
                name, x, deadline_ms, priority, async_done, &done_async);
            if (code == RequestCode::kOk) {
              admitted_async.fetch_add(1, std::memory_order_relaxed);
            }
          } else {
            Ticket t = door.submit(name, x, deadline_ms, priority);
            verify.check(t.wait());
            t.release();
          }
          if (i % 4 == 3) std::this_thread::yield();
        }
      });
    }

    // Chaos driver: hot-swaps both variants A<->B in lockstep, arms short
    // fault bursts, finally unloads while submitters are still running.
    std::thread driver([&] {
      for (int swap = 0; swap < 6; ++swap) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        const std::uint64_t seed = swap % 2 == 0 ? 302 : 301;
        engine.load(name, conv_stack_graph(seed));
        engine.load(name_b4, conv_stack_graph(seed, 4));
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
      engine.unload(name_b4);
    });

    for (std::thread& t : submitters) t.join();
    driver.join();

    // Drain the async stragglers (the engine is unloaded, so any still
    // queued resolve quickly as kUnknownModel or shed at door teardown).
    const auto drain_deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (done_async.load(std::memory_order_relaxed) <
               admitted_async.load(std::memory_order_relaxed) &&
           std::chrono::steady_clock::now() < drain_deadline) {
      std::this_thread::yield();
    }

    EXPECT_EQ(mismatches.load(), 0)
        << "a served request was not bit-exact with the version/variant "
           "that served it";
    EXPECT_EQ(unexpected_codes.load(), 0);
    EXPECT_GT(ok_count.load(), 0);

    // Full accounting: every submit reached exactly one typed outcome.
    const FrontDoorStats s = door.stats(name);
    EXPECT_EQ(s.submitted, static_cast<std::uint64_t>(kSubmitThreads) *
                               kItersPerThread);
    EXPECT_EQ(s.submitted, s.admitted + s.rejected_queue_full +
                               s.rejected_infeasible + s.rejected_breaker_open);
    EXPECT_EQ(s.admitted, s.completed_ok + s.failed + s.deadline_exceeded +
                              s.shed + s.unknown_model + s.flushed_breaker_open)
        << "admitted requests did not all reach a terminal code";
    EXPECT_EQ(s.queue_depth, 0u);
    EXPECT_EQ(s.inflight, 0u);
    EXPECT_EQ(done_async.load(), admitted_async.load());

    EXPECT_EQ(engine.model_count(), 0u);
    EXPECT_EQ(engine.prepared_bytes_total(), 0u);
  }
  // Door and engine gone: every slot tensor, session, and prepared buffer
  // must be back to the pre-engine baseline.
  EXPECT_EQ(AllocStats::instance().current_bytes(), alloc_baseline)
      << "front-door lifecycle leaked tracked memory";
}

}  // namespace
}  // namespace mlexray
