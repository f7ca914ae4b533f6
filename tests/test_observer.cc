// Push-based observability: the InvokeObserver -> TraceBuffer pipeline.
//
// Locks in the contracts the plan-integrated instrumentation claims:
//  - observer capture is bit-exact with the layers of a session whose graph
//    pins every node, in the raw dtype (int8 activations stay int8 in the
//    trace);
//  - a steady-state instrumented invoke performs zero heap allocations,
//    enforced with the same operator-new counter + AllocStats events
//    test_kernel_grid.cc uses for bare invoke;
//  - the double-buffered capture frames alternate and are reused across
//    >= 3 frames without new allocations;
//  - spooled .mlxtrace files round-trip through load_trace identically to
//    retained traces;
//  - capture is push-only: on_inf_stop on a session the monitor did not
//    capture throws, naming observe(), and leaves the observed session
//    attached;
//  - a frame without on_inf_start logs the captured invoke time as its
//    inference latency.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "src/core/monitor.h"
#include "src/graph/builder.h"
#include "src/quant/quantizer.h"
#include "src/tensor/alloc_stats.h"
#include "tests/heap_counter.h"
#include "tests/test_util.h"

namespace mlexray {
namespace {

Graph quantized_conv_stack(Pcg32* rng, std::uint64_t calib_seed) {
  Graph m = conv_stack_graph(rng);
  Calibrator calib(&m);
  Pcg32 crng(calib_seed);
  for (int i = 0; i < 4; ++i) {
    calib.observe({random_input(Shape{1, 16, 16, 8}, crng)});
  }
  return quantize_model(m, calib);
}

// Every layer of `graph` on `input`, read after invoke from a session over
// the graph with every node an output.
struct PinnedRun {
  PinnedRun(const Graph& graph, const OpResolver* resolver,
            const Tensor& input)
      : all(every_node_an_output(graph)), model(&all, resolver, 2),
        session(&model) {
    session.set_input(0, input);
    session.invoke();
  }
  const Tensor& layer(int node_id) const {
    return session.node_output(node_id);
  }
  Graph all;
  Model model;
  Session session;
};

// A monitored frame: the paper's instrumentation bracket.
void run_frame(EdgeMLMonitor& monitor, Session& session,
               const Tensor& input) {
  session.set_input(0, input);
  monitor.on_inf_start();
  session.invoke();
  monitor.on_inf_stop(session);
  monitor.next_frame();
}

TEST(ObserverCapture, PushMatchesNodeOutputsBitExact) {
  Pcg32 rng(11);
  Graph m = conv_stack_graph(&rng);
  BuiltinOpResolver opt;
  Model model(&m, &opt, /*num_threads=*/2);
  Session session(&model);
  MonitorOptions opts;
  opts.per_layer_outputs = true;
  EdgeMLMonitor monitor(opts);
  monitor.observe(session);
  Pcg32 drng(12);
  const Tensor input = random_input(Shape{1, 16, 16, 8}, drng);
  run_frame(monitor, session, input);
  const PinnedRun pinned(m, &opt, input);

  const Trace& trace = monitor.trace();
  ASSERT_EQ(trace.frames.size(), 1u);
  const FrameTrace& f = trace.frames[0];
  ASSERT_EQ(f.layer_names.size(), session.plan().step_count());
  ASSERT_EQ(f.layer_outputs.size(), f.layer_names.size());
  ASSERT_EQ(f.layer_latency_ms.size(), f.layer_names.size());
  std::size_t i = 0;
  for (const PlanStep& step : session.plan().steps()) {
    EXPECT_EQ(f.layer_names[i], step.node->name);
    const Tensor& retained = pinned.layer(step.node->id);
    const Tensor& captured = f.layer_outputs[i];
    EXPECT_TRUE(same_bytes(captured, retained)) << "layer " << step.node->name;
    EXPECT_GE(f.layer_latency_ms[i], 0.0);
    ++i;
  }
  EXPECT_GT(f.scalar(trace_keys::kInferenceLatencyMs), 0.0);
  monitor.unobserve(session);
}

TEST(ObserverCapture, QuantizedLayersStayInt8InTrace) {
  Pcg32 rng(21);
  Graph qm = quantized_conv_stack(&rng, 22);
  BuiltinOpResolver opt;
  Model model(&qm, &opt, /*num_threads=*/2);
  Session session(&model);
  MonitorOptions opts;
  opts.per_layer_outputs = true;
  EdgeMLMonitor monitor(opts);
  monitor.observe(session);
  Pcg32 drng(23);
  const Tensor input = random_input(Shape{1, 16, 16, 8}, drng);
  run_frame(monitor, session, input);
  const PinnedRun pinned(qm, &opt, input);

  const FrameTrace& f = monitor.trace().frames.at(0);
  int int8_layers = 0;
  std::size_t i = 0;
  for (const PlanStep& step : session.plan().steps()) {
    const Tensor& retained = pinned.layer(step.node->id);
    const Tensor& captured = f.layer_outputs.at(i);
    // Raw-dtype capture: quantized activations are logged as int8 with
    // their quant params, not eagerly dequantized.
    EXPECT_EQ(captured.dtype(), retained.dtype());
    if (captured.dtype() == DType::kI8) {
      ++int8_layers;
      ASSERT_TRUE(captured.quant().quantized());
      EXPECT_EQ(captured.quant().scale(), retained.quant().scale());
      // Offline reading dequantizes losslessly from the raw capture.
      EXPECT_TRUE(same_bytes(captured.to_f32(), retained.to_f32()));
    }
    ++i;
  }
  EXPECT_GT(int8_layers, 0) << "quantized model produced no int8 layers";
  monitor.unobserve(session);
}

// The acceptance gate: steady-state instrumented invoke (per-layer-latency
// mode, the always-on default) touches neither the heap nor the tracked
// allocators. retain_frames=false keeps next_frame() on the zero-alloc path
// too, so the whole monitored frame loop is heap-free.
TEST(ObserverSteadyState, InstrumentedFrameLoopIsHeapFree) {
  Pcg32 rng(31);
  Graph m = conv_stack_graph(&rng);
  BuiltinOpResolver opt;
  Model model(&m, &opt, /*num_threads=*/2);
  Session session(&model);
  MonitorOptions opts;  // per_layer_latency on, outputs off
  opts.retain_frames = false;
  EdgeMLMonitor monitor(opts);
  monitor.observe(session);
  Pcg32 drng(32);
  Tensor input = random_input(Shape{1, 16, 16, 8}, drng);
  // Warm-up: arena growth + both capture buffers (frames 1 and 2).
  for (int i = 0; i < 3; ++i) run_frame(monitor, session, input);

  const std::uint64_t events_before = AllocStats::instance().alloc_events();
  const std::uint64_t heap_before = g_heap_allocs.load();
  for (int i = 0; i < 5; ++i) run_frame(monitor, session, input);
  EXPECT_EQ(AllocStats::instance().alloc_events(), events_before)
      << "instrumented frame loop registered tensor/arena allocations";
  EXPECT_EQ(g_heap_allocs.load(), heap_before)
      << "instrumented frame loop touched the heap (operator new)";
  EXPECT_EQ(monitor.buffer().frames_captured(), 8);
  monitor.unobserve(session);
}

// Full per-layer output capture is also heap-free: raw-byte memcpy into
// pre-sized buffers.
TEST(ObserverSteadyState, PerLayerOutputCaptureIsHeapFree) {
  Pcg32 rng(41);
  Graph qm = quantized_conv_stack(&rng, 42);
  BuiltinOpResolver opt;
  Model model(&qm, &opt, /*num_threads=*/2);
  Session session(&model);
  MonitorOptions opts;
  opts.per_layer_outputs = true;
  opts.retain_frames = false;
  EdgeMLMonitor monitor(opts);
  monitor.observe(session);
  Pcg32 drng(43);
  Tensor input = random_input(Shape{1, 16, 16, 8}, drng);
  for (int i = 0; i < 3; ++i) run_frame(monitor, session, input);

  const std::uint64_t heap_before = g_heap_allocs.load();
  for (int i = 0; i < 5; ++i) run_frame(monitor, session, input);
  EXPECT_EQ(g_heap_allocs.load(), heap_before);
  EXPECT_GT(monitor.buffer().frame_capture_bytes(), 0u);
  monitor.unobserve(session);
}

// Digest mode (the fleet-monitoring capture): per-layer sketches are
// fixed-size inline storage, reset and refilled in place, so the whole
// monitored frame loop stays heap-free — the contract that makes digests
// cheap enough to leave enabled in serving.
TEST(ObserverSteadyState, DigestCaptureIsHeapFree) {
  Pcg32 rng(45);
  Graph m = conv_stack_graph(&rng);
  BuiltinOpResolver opt;
  Model model(&m, &opt, /*num_threads=*/2);
  Session session(&model);
  MonitorOptions opts;
  opts.per_layer_digests = true;
  opts.retain_frames = false;
  EdgeMLMonitor monitor(opts);
  monitor.observe(session);
  Pcg32 drng(46);
  Tensor input = random_input(Shape{1, 16, 16, 8}, drng);
  for (int i = 0; i < 3; ++i) run_frame(monitor, session, input);

  const std::uint64_t events_before = AllocStats::instance().alloc_events();
  const std::uint64_t heap_before = g_heap_allocs.load();
  for (int i = 0; i < 5; ++i) run_frame(monitor, session, input);
  EXPECT_EQ(AllocStats::instance().alloc_events(), events_before)
      << "digest frame loop registered tensor/arena allocations";
  EXPECT_EQ(g_heap_allocs.load(), heap_before)
      << "digest capture touched the heap (operator new)";
  EXPECT_EQ(monitor.buffer().frames_captured(), 8);
  // Digest frames still account their (fixed) capture cost.
  EXPECT_GT(monitor.buffer().frame_capture_bytes(), 0u);
  monitor.unobserve(session);
}

// The int8 histogram path is heap-free too (quantized fleet deployments).
TEST(ObserverSteadyState, QuantizedDigestCaptureIsHeapFree) {
  Pcg32 rng(47);
  Graph qm = quantized_conv_stack(&rng, 48);
  BuiltinOpResolver opt;
  Model model(&qm, &opt, /*num_threads=*/2);
  Session session(&model);
  MonitorOptions opts;
  opts.per_layer_digests = true;
  opts.retain_frames = false;
  EdgeMLMonitor monitor(opts);
  monitor.observe(session);
  Pcg32 drng(49);
  Tensor input = random_input(Shape{1, 16, 16, 8}, drng);
  for (int i = 0; i < 3; ++i) run_frame(monitor, session, input);

  const std::uint64_t heap_before = g_heap_allocs.load();
  for (int i = 0; i < 5; ++i) run_frame(monitor, session, input);
  EXPECT_EQ(g_heap_allocs.load(), heap_before)
      << "quantized digest capture touched the heap";
  monitor.unobserve(session);
}

// In retain mode the frame conversion allocates (it builds FrameTrace maps),
// but the invoke window itself must stay heap-free.
TEST(ObserverSteadyState, RetainModeInvokeWindowIsHeapFree) {
  Pcg32 rng(51);
  Graph m = conv_stack_graph(&rng);
  BuiltinOpResolver opt;
  Model model(&m, &opt, /*num_threads=*/2);
  Session session(&model);
  MonitorOptions opts;
  opts.per_layer_outputs = true;
  EdgeMLMonitor monitor(opts);
  monitor.observe(session);
  Pcg32 drng(52);
  Tensor input = random_input(Shape{1, 16, 16, 8}, drng);
  for (int i = 0; i < 3; ++i) run_frame(monitor, session, input);

  for (int i = 0; i < 3; ++i) {
    session.set_input(0, input);
    const std::uint64_t heap_before = g_heap_allocs.load();
    monitor.on_inf_start();
    session.invoke();  // push capture happens in here
    EXPECT_EQ(g_heap_allocs.load(), heap_before)
        << "instrumented invoke allocated on frame " << i;
    monitor.on_inf_stop(session);
    monitor.next_frame();
  }
  monitor.unobserve(session);
}

TEST(ObserverDoubleBuffer, BuffersAlternateAndAreReused) {
  Pcg32 rng(61);
  Graph m = conv_stack_graph(&rng);
  BuiltinOpResolver opt;
  Model model(&m, &opt);
  Session session(&model);
  MonitorOptions opts;
  opts.per_layer_outputs = true;
  opts.retain_frames = false;
  EdgeMLMonitor monitor(opts);
  monitor.observe(session);
  Pcg32 drng(62);
  Tensor input = random_input(Shape{1, 16, 16, 8}, drng);

  int last = monitor.buffer().active_buffer();
  // Frames 1-2 warm both buffers; frames 3+ must reuse them allocation-free
  // while still alternating.
  for (int frame = 0; frame < 2; ++frame) {
    run_frame(monitor, session, input);
    EXPECT_NE(monitor.buffer().active_buffer(), last);
    last = monitor.buffer().active_buffer();
  }
  const std::uint64_t heap_before = g_heap_allocs.load();
  for (int frame = 0; frame < 4; ++frame) {
    run_frame(monitor, session, input);
    EXPECT_NE(monitor.buffer().active_buffer(), last)
        << "double buffer did not flip on frame " << frame;
    last = monitor.buffer().active_buffer();
  }
  EXPECT_EQ(g_heap_allocs.load(), heap_before)
      << "buffer reuse across >= 3 frames allocated";
  monitor.unobserve(session);
}

TEST(ObserverSpool, SpooledTraceMatchesRetainedTrace) {
  const auto path =
      std::filesystem::temp_directory_path() / "mlx_observer_spool.mlxtrace";
  Pcg32 rng_a(71), rng_b(71);  // identical weights
  Graph ma = conv_stack_graph(&rng_a);
  Graph mb = conv_stack_graph(&rng_b);
  BuiltinOpResolver opt;
  MonitorOptions opts;
  opts.per_layer_outputs = true;
  Pcg32 drng(72);
  std::vector<Tensor> inputs;
  for (int i = 0; i < 3; ++i) {
    inputs.push_back(random_input(Shape{1, 16, 16, 8}, drng));
  }

  // Spooled run.
  {
    Model model(&ma, &opt);
    Session session(&model);
    EdgeMLMonitor monitor(opts);
    monitor.set_pipeline_name("spooled");
    monitor.spool_to(path);
    monitor.observe(session);
    for (const Tensor& in : inputs) run_frame(monitor, session, in);
    EXPECT_EQ(monitor.finish_spool(), 3u);
    // Spool mode retains nothing in memory.
    EXPECT_TRUE(monitor.trace().frames.empty());
    monitor.unobserve(session);
  }
  // Retained run over the same model/inputs.
  Model model(&mb, &opt);
  Session session(&model);
  EdgeMLMonitor monitor(opts);
  monitor.set_pipeline_name("retained");
  monitor.observe(session);
  for (const Tensor& in : inputs) run_frame(monitor, session, in);
  Trace retained = monitor.take_trace();
  monitor.unobserve(session);

  Trace spooled = load_trace(path);
  std::filesystem::remove(path);
  EXPECT_EQ(spooled.pipeline_name, "spooled");
  ASSERT_EQ(spooled.frames.size(), retained.frames.size());
  for (std::size_t f = 0; f < spooled.frames.size(); ++f) {
    const FrameTrace& s = spooled.frames[f];
    const FrameTrace& r = retained.frames[f];
    EXPECT_EQ(s.frame_id, r.frame_id);
    EXPECT_EQ(s.layer_names, r.layer_names);
    ASSERT_EQ(s.layer_outputs.size(), r.layer_outputs.size());
    for (std::size_t i = 0; i < s.layer_outputs.size(); ++i) {
      EXPECT_TRUE(same_bytes(s.layer_outputs[i], r.layer_outputs[i]))
          << "frame " << f << " layer " << s.layer_names[i];
    }
    ASSERT_TRUE(s.has_tensor(trace_keys::kModelOutput));
    EXPECT_TRUE(same_bytes(s.tensor(trace_keys::kModelOutput),
                           r.tensor(trace_keys::kModelOutput)));
  }
}

TEST(ObserverLifetime, MonitorDetachesOnDestruction) {
  Pcg32 rng(91);
  Graph m = conv_stack_graph(&rng);
  BuiltinOpResolver opt;
  Model model(&m, &opt);
  Session session(&model);
  {
    EdgeMLMonitor monitor;
    monitor.observe(session);
    EXPECT_NE(session.observer(), nullptr);
  }
  EXPECT_EQ(session.observer(), nullptr);
  Pcg32 drng(92);
  session.set_input(0, random_input(Shape{1, 16, 16, 8}, drng));
  EXPECT_NO_THROW(session.invoke());
}

TEST(ObserverLifetime, DyingMonitorDoesNotDetachItsSuccessor) {
  Pcg32 rng(95);
  Graph m = conv_stack_graph(&rng);
  BuiltinOpResolver opt;
  Model model(&m, &opt);
  Session session(&model);
  EdgeMLMonitor second;
  {
    EdgeMLMonitor first;
    first.observe(session);
    second.observe(session);  // takes over the observer slot
    // first's destructor must leave second's buffer attached.
  }
  EXPECT_EQ(session.observer(), &second.buffer());
  second.unobserve(session);
}

// Capture is push-only: on_inf_stop with a session the monitor did not
// capture fails loudly instead of re-reading that session's activations, and
// the observed session keeps its observer and binding.
TEST(ObserverContract, StopOnUncapturedSessionThrows) {
  Pcg32 rng_a(96), rng_b(97);
  Graph ga = conv_stack_graph(&rng_a);
  GraphBuilder b("other", &rng_b);
  int x = b.input(Shape{1, 8, 8, 4});
  int fc = b.fully_connected(x, 6, Activation::kNone, "fc");
  Graph gb = b.finish({fc});  // different step count than ga
  BuiltinOpResolver opt;
  Model model_a(&ga, &opt);
  Model model_b(&gb, &opt);
  Session session_a(&model_a);
  Session session_b(&model_b);
  MonitorOptions opts;
  opts.per_layer_outputs = true;
  EdgeMLMonitor monitor(opts);
  monitor.observe(session_a);
  Pcg32 drng(98);
  session_b.set_input(0, random_input(Shape{1, 8, 8, 4}, drng));
  session_b.invoke();
  try {
    monitor.on_inf_stop(session_b);
    ADD_FAILURE() << "on_inf_stop accepted a session it did not capture";
  } catch (const MlxError& e) {
    EXPECT_NE(std::string(e.what()).find("observe()"), std::string::npos)
        << e.what();
  }
  EdgeMLMonitor never_observed;
  EXPECT_THROW(never_observed.on_inf_stop(session_b), MlxError);

  EXPECT_EQ(session_a.observer(), &monitor.buffer());
  EXPECT_TRUE(monitor.buffer().bound_to(session_a));
  run_frame(monitor, session_a, random_input(Shape{1, 16, 16, 8}, drng));
  ASSERT_EQ(monitor.trace().frames.size(), 1u);
  const FrameTrace& f = monitor.trace().frames[0];
  EXPECT_EQ(f.layer_names.size(), session_a.plan().step_count());
  EXPECT_EQ(f.layer_outputs.size(), session_a.plan().step_count());
  monitor.unobserve(session_a);
}

// A frame without on_inf_start keeps the captured invoke time as its
// inference latency instead of timing from an earlier frame's start.
TEST(ObserverLatency, UnbracketedFrameLogsInvokeTime) {
  Pcg32 rng(99);
  Graph g = conv_stack_graph(&rng);
  BuiltinOpResolver opt;
  Model model(&g, &opt);
  Session session(&model);
  EdgeMLMonitor monitor;
  monitor.observe(session);
  Pcg32 drng(100);
  Tensor input = random_input(Shape{1, 16, 16, 8}, drng);
  run_frame(monitor, session, input);  // bracketed by on_inf_start
  session.set_input(0, input);
  session.invoke();
  monitor.on_inf_stop(session);
  monitor.next_frame();
  ASSERT_EQ(monitor.trace().frames.size(), 2u);
  EXPECT_DOUBLE_EQ(
      monitor.trace().frames[1].scalar(trace_keys::kInferenceLatencyMs),
      session.last_stats().total_ms);
  monitor.unobserve(session);
}

TEST(ObserverMultiOutput, ModelIoCapturesEveryOutputHead) {
  // A two-headed graph (the SSD box + class head shape of the problem):
  // model-io capture must log one tensor per output, not just output(0).
  Pcg32 rng(201);
  GraphBuilder b("two_head", &rng);
  int x = b.input(Shape{1, 8, 8, 4});
  int c = b.conv2d(x, 8, 3, 3, 1, Padding::kSame, Activation::kRelu, "c");
  int head_a = b.fully_connected(c, 10, Activation::kNone, "head_a");
  int head_b = b.fully_connected(c, 4, Activation::kNone, "head_b");
  Graph m = b.finish({head_a, head_b});
  BuiltinOpResolver opt;
  Model model(&m, &opt);
  Session session(&model);
  EdgeMLMonitor monitor;
  monitor.observe(session);
  Pcg32 drng(202);
  run_frame(monitor, session, random_input(Shape{1, 8, 8, 4}, drng));

  const Trace& trace = monitor.trace();
  ASSERT_EQ(trace.frames.size(), 1u);
  const FrameTrace& f = trace.frames[0];
  ASSERT_TRUE(f.has_tensor(trace_keys::kModelOutput));
  ASSERT_TRUE(f.has_tensor(trace_keys::model_output_key(1)))
      << "second output head was not captured";
  EXPECT_FALSE(f.has_tensor(trace_keys::model_output_key(2)));
  for (int i = 0; i < 2; ++i) {
    const Tensor& captured = f.tensor(trace_keys::model_output_key(i));
    const Tensor& retained = session.output(i);
    EXPECT_TRUE(same_bytes(captured, retained)) << "output " << i;
  }
  monitor.unobserve(session);
}

TEST(ObserverMultiOutput, MultiOutputCaptureIsHeapFreeInSteadyState) {
  Pcg32 rng(211);
  GraphBuilder b("two_head", &rng);
  int x = b.input(Shape{1, 8, 8, 4});
  int c = b.conv2d(x, 8, 3, 3, 1, Padding::kSame, Activation::kRelu, "c");
  int head_a = b.fully_connected(c, 10, Activation::kNone, "head_a");
  int head_b = b.fully_connected(c, 4, Activation::kNone, "head_b");
  Graph m = b.finish({head_a, head_b});
  BuiltinOpResolver opt;
  Model model(&m, &opt);
  Session session(&model);
  MonitorOptions opts;
  opts.retain_frames = false;
  EdgeMLMonitor monitor(opts);
  monitor.observe(session);
  Pcg32 drng(212);
  Tensor input = random_input(Shape{1, 8, 8, 4}, drng);
  // Warm both ring buffers.
  for (int i = 0; i < 3; ++i) run_frame(monitor, session, input);
  const std::uint64_t heap_before = g_heap_allocs.load();
  for (int i = 0; i < 4; ++i) run_frame(monitor, session, input);
  EXPECT_EQ(g_heap_allocs.load(), heap_before)
      << "steady-state multi-output capture allocated";
  monitor.unobserve(session);
}

TEST(ObserverSpool, BatchedSpoolRoundTripsManyFrames) {
  // The bounded frame queue: a ring deeper than two buffers feeds the spool
  // worker, which drains every queued frame per wakeup into a single write.
  // Whatever batching the scheduler produced, the file must round-trip all
  // frames in order with the header count patched at close.
  const auto path = std::filesystem::temp_directory_path() /
                    "mlx_observer_spool_batched.mlxtrace";
  constexpr int kFrames = 12;
  Pcg32 rng_a(221), rng_b(221);  // identical weights
  Graph ma = conv_stack_graph(&rng_a);
  Graph mb = conv_stack_graph(&rng_b);
  BuiltinOpResolver opt;
  MonitorOptions opts;
  opts.per_layer_outputs = true;
  Pcg32 drng(222);
  std::vector<Tensor> inputs;
  for (int i = 0; i < kFrames; ++i) {
    inputs.push_back(random_input(Shape{1, 16, 16, 8}, drng));
  }

  std::size_t max_batch = 0;
  {
    Model model(&ma, &opt);
    Session session(&model);
    EdgeMLMonitor monitor(opts);
    monitor.set_pipeline_name("batched");
    monitor.spool_to(path);
    EXPECT_EQ(monitor.buffer().buffer_count(), 4);
    monitor.observe(session);
    for (const Tensor& in : inputs) run_frame(monitor, session, in);
    EXPECT_EQ(monitor.finish_spool(), static_cast<std::size_t>(kFrames));
    max_batch = monitor.buffer().max_spool_batch();
    monitor.unobserve(session);
  }
  EXPECT_GE(max_batch, 1u);
  EXPECT_LE(max_batch, 4u) << "batch exceeded the ring size";

  // Retained reference run over the same weights/inputs.
  Model model(&mb, &opt);
  Session session(&model);
  EdgeMLMonitor monitor(opts);
  monitor.observe(session);
  for (const Tensor& in : inputs) run_frame(monitor, session, in);
  Trace retained = monitor.take_trace();
  monitor.unobserve(session);

  Trace spooled = load_trace(path);
  std::filesystem::remove(path);
  ASSERT_EQ(spooled.frames.size(), static_cast<std::size_t>(kFrames));
  for (std::size_t f = 0; f < spooled.frames.size(); ++f) {
    const FrameTrace& s = spooled.frames[f];
    const FrameTrace& r = retained.frames[f];
    EXPECT_EQ(s.frame_id, r.frame_id);
    ASSERT_EQ(s.layer_outputs.size(), r.layer_outputs.size());
    for (std::size_t i = 0; i < s.layer_outputs.size(); ++i) {
      EXPECT_TRUE(same_bytes(s.layer_outputs[i], r.layer_outputs[i]))
          << "frame " << f << " layer " << i;
    }
    EXPECT_EQ(s.tensor(trace_keys::kModelOutput).byte_size(),
              r.tensor(trace_keys::kModelOutput).byte_size());
  }
}

TEST(ObserverSpool, DigestFramesSpoolDurablyThroughTheBatchPath) {
  // Digest frames ride the same one-write-per-wakeup batching as raw frames;
  // spooled_digest_frames() counts the durably-written ones, and the file
  // round-trips every digest (trace format v2).
  const auto path = std::filesystem::temp_directory_path() /
                    "mlx_observer_spool_digest.mlxtrace";
  constexpr int kFrames = 10;
  Pcg32 rng_a(241), rng_b(241);  // identical weights
  Graph ma = conv_stack_graph(&rng_a);
  Graph mb = conv_stack_graph(&rng_b);
  BuiltinOpResolver opt;
  MonitorOptions opts;
  opts.per_layer_digests = true;
  Pcg32 drng(242);
  std::vector<Tensor> inputs;
  for (int i = 0; i < kFrames; ++i) {
    inputs.push_back(random_input(Shape{1, 16, 16, 8}, drng));
  }

  {
    Model model(&ma, &opt);
    Session session(&model);
    EdgeMLMonitor monitor(opts);
    monitor.set_pipeline_name("digest-spool");
    monitor.spool_to(path);
    monitor.observe(session);
    EXPECT_EQ(monitor.buffer().spooled_digest_frames(), 0u);
    for (const Tensor& in : inputs) run_frame(monitor, session, in);
    EXPECT_EQ(monitor.finish_spool(), static_cast<std::size_t>(kFrames));
    EXPECT_EQ(monitor.buffer().spooled_digest_frames(),
              static_cast<std::size_t>(kFrames));
    monitor.unobserve(session);
  }

  // Retained reference run over the same weights/inputs.
  Model model(&mb, &opt);
  Session session(&model);
  EdgeMLMonitor monitor(opts);
  monitor.observe(session);
  for (const Tensor& in : inputs) run_frame(monitor, session, in);
  Trace retained = monitor.take_trace();
  monitor.unobserve(session);

  Trace spooled = load_trace(path);
  std::filesystem::remove(path);
  EXPECT_EQ(spooled.pipeline_name, "digest-spool");
  ASSERT_EQ(spooled.frames.size(), static_cast<std::size_t>(kFrames));
  for (std::size_t f = 0; f < spooled.frames.size(); ++f) {
    const FrameTrace& s = spooled.frames[f];
    const FrameTrace& r = retained.frames[f];
    EXPECT_EQ(s.layer_names, r.layer_names);
    EXPECT_TRUE(s.layer_outputs.empty());
    ASSERT_EQ(s.layer_digests.size(), r.layer_digests.size());
    for (std::size_t i = 0; i < s.layer_digests.size(); ++i) {
      EXPECT_EQ(s.layer_digests[i].count, r.layer_digests[i].count);
      EXPECT_DOUBLE_EQ(s.layer_digests[i].mean(), r.layer_digests[i].mean());
      EXPECT_DOUBLE_EQ(s.layer_digests[i].quantile(0.5),
                       r.layer_digests[i].quantile(0.5))
          << "frame " << f << " layer " << s.layer_names[i];
    }
  }
}

TEST(ObserverSessions, TwoSessionsOneModelIndependentObservers) {
  // Observers are per-session state: two sessions over one shared Model
  // capture independently.
  Pcg32 rng(231);
  Graph graph = conv_stack_graph(&rng);
  BuiltinOpResolver opt;
  Model model(&graph, &opt);
  Session sa(&model);
  Session sb(&model);

  MonitorOptions opts;
  opts.per_layer_outputs = true;
  EdgeMLMonitor mon_a(opts);
  EdgeMLMonitor mon_b(opts);
  mon_a.observe(sa);
  mon_b.observe(sb);

  Pcg32 drng(232);
  Tensor xa = random_input(Shape{1, 16, 16, 8}, drng);
  Tensor xb = random_input(Shape{1, 16, 16, 8}, drng);
  sa.set_input(0, xa);
  sb.set_input(0, xb);
  mon_a.on_inf_start();
  sa.invoke();
  mon_a.on_inf_stop(sa);
  mon_a.next_frame();
  mon_b.on_inf_start();
  sb.invoke();
  mon_b.on_inf_stop(sb);
  mon_b.next_frame();

  const FrameTrace& fa = mon_a.trace().frames.at(0);
  const FrameTrace& fb = mon_b.trace().frames.at(0);
  const Tensor& out_a = fa.tensor(trace_keys::kModelOutput);
  const Tensor& out_b = fb.tensor(trace_keys::kModelOutput);
  EXPECT_TRUE(same_bytes(out_a, sa.output(0)));
  EXPECT_TRUE(same_bytes(out_b, sb.output(0)));
  // Different inputs -> the two captures must differ (observers did not
  // cross wires).
  EXPECT_FALSE(same_bytes(out_a, out_b));
  mon_a.unobserve(sa);
  mon_b.unobserve(sb);
}

TEST(TraceBufferKeys, InterningIsStable) {
  TraceBuffer buffer;
  const std::uint16_t a = buffer.intern_key("custom.key");
  const std::uint16_t b = buffer.intern_key("custom.key");
  EXPECT_EQ(a, b);
  EXPECT_EQ(buffer.key_name(a), "custom.key");
  const std::uint16_t latency = buffer.intern_key(trace_keys::kInferenceLatencyMs);
  EXPECT_NE(a, latency);
}

}  // namespace
}  // namespace mlexray
