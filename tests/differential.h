// The differential runner: the one place a test runs two sessions of a cell
// on the same inputs and compares them layer by layer (the paper's §3.4
// method, applied to the runtime itself). Each side captures every layer of
// every frame through the product's own capture path, an EdgeMLMonitor with
// per_layer_outputs, so either side may be a lean session.
//
// A cell is a deployed graph and the frames it serves. A side is how one
// session runs it: resolver, thread cap, retention, scalar or vector path.
// The axes turn one knob of a base side and demand the same layers:
//  - resolver: the reference kernels against the optimized ones;
//  - thread cap: t2 and t4 against t1, on a shared pool;
//  - retention: a lean session, first warmed on another frame, against a
//    kPreserveAll session at the same cap;
//  - batch row: each row of a batch-b run against its batch-1 twin;
//  - scalar path: force_scalar_kernels_for_testing against the vector path.
// One rule decides "the same": equal dtype, size and bytes. The single
// exception is f32 opt-vs-ref on the kernel grid's single-op cells, where
// the caller passes a ULP bound (FMA contraction may round the two compiled
// loops differently).
//
// Includes tests/heap_counter.h for the steady-state check, so include this
// from exactly one translation unit of a test binary.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/core/monitor.h"
#include "src/core/validation.h"
#include "src/interpreter/session.h"
#include "src/kernels/kernel.h"
#include "src/tensor/alloc_stats.h"
#include "tests/heap_counter.h"
#include "tests/test_util.h"

namespace mlexray {

// --- f32 distance ------------------------------------------------------------

// Lexicographically ordered bit pattern of a float: adjacent representable
// floats differ by 1, so |a - b| counts ULPs across the value range.
inline std::int64_t float_lex_bits(float f) {
  std::int32_t bits = 0;
  std::memcpy(&bits, &f, sizeof(bits));
  return bits >= 0 ? bits
                   : static_cast<std::int64_t>(
                         std::numeric_limits<std::int32_t>::min()) -
                         bits;
}

// The largest ULP distance between paired elements (a length mismatch
// counts as unbounded).
inline std::int64_t max_ulp_diff(std::span<const float> a,
                                 std::span<const float> b) {
  if (a.size() != b.size()) return std::numeric_limits<std::int64_t>::max();
  std::int64_t worst = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst,
                     std::abs(float_lex_bits(a[i]) - float_lex_bits(b[i])));
  }
  return worst;
}

// --- cells -------------------------------------------------------------------

using Frame = std::vector<Tensor>;  // one tensor per graph input

struct Cell {
  std::string name;
  Graph graph;
  std::vector<Frame> frames;
};

// GraphBuilder gives every Conv2D, DepthwiseConv2D and FullyConnected a zero
// bias, and untrained BatchNorm folds to zero, so a kernel that dropped or
// reordered its bias would pass every comparison. This draws each bias from
// uniform [-0.5, 0.5] in node order: graphs with the same nodes (a batch-b
// graph and its batch-1 twin) get the same biases from the same seed. Call
// it on the deployed f32 graph, before calibration.
inline void draw_biases(Graph& graph, std::uint64_t seed) {
  Pcg32 rng(seed);
  for (Node& n : graph.nodes) {
    if (n.type != OpType::kConv2D && n.type != OpType::kDepthwiseConv2D &&
        n.type != OpType::kFullyConnected) {
      continue;
    }
    Tensor& bias = n.weights.at(1);
    for (std::int64_t i = 0; i < bias.num_elements(); ++i) {
      bias.data<float>()[i] = rng.uniform(-0.5f, 0.5f);
    }
  }
}

// Row r of a tensor whose leading dimension is `rows`, as a one-row tensor
// with the same dtype and quantization.
inline Tensor row_of(const Tensor& t, std::int64_t r, std::int64_t rows) {
  Shape shape = t.shape();
  MLX_CHECK_EQ(shape.dim(0), rows);
  shape.set_dim(0, 1);
  Tensor out(t.dtype(), shape);
  out.quant() = t.quant();
  const std::size_t bytes = out.byte_size();
  std::memcpy(out.raw_data(),
              static_cast<const std::uint8_t*>(t.raw_data()) +
                  static_cast<std::size_t>(r) * bytes,
              bytes);
  return out;
}

// The batch-1 frames that feed a batch-`rows` cell's frames row by row.
inline std::vector<Frame> rows_of(const std::vector<Frame>& frames,
                                  std::int64_t rows) {
  std::vector<Frame> out;
  for (const Frame& frame : frames) {
    for (std::int64_t r = 0; r < rows; ++r) {
      Frame one;
      for (const Tensor& t : frame) one.push_back(row_of(t, r, rows));
      out.push_back(std::move(one));
    }
  }
  return out;
}

// --- sides and runs ----------------------------------------------------------

struct Side {
  const OpResolver* resolver = nullptr;
  int threads = 1;
  ThreadPool* pool = nullptr;  // shared; null gives the model its own
  Retention retention = Retention::kLean;
  bool scalar = false;  // force_scalar_kernels_for_testing while it runs
};

// Sets force_scalar_kernels_for_testing for one scope, and clears it even
// when the scope throws.
class ScalarScope {
 public:
  explicit ScalarScope(bool on) { force_scalar_kernels_for_testing = on; }
  ~ScalarScope() { force_scalar_kernels_for_testing = false; }
  ScalarScope(const ScalarScope&) = delete;
  ScalarScope& operator=(const ScalarScope&) = delete;
};

// One side's session of a cell and the trace of every frame it served.
struct Capture {
  Side side;
  std::unique_ptr<Model> model;
  std::unique_ptr<Session> session;
  Trace trace;
};

// Builds the side's model and session and serves every frame of the cell,
// capturing each layer as the step runs. A lean side first serves the last
// frame uncaptured, so every captured frame reuses bytes another input left.
inline Capture capture(const Graph& graph, const std::vector<Frame>& frames,
                       const Side& side) {
  MLX_CHECK(!frames.empty());
  const ScalarScope scalar(side.scalar);
  Capture r{side, nullptr, nullptr, {}};
  r.model = side.pool ? std::make_unique<Model>(Graph(graph), side.resolver,
                                                side.pool, side.threads)
                      : std::make_unique<Model>(&graph, side.resolver,
                                                side.threads);
  r.session = std::make_unique<Session>(r.model.get(), side.retention);
  const auto serve = [&](const Frame& frame) {
    for (std::size_t i = 0; i < frame.size(); ++i) {
      r.session->set_input(static_cast<int>(i), frame[i]);
    }
  };
  if (side.retention == Retention::kLean) {
    serve(frames.back());
    r.session->invoke();
  }
  MonitorOptions options;
  options.per_layer_outputs = true;
  options.per_layer_latency = false;
  EdgeMLMonitor monitor(options);
  monitor.observe(*r.session);
  for (const Frame& frame : frames) {
    serve(frame);
    r.session->invoke();
    monitor.on_inf_stop(*r.session);
    monitor.next_frame();
  }
  monitor.unobserve(*r.session);
  r.trace = monitor.take_trace();
  return r;
}

inline Capture capture(const Cell& cell, const Side& side) {
  return capture(cell.graph, cell.frames, side);
}

// --- the comparison ----------------------------------------------------------

// The layers where `got` differs from `want`, frame by frame in plan order,
// each as "frame f: layer (why)", then the model outputs as the sessions
// served them after invoke. Tensors must match in bytes; with f32_ulps > 0,
// f32 ones may differ by up to that many ULPs per element.
inline std::vector<std::string> differing_layers(const Trace& want,
                                                 const Trace& got,
                                                 int f32_ulps = 0) {
  std::vector<std::string> differ;
  if (want.frames.size() != got.frames.size()) {
    differ.push_back("frame count " + std::to_string(want.frames.size()) +
                     " vs " + std::to_string(got.frames.size()));
    return differ;
  }
  for (std::size_t f = 0; f < want.frames.size(); ++f) {
    const FrameTrace& w = want.frames[f];
    const FrameTrace& g = got.frames[f];
    const std::string frame = "frame " + std::to_string(f) + ": ";
    const auto compare = [&](const std::string& name, const Tensor& a,
                             const Tensor& b) {
      if (f32_ulps > 0 && a.dtype() == DType::kF32 &&
          b.dtype() == DType::kF32) {
        const std::int64_t ulps = max_ulp_diff(
            {a.data<float>(), static_cast<std::size_t>(a.num_elements())},
            {b.data<float>(), static_cast<std::size_t>(b.num_elements())});
        if (ulps > f32_ulps) {
          differ.push_back(frame + name + " (" + std::to_string(ulps) +
                           " ULPs)");
        }
      } else if (const ::testing::AssertionResult same = same_bytes(a, b);
                 !same) {
        differ.push_back(frame + name + " (" + same.message() + ")");
      }
    };
    if (w.layer_names != g.layer_names || w.layer_names.empty() ||
        w.layer_outputs.size() != w.layer_names.size() ||
        g.layer_outputs.size() != g.layer_names.size() ||
        w.tensors.size() != g.tensors.size()) {
      differ.push_back(frame + "the captured layer lists differ");
      continue;
    }
    for (std::size_t l = 0; l < w.layer_names.size(); ++l) {
      compare(w.layer_names[l], w.layer_outputs[l], g.layer_outputs[l]);
    }
    for (const auto& [key, a] : w.tensors) {
      const auto b = g.tensors.find(key);
      if (b == g.tensors.end()) {
        differ.push_back(frame + key + " (not captured)");
      } else {
        compare(key, a, b->second);
      }
    }
  }
  return differ;
}

// Passes when no layer differs; otherwise names the differing layers.
inline ::testing::AssertionResult layers_agree(const Trace& want,
                                               const Trace& got,
                                               int f32_ulps = 0) {
  const std::vector<std::string> differ =
      differing_layers(want, got, f32_ulps);
  if (differ.empty()) return ::testing::AssertionSuccess();
  ::testing::AssertionResult failure = ::testing::AssertionFailure();
  failure << differ.size() << " layer output(s) differ, first";
  for (std::size_t i = 0; i < differ.size() && i < 4; ++i) {
    failure << (i ? "; " : " ") << differ[i];
  }
  return failure;
}

// --- the axes ----------------------------------------------------------------

// Resolver: the reference kernels, one thread, the base's retention.
inline Side reference_side(const Side& base, const OpResolver* ref) {
  Side side = base;
  side.resolver = ref;
  side.threads = 1;
  side.pool = nullptr;
  side.scalar = false;
  return side;
}

// Thread cap: the base side at `threads` on the shared `pool`.
inline Side capped_side(const Side& base, ThreadPool* pool, int threads) {
  Side side = base;
  side.pool = pool;
  side.threads = threads;
  return side;
}

// Retention: the base side as a lean session.
inline Side lean_side(const Side& base) {
  Side side = base;
  side.retention = Retention::kLean;
  return side;
}

// Scalar path: the base side with the kernels forced scalar.
inline Side scalar_side(const Side& base) {
  Side side = base;
  side.scalar = true;
  return side;
}

// Batch row: `batched`, a run of a batch-b cell's `frames`, against its
// batch-1 twin `single` (same weights and quantization) serving each row of
// each frame on the same side. Every layer of row r of frame f must match
// frame f * b + r of the twin.
inline ::testing::AssertionResult batch_rows_agree(
    const Capture& batched, const std::vector<Frame>& frames,
    const Graph& single) {
  const std::int64_t rows = frames.at(0).at(0).shape().dim(0);
  const Capture twin = capture(single, rows_of(frames, rows), batched.side);
  Trace split;
  for (const FrameTrace& frame : batched.trace.frames) {
    for (std::int64_t r = 0; r < rows; ++r) {
      FrameTrace one;
      one.layer_names = frame.layer_names;
      for (const Tensor& t : frame.layer_outputs) {
        one.layer_outputs.push_back(row_of(t, r, rows));
      }
      for (const auto& [key, t] : frame.tensors) {
        one.tensors.emplace(key, row_of(t, r, rows));
      }
      split.frames.push_back(std::move(one));
    }
  }
  return layers_agree(split, twin.trace);
}

// --- checks beside the axes --------------------------------------------------

// The product's verdict on a clean pair: per_layer_drift at L-inf threshold
// 0 compares every layer and names no suspect.
inline void expect_no_suspect(const Trace& edge, const Trace& reference,
                              const std::string& where) {
  ASSERT_FALSE(edge.frames.empty()) << where;
  const PerLayerReport report = DeploymentValidator().per_layer_drift(
      edge, reference, ErrorMetric::kLinf, 0.0);
  EXPECT_EQ(report.drifts.size(), edge.frames[0].layer_names.size())
      << where;
  EXPECT_FALSE(report.first_suspect.has_value())
      << where << ": per_layer_drift names "
      << report.first_suspect.value_or("");
}

// Every plan step whose kernel has a prepare hook holds the storage its hook
// filled (its invoke has no other path). Returns how many such steps exist.
inline int prepared_steps(const ExecutionPlan& plan,
                          const std::string& where) {
  int hooks = 0;
  for (const PlanStep& step : plan.steps()) {
    if (!step.kernel->prepare) continue;
    ++hooks;
    EXPECT_NE(step.prepared, nullptr) << where << ": " << step.node->name;
  }
  return hooks;
}

// Plan steps that fan out on the model's pool.
inline int pooled_steps(const ExecutionPlan& plan) {
  int pooled = 0;
  for (const PlanStep& step : plan.steps()) pooled += step.pool ? 1 : 0;
  return pooled;
}

// Steady state: once warm, invoke never touches the heap, registers no
// tensor or arena allocation and never grows the scratch arena.
inline void expect_steady_state_clean(Session& session,
                                      const std::string& where) {
  session.invoke();  // a warm-up may grow the scratch arena
  AllocStats& stats = AllocStats::instance();
  const std::uint64_t events = stats.alloc_events();
  const std::size_t bytes = stats.current_bytes();
  const std::uint64_t heap = g_heap_allocs.load();
  const std::size_t high_water = session.scratch_arena().high_water_bytes();
  for (int i = 0; i < 3; ++i) session.invoke();
  EXPECT_EQ(stats.alloc_events(), events)
      << where << ": steady-state invoke registered allocations";
  EXPECT_EQ(stats.current_bytes(), bytes) << where;
  EXPECT_EQ(g_heap_allocs.load(), heap)
      << where << ": steady-state invoke touched the heap";
  EXPECT_EQ(session.scratch_arena().high_water_bytes(), high_water)
      << where << ": steady-state invoke grew the scratch arena";
  EXPECT_EQ(session.last_stats().arena_high_water_bytes, high_water) << where;
}

}  // namespace mlexray
