// Exhaustive DepthwiseConv2D kernel-conformance grid.
//
// The vectorized dwconv family (src/kernels/dwconv.h) has a vector path
// (GNU vector extensions) and a scalar path, plus plan-time weight packing.
// This grid pins the whole family down so the two paths cannot silently
// diverge:
//
//  - geometry: stride {1, 2} x padding {Same, Valid} x depth_multiplier
//    {1, 2} x channels {1..4, 7, 8, 15, 16, 17, 24, 40, 64} (covering
//    sub-vector, exact-vector, and vector-tail channel counts for both the
//    16-lane int8 and 8-lane f32 blocks, and the int8 8-lane block that
//    follows a full 16-lane block) x batch {1, 4}, in f32 and int8 with
//    per-channel weight scales and asymmetric activation zero points;
//  - f32 cells assert *bit-exact* opt-vs-ref output (the vector path keeps
//    the reference kernel's per-channel accumulation order);
//  - int8 cells assert *bit-exact* opt-vs-ref output (both resolvers
//    accumulate exactly in int32 and requantize through the one Q31
//    fixed-point spec) and *bit-exact* agreement between the vector path
//    and the forced-scalar path;
//  - every cell asserts that each plan step whose kernel has a prepare hook
//    got prepared storage, and that steady-state invoke performs zero heap
//    allocations (global operator-new counter + AllocStats events);
//  - the largest stride-1 cells assert that the plan put their depthwise
//    step on the model's pool, so the grid keeps exercising the row
//    partitioning and the per-worker tap tables.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/graph/builder.h"
#include "src/interpreter/session.h"
#include "src/kernels/kernel.h"
#include "src/quant/quantizer.h"
#include "src/tensor/alloc_stats.h"
#include "tests/heap_counter.h"
#include "tests/test_util.h"

namespace mlexray {
namespace {

struct DwGridCase {
  int stride;
  Padding padding;
  int depth_mult;
  std::int64_t channels;
  std::int64_t batch;
  bool quantized;
  Activation act;

  friend std::ostream& operator<<(std::ostream& os, const DwGridCase& c) {
    return os << "s" << c.stride
              << (c.padding == Padding::kSame ? "/Same" : "/Valid") << "/dm"
              << c.depth_mult << "/ch" << c.channels << "/b" << c.batch
              << "/act" << static_cast<int>(c.act)
              << (c.quantized ? "/i8" : "/f32");
  }
};

std::vector<DwGridCase> make_grid() {
  // Channel counts straddle the vector widths: below, at, and one past both
  // the 8-lane f32 block and the 16-lane int8 block; 24 and 40 put the int8
  // 8-lane block after one and two full 16-lane blocks; 64 exercises the
  // steady vector loop.
  const std::int64_t channels[] = {1, 2, 3, 4, 7, 8, 15, 16, 17, 24, 40, 64};
  const Activation acts[] = {Activation::kNone, Activation::kRelu,
                             Activation::kRelu6};
  std::vector<DwGridCase> grid;
  int i = 0;
  for (int stride : {1, 2}) {
    for (Padding padding : {Padding::kSame, Padding::kValid}) {
      for (int dm : {1, 2}) {
        for (std::int64_t ch : channels) {
          for (std::int64_t batch : {1, 4}) {
            for (bool quantized : {false, true}) {
              // Cycle the fused activation so clamp ranges are covered
              // without tripling an already 384-cell grid.
              grid.push_back({stride, padding, dm, ch, batch, quantized,
                              acts[i++ % 3]});
            }
          }
        }
      }
    }
  }
  return grid;
}

class DwConvGrid : public ::testing::TestWithParam<DwGridCase> {
 protected:
  void TearDown() override { force_scalar_kernels_for_testing = false; }
};

// Invokes `session` on the forced-scalar path and asserts the result is
// byte-identical to `want` (the vector path's result).
void expect_scalar_bit_equal(Session& session, const std::vector<float>& want,
                             const DwGridCase& c) {
  force_scalar_kernels_for_testing = true;
  session.invoke();
  force_scalar_kernels_for_testing = false;
  const Tensor& out = session.output(0);
  ASSERT_EQ(static_cast<std::size_t>(out.num_elements()), want.size()) << c;
  EXPECT_EQ(std::memcmp(out.raw_data(), want.data(),
                        want.size() * sizeof(float)),
            0)
      << c << " diverges on the scalar path";
}

// Plan structure: exactly one step has a prepare hook — the op under test;
// Quantize/Dequantize have none — and it holds the storage its hook filled
// (its invoke has no other path).
void expect_prepared_steps(const Session& session, const DwGridCase& c) {
  int hooks = 0;
  for (const PlanStep& step : session.plan().steps()) {
    if (!step.kernel->prepare) continue;
    ++hooks;
    EXPECT_NE(step.prepared, nullptr) << c << ": " << step.node->name;
  }
  EXPECT_EQ(hooks, 1) << c;
}

// Steady-state contract: invoke never touches the heap and never registers
// tensor/arena allocations once the plan exists.
void expect_steady_state_clean(Session& session, const DwGridCase& c) {
  session.invoke();  // warmup may grow the scratch arena
  const std::uint64_t events_before = AllocStats::instance().alloc_events();
  const std::uint64_t heap_before = g_heap_allocs.load();
  const std::size_t high_water_before =
      session.scratch_arena().high_water_bytes();
  for (int i = 0; i < 3; ++i) session.invoke();
  EXPECT_EQ(AllocStats::instance().alloc_events(), events_before)
      << c << ": steady-state invoke registered allocations";
  EXPECT_EQ(g_heap_allocs.load(), heap_before)
      << c << ": steady-state invoke touched the heap";
  EXPECT_EQ(session.scratch_arena().high_water_bytes(), high_water_before)
      << c << ": steady-state invoke grew the scratch arena";
}

// The largest stride-1 cells clear the plan's fan-out threshold, so their
// depthwise step runs on the model's pool and the grid (TSan included)
// races the row partitioning and the per-worker tap tables.
void expect_large_cells_fan_out(const Session& session, const DwGridCase& c) {
  if (c.channels != 64 || c.batch != 4 || c.stride != 1) return;
  for (const PlanStep& step : session.plan().steps()) {
    if (step.node->type != OpType::kDepthwiseConv2D) continue;
    EXPECT_TRUE(step.pool) << c << ": depthwise step runs inline";
    EXPECT_EQ(step.pool.get(), session.model().pool().get()) << c;
  }
}

TEST_P(DwConvGrid, OptMatchesRefAcrossTiers) {
  const DwGridCase& c = GetParam();
  Pcg32 rng(4242);
  GraphBuilder b("dwgrid", &rng);
  const Shape in_shape{c.batch, 9, 9, c.channels};
  int x = b.input(in_shape);
  b.depthwise_conv2d(x, 3, 3, c.stride, c.padding, c.act, "op",
                     c.depth_mult);
  Graph m = b.finish({1});

  Pcg32 drng(99);
  Tensor input = random_input(in_shape, drng);

  RefOpResolver ref;
  BuiltinOpResolver opt;
  if (!c.quantized) {
    Model ref_model(&m, &ref);
    Session ri(&ref_model);
    Model opt_model(&m, &opt, /*num_threads=*/2);
    Session oi(&opt_model);
    // f32 filters are panel-shaped as stored: no prepare hook, no storage.
    EXPECT_EQ(oi.plan().prepared_bytes(), 0u) << c;
    expect_large_cells_fan_out(oi, c);
    ri.set_input(0, input);
    oi.set_input(0, input);
    ri.invoke();
    oi.invoke();
    // Vector lanes run the reference accumulation order per channel, so
    // float output must match to the bit — any geometry, ordering, or
    // contraction divergence fails loudly.
    EXPECT_TRUE(outputs_bit_equal(ri.output(0), oi.output(0))) << c;
    expect_scalar_bit_equal(oi, snapshot(oi.output(0)), c);
    expect_steady_state_clean(oi, c);
  } else {
    Calibrator calib(&m);
    Pcg32 crng(7);
    for (int i = 0; i < 5; ++i) {
      calib.observe({random_input(in_shape, crng)});
    }
    calib.observe({input});
    // Default quantizer options: per-channel weight scales (axis 3 for
    // depthwise), asymmetric activation zero points.
    Graph qm = quantize_model(m, calib);
    Model ref_model(&qm, &ref);
    Session ri(&ref_model);
    Model opt_model(&qm, &opt, /*num_threads=*/2);
    Session oi(&opt_model);
    expect_prepared_steps(oi, c);
    expect_large_cells_fan_out(oi, c);
    ri.set_input(0, input);
    oi.set_input(0, input);
    ri.invoke();
    oi.invoke();
    // One integer arithmetic on both resolvers: the same bytes.
    EXPECT_TRUE(outputs_bit_equal(ri.output(0), oi.output(0))) << c;
    // The conformance core: the vector path and the scalar reference path
    // produce bit-identical integer output.
    expect_scalar_bit_equal(oi, snapshot(oi.output(0)), c);
    expect_steady_state_clean(oi, c);
  }
}

INSTANTIATE_TEST_SUITE_P(StridePadDepthChannelsBatchDtype, DwConvGrid,
                         ::testing::ValuesIn(make_grid()));

}  // namespace
}  // namespace mlexray
