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
//    per-channel weight scales, asymmetric activation zero points and
//    seeded nonzero biases;
//  - on the differential runner (tests/differential.h), every cell holds
//    byte for byte on the resolver axis (f32: the vector path keeps the
//    reference kernel's per-channel accumulation order; int8: both
//    resolvers accumulate exactly in int32 and requantize through the one
//    Q31 fixed-point spec) and on the scalar-path axis;
//  - every cell asserts that each plan step whose kernel has a prepare hook
//    got prepared storage (int8 only: f32 filters are used as stored), and
//    that steady-state invoke performs zero heap allocations;
//  - the largest stride-1 cells assert that the plan put their depthwise
//    step on the model's pool, so the grid keeps exercising the row
//    partitioning and the per-worker tap tables.
#include <gtest/gtest.h>

#include <vector>

#include "src/graph/builder.h"
#include "src/quant/quantizer.h"
#include "tests/differential.h"

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

class DwConvGrid : public ::testing::TestWithParam<DwGridCase> {};

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
  const std::string where = ::testing::PrintToString(c);
  Pcg32 rng(4242);
  GraphBuilder b("dwgrid", &rng);
  const Shape in_shape{c.batch, 9, 9, c.channels};
  int x = b.input(in_shape);
  b.depthwise_conv2d(x, 3, 3, c.stride, c.padding, c.act, "op",
                     c.depth_mult);
  Graph m = b.finish({1});
  draw_biases(m, 4243);

  Pcg32 drng(99);
  Tensor input = random_input(in_shape, drng);
  Cell cell{where, m, {{input}}};
  if (c.quantized) {
    Calibrator calib(&m);
    Pcg32 crng(7);
    for (int i = 0; i < 5; ++i) {
      calib.observe({random_input(in_shape, crng)});
    }
    calib.observe({input});
    // Default quantizer options: per-channel weight scales (axis 3 for
    // depthwise), asymmetric activation zero points.
    cell.graph = quantize_model(m, calib);
  }

  RefOpResolver ref;
  BuiltinOpResolver opt;
  const Capture oi = capture(cell, {&opt, 2});
  // int8: exactly one step has a prepare hook, the op under test
  // (Quantize/Dequantize have none). f32 filters are panel-shaped as
  // stored: no hook, no storage.
  EXPECT_EQ(prepared_steps(oi.model->plan(), where), c.quantized ? 1 : 0)
      << where;
  expect_large_cells_fan_out(*oi.session, c);
  EXPECT_TRUE(
      layers_agree(capture(cell, reference_side(oi.side, &ref)).trace,
                   oi.trace))
      << where << ": resolver";
  EXPECT_TRUE(layers_agree(oi.trace, capture(cell, scalar_side(oi.side)).trace))
      << where << ": scalar path";
  expect_steady_state_clean(*oi.session, where);
}

INSTANTIATE_TEST_SUITE_P(StridePadDepthChannelsBatchDtype, DwConvGrid,
                         ::testing::ValuesIn(make_grid()));

}  // namespace
}  // namespace mlexray
