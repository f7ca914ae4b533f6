// Conformance grids for the optimized elementwise kernels: the int8
// elementwise/reduction family on its vector and forced-scalar paths, and
// the f32 Add/Sub.
//
// The vectorized int8 family (src/kernels/elementwise.h) has a vector path
// (GNU vector extensions) and a scalar path, plus plan-time Q31 requant prep
// and LUT builds. Its grid pins the family down the same way
// tests/test_dwconv_grid.cc pins dwconv:
//
//  - ops: Add / Sub (same-shape and [N,1,1,C]-broadcast, with fused
//    activation cycling), Mul (same-shape and broadcast, the squeeze-excite
//    gate pattern), global Mean, and the LUT activations Logistic /
//    HardSwish / Tanh;
//  - geometry: channels {1, 3, 5, 8, 9, 16, 24, 64} straddling the 8-lane
//    int32 block (sub-vector, exact, one-past, multi-block) x batch {1, 2},
//    with per-case randomized asymmetric calibration ranges so scales and
//    zero points differ across operands and cells;
//  - on the differential runner (tests/differential.h), int8 cells hold
//    byte for byte on the resolver axis (both resolvers build the same
//    parameters and run the same per-element rules; the LUT activations
//    share one table builder) and on the scalar-path axis;
//  - every cell asserts that each plan step whose kernel has a prepare hook
//    got prepared storage, and that steady-state invoke performs zero heap
//    allocations.
//
// The f32 grid covers the optimized resolver's Add/Sub (8-lane spans
// finished by activate_v8): same-shape and [N,1,1,C]-broadcast, channels
// {1, 5, 8, 9, 24} around the 8-lane block, activation none/relu/relu6 on
// inputs in [-8, 8] so relu6 clamps at both ends. Each cell holds byte for
// byte on the resolver axis, its optimized plan step does not run the
// reference kernel, and its steady state allocates nothing.
#include <gtest/gtest.h>

#include <vector>

#include "src/graph/builder.h"
#include "src/quant/quantizer.h"
#include "tests/differential.h"

namespace mlexray {
namespace {

enum class EwOp {
  kAdd,
  kAddBcast,
  kSub,
  kSubBcast,
  kMul,
  kMulBcast,
  kMean,
  kLogistic,
  kHardSwish,
  kTanh,
};

const char* ew_op_name(EwOp op) {
  switch (op) {
    case EwOp::kAdd: return "Add";
    case EwOp::kAddBcast: return "AddBcast";
    case EwOp::kSub: return "Sub";
    case EwOp::kSubBcast: return "SubBcast";
    case EwOp::kMul: return "Mul";
    case EwOp::kMulBcast: return "MulBcast";
    case EwOp::kMean: return "Mean";
    case EwOp::kLogistic: return "Logistic";
    case EwOp::kHardSwish: return "HardSwish";
    case EwOp::kTanh: return "Tanh";
  }
  return "?";
}

bool is_binary(EwOp op) {
  switch (op) {
    case EwOp::kAdd:
    case EwOp::kAddBcast:
    case EwOp::kSub:
    case EwOp::kSubBcast:
    case EwOp::kMul:
    case EwOp::kMulBcast:
      return true;
    default:
      return false;
  }
}

bool is_broadcast(EwOp op) {
  return op == EwOp::kAddBcast || op == EwOp::kSubBcast ||
         op == EwOp::kMulBcast;
}

struct EwGridCase {
  EwOp op;
  std::int64_t channels;
  std::int64_t batch;
  Activation act;      // fused clamp, Add/Sub only
  std::uint32_t seed;  // drives per-case asymmetric calibration ranges

  friend std::ostream& operator<<(std::ostream& os, const EwGridCase& c) {
    return os << ew_op_name(c.op) << "/ch" << c.channels << "/b" << c.batch
              << "/act" << static_cast<int>(c.act) << "/seed" << c.seed;
  }
};

std::vector<EwGridCase> make_grid() {
  // Channel counts straddle the 8-lane int32 vector block: below, at, one
  // past, and multi-block, so both the steady vector loop and the scalar
  // tail are exercised on both paths.
  const std::int64_t channels[] = {1, 3, 5, 8, 9, 16, 24, 64};
  const EwOp ops[] = {EwOp::kAdd,      EwOp::kAddBcast, EwOp::kSub,
                      EwOp::kSubBcast, EwOp::kMul,      EwOp::kMulBcast,
                      EwOp::kMean,     EwOp::kLogistic, EwOp::kHardSwish,
                      EwOp::kTanh};
  const Activation acts[] = {Activation::kNone, Activation::kRelu,
                             Activation::kRelu6};
  std::vector<EwGridCase> grid;
  std::uint32_t i = 0;
  for (EwOp op : ops) {
    for (std::int64_t ch : channels) {
      for (std::int64_t batch : {1, 2}) {
        // Cycle the fused activation on Add/Sub (the only builders that
        // take one) so clamp ranges are covered without tripling the grid.
        const bool fusable = op == EwOp::kAdd || op == EwOp::kAddBcast ||
                             op == EwOp::kSub || op == EwOp::kSubBcast;
        const Activation act = fusable ? acts[i % 3] : Activation::kNone;
        grid.push_back({op, ch, batch, act, 1000 + i});
        ++i;
      }
    }
  }
  return grid;
}

class ElementwiseGrid : public ::testing::TestWithParam<EwGridCase> {};

// Builds the per-case single-elementwise-op model. Binary ops take a second
// graph input (broadcast variants shape it [N,1,1,C], the squeeze-excite
// gate layout).
Graph build_case_model(const EwGridCase& c, Shape in_shape, Shape b_shape) {
  Pcg32 rng(4242);
  GraphBuilder b("ewgrid", &rng);
  int x = b.input(in_shape);
  int out = -1;
  switch (c.op) {
    case EwOp::kAdd:
    case EwOp::kAddBcast:
      out = b.add(x, b.input(b_shape, DType::kF32, "gate"), c.act, "op");
      break;
    case EwOp::kSub:
    case EwOp::kSubBcast:
      out = b.sub(x, b.input(b_shape, DType::kF32, "gate"), c.act, "op");
      break;
    case EwOp::kMul:
    case EwOp::kMulBcast:
      out = b.mul(x, b.input(b_shape, DType::kF32, "gate"), "op");
      break;
    case EwOp::kMean: out = b.mean(x, "op"); break;
    case EwOp::kLogistic: out = b.sigmoid(x, "op"); break;
    case EwOp::kHardSwish: out = b.hardswish(x, "op"); break;
    case EwOp::kTanh: out = b.tanh(x, "op"); break;
  }
  return b.finish({out});
}

TEST_P(ElementwiseGrid, OptMatchesRefAcrossTiers) {
  const EwGridCase& c = GetParam();
  const Shape in_shape{c.batch, 5, 7, c.channels};
  const Shape b_shape = is_broadcast(c.op)
                            ? Shape{c.batch, 1, 1, c.channels}
                            : in_shape;
  Graph m = build_case_model(c, in_shape, b_shape);

  // Per-case asymmetric data ranges: operand scales and zero points differ
  // across cells and across the two operands of a binary op.
  Pcg32 range_rng(c.seed);
  const float a_lo = range_rng.uniform(-4.0f, -0.5f);
  const float a_hi = range_rng.uniform(0.5f, 4.0f);
  const float b_lo = range_rng.uniform(-4.0f, -0.5f);
  const float b_hi = range_rng.uniform(0.5f, 4.0f);

  Pcg32 drng(99 + c.seed);
  Tensor input = random_input(in_shape, drng, a_lo, a_hi);
  Tensor gate = random_input(b_shape, drng, b_lo, b_hi);

  auto observe_inputs = [&](Calibrator& calib, Pcg32& crng) {
    if (is_binary(c.op)) {
      calib.observe({random_input(in_shape, crng, a_lo, a_hi),
                     random_input(b_shape, crng, b_lo, b_hi)});
    } else {
      calib.observe({random_input(in_shape, crng, a_lo, a_hi)});
    }
  };

  Calibrator calib(&m);
  Pcg32 crng(7 + c.seed);
  for (int i = 0; i < 5; ++i) observe_inputs(calib, crng);
  if (is_binary(c.op)) {
    calib.observe({input, gate});
  } else {
    calib.observe({input});
  }
  const std::string where = ::testing::PrintToString(c);
  const Cell cell{where, quantize_model(m, calib),
                  {is_binary(c.op) ? Frame{input, gate} : Frame{input}}};

  RefOpResolver ref;
  BuiltinOpResolver opt;
  const Capture oi = capture(cell, {&opt, 2});
  // Exactly one step has a prepare hook: the op under test
  // (Quantize/Dequantize have none).
  EXPECT_EQ(prepared_steps(oi.model->plan(), where), 1) << where;
  EXPECT_TRUE(
      layers_agree(capture(cell, reference_side(oi.side, &ref)).trace,
                   oi.trace))
      << where << ": resolver";
  EXPECT_TRUE(layers_agree(oi.trace, capture(cell, scalar_side(oi.side)).trace))
      << where << ": scalar path";
  expect_steady_state_clean(*oi.session, where);
}

INSTANTIATE_TEST_SUITE_P(OpChannelsBatchActRanges, ElementwiseGrid,
                         ::testing::ValuesIn(make_grid()));

// --- f32 Add / Sub ------------------------------------------------------------

std::vector<EwGridCase> make_f32_grid() {
  // Below, at, one past, and a multiple of the 8-lane block; batch 2 so
  // the broadcast variants read a second image's [1,1,C] row.
  const std::int64_t channels[] = {1, 5, 8, 9, 24};
  std::vector<EwGridCase> grid;
  std::uint32_t i = 0;
  for (EwOp op : {EwOp::kAdd, EwOp::kAddBcast, EwOp::kSub, EwOp::kSubBcast}) {
    for (std::int64_t ch : channels) {
      for (Activation act :
           {Activation::kNone, Activation::kRelu, Activation::kRelu6}) {
        grid.push_back({op, ch, 2, act, 3000 + i++});
      }
    }
  }
  return grid;
}

// The invoke function of the plan step that runs the op under test (the
// builder names it "op").
KernelFn op_kernel(const Capture& run) {
  for (const PlanStep& step : run.model->plan().steps()) {
    if (step.node->name == "op") return step.kernel->invoke;
  }
  ADD_FAILURE() << "no plan step named 'op'";
  return nullptr;
}

class ElementwiseF32Grid : public ::testing::TestWithParam<EwGridCase> {};

TEST_P(ElementwiseF32Grid, OptMatchesRefBitExact) {
  const EwGridCase& c = GetParam();
  const Shape in_shape{c.batch, 5, 7, c.channels};
  const Shape b_shape = is_broadcast(c.op)
                            ? Shape{c.batch, 1, 1, c.channels}
                            : in_shape;
  Graph m = build_case_model(c, in_shape, b_shape);
  Pcg32 drng(c.seed);
  Tensor input = random_input(in_shape, drng, -8.0f, 8.0f);
  Tensor gate = random_input(b_shape, drng, -8.0f, 8.0f);
  const std::string where = ::testing::PrintToString(c);
  const Cell cell{where, std::move(m), {{input, gate}}};

  RefOpResolver ref;
  BuiltinOpResolver opt;
  const Capture ri = capture(cell, {&ref});
  const Capture oi = capture(cell, {&opt, 2});
  // The optimized resolver has its own Add/Sub kernel, with no prepare hook.
  const KernelFn ref_fn = op_kernel(ri);
  const KernelFn opt_fn = op_kernel(oi);
  ASSERT_NE(ref_fn, nullptr) << where;
  ASSERT_NE(opt_fn, nullptr) << where;
  EXPECT_NE(opt_fn, ref_fn)
      << where << ": the optimized plan runs the reference";
  EXPECT_EQ(prepared_steps(oi.model->plan(), where), 0) << where;
  // One add (or subtract) and the same activation comparisons per element
  // on both paths: the outputs must match to the bit.
  EXPECT_TRUE(layers_agree(ri.trace, oi.trace)) << where << ": resolver";
  expect_steady_state_clean(*oi.session, where);
}

INSTANTIATE_TEST_SUITE_P(OpChannelsAct, ElementwiseF32Grid,
                         ::testing::ValuesIn(make_f32_grid()));

// --- adversarial requant scales ---------------------------------------------

// A real output multiplier >= 1 (possible when the consumer's scale is much
// finer than the product of the producer scales) forces the positive-shift
// path, which the vector epilogue cannot express; the family routes such
// spans to the scalar path even when the vector path is allowed.
// Hand-shrink the output scale after quantization and assert the
// resolver and scalar-path axes hold.
TEST(ElementwiseAdversarial, PositiveOutShiftStaysConformant) {
  for (OpType type : {OpType::kMul, OpType::kAdd}) {
    Pcg32 rng(21);
    GraphBuilder b("ewadv", &rng);
    const Shape in_shape{1, 4, 4, 12};
    int x = b.input(in_shape);
    int g = b.input(in_shape, DType::kF32, "gate");
    int out = type == OpType::kMul ? b.mul(x, g, "op")
                                   : b.add(x, g, Activation::kNone, "op");
    Graph m = b.finish({out});
    Calibrator calib(&m);
    Pcg32 crng(22);
    for (int i = 0; i < 4; ++i) {
      calib.observe({random_input(in_shape, crng, -3.0f, 1.0f),
                     random_input(in_shape, crng, -1.0f, 3.0f)});
    }
    Graph qm = quantize_model(m, calib);
    // Shrink the elementwise output scale until the real requant multiplier
    // exceeds 1 (Add folds a 2^20 left shift into its multiplier, so it
    // needs a far finer scale than Mul). Outputs saturate heavily; that is
    // the point.
    const float adversarial_scale =
        type == OpType::kMul ? 1.0f / 8192.0f : 1.0f / (1 << 26);
    for (Node& n : qm.nodes) {
      if (n.type == type) {
        n.output_quant = QuantParams::per_tensor(adversarial_scale, 3);
      }
    }
    Pcg32 drng(23);
    Tensor input = random_input(in_shape, drng, -3.0f, 1.0f);
    Tensor gate = random_input(in_shape, drng, -1.0f, 3.0f);
    const Cell cell{op_type_name(type), std::move(qm), {{input, gate}}};
    RefOpResolver ref;
    BuiltinOpResolver opt;
    const Capture oi = capture(cell, {&opt});
    EXPECT_TRUE(
        layers_agree(capture(cell, reference_side(oi.side, &ref)).trace,
                     oi.trace))
        << cell.name << ": resolver";
    EXPECT_TRUE(
        layers_agree(oi.trace, capture(cell, scalar_side(oi.side)).trace))
        << cell.name << ": scalar path";
  }
}

}  // namespace
}  // namespace mlexray
