// Google-benchmark microbenchmarks of the kernel library: optimized vs
// reference resolvers on the op types Table 4 profiles, float and int8.
// These quantify the per-op gap that the table aggregates per layer type.
//
// The BM_Gemm* group benches the GEMM core directly at the Table-4
// equivalent shapes: prepacked f32 panels and the widening SIMD int8
// dot-product microkernel, isolated from interpreter overhead.
#include <benchmark/benchmark.h>

#include <vector>

#include "src/graph/builder.h"
#include "src/interpreter/session.h"
#include "src/kernels/fixed_point.h"
#include "src/kernels/gemm.h"
#include "src/kernels/kernel.h"
#include "src/quant/quantizer.h"

namespace mlexray {
namespace {

Graph conv_model(int size, int ch, int out_ch, OpType type, int stride = 1) {
  Pcg32 rng(1);
  GraphBuilder b("m", &rng);
  int x = b.input(Shape{1, size, size, ch});
  switch (type) {
    case OpType::kConv2D:
      b.conv2d(x, out_ch, 3, 3, stride, Padding::kSame, Activation::kRelu,
               "op");
      break;
    case OpType::kDepthwiseConv2D:
      b.depthwise_conv2d(x, 3, 3, stride, Padding::kSame, Activation::kRelu,
                         "op");
      break;
    case OpType::kFullyConnected:
      b.fully_connected(x, out_ch, Activation::kNone, "op");
      break;
    case OpType::kPad:
      b.pad(x, 1, 1, 1, 1, "op");
      break;
    default:
      MLX_FAIL() << "unsupported micro-bench op";
  }
  return b.finish({1});
}

Tensor random_input(int size, int ch, std::uint64_t seed) {
  Tensor input = Tensor::f32(Shape{1, size, size, ch});
  Pcg32 rng(seed);
  float* p = input.data<float>();
  for (std::int64_t i = 0; i < input.num_elements(); ++i) {
    p[i] = rng.uniform(-1, 1);
  }
  return input;
}

void run_variant(benchmark::State& state, OpType type, bool reference,
                 bool quantized = false, int stride = 1) {
  const int size = static_cast<int>(state.range(0));
  const int ch = static_cast<int>(state.range(1));
  Graph m = conv_model(size, ch, ch, type, stride);
  Graph qm;
  if (quantized) {
    Calibrator calib(&m);
    for (int i = 0; i < 4; ++i) calib.observe({random_input(size, ch, 10 + i)});
    qm = quantize_model(m, calib);
  }
  const Graph& bench_model = quantized ? qm : m;
  RefOpResolver ref;
  BuiltinOpResolver opt;
  const OpResolver& resolver = reference ? static_cast<const OpResolver&>(ref)
                                         : static_cast<const OpResolver&>(opt);
  Model model(&bench_model, &resolver, reference ? 1 : 2);
  Session session(&model);
  session.set_input(0, random_input(size, ch, 2));
  for ([[maybe_unused]] auto _ : state) {
    session.invoke();
    benchmark::DoNotOptimize(session.output(0).raw_data());
  }
}

void BM_Conv2D_Optimized(benchmark::State& s) { run_variant(s, OpType::kConv2D, false); }
void BM_Conv2D_Reference(benchmark::State& s) { run_variant(s, OpType::kConv2D, true); }
void BM_DwConv_Optimized(benchmark::State& s) { run_variant(s, OpType::kDepthwiseConv2D, false); }
void BM_DwConv_Reference(benchmark::State& s) { run_variant(s, OpType::kDepthwiseConv2D, true); }
void BM_Fc_Optimized(benchmark::State& s) { run_variant(s, OpType::kFullyConnected, false); }
void BM_Fc_Reference(benchmark::State& s) { run_variant(s, OpType::kFullyConnected, true); }
void BM_Pad_Optimized(benchmark::State& s) { run_variant(s, OpType::kPad, false); }
void BM_Pad_Reference(benchmark::State& s) { run_variant(s, OpType::kPad, true); }
void BM_Conv2D_OptimizedInt8(benchmark::State& s) { run_variant(s, OpType::kConv2D, false, true); }
void BM_Conv2D_ReferenceInt8(benchmark::State& s) { run_variant(s, OpType::kConv2D, true, true); }
void BM_DwConv_OptimizedInt8(benchmark::State& s) { run_variant(s, OpType::kDepthwiseConv2D, false, true); }
void BM_DwConv_ReferenceInt8(benchmark::State& s) { run_variant(s, OpType::kDepthwiseConv2D, true, true); }
void BM_DwConv_OptimizedInt8_S2(benchmark::State& s) { run_variant(s, OpType::kDepthwiseConv2D, false, true, /*stride=*/2); }
void BM_Fc_OptimizedInt8(benchmark::State& s) { run_variant(s, OpType::kFullyConnected, false, true); }
void BM_Fc_ReferenceInt8(benchmark::State& s) { run_variant(s, OpType::kFullyConnected, true, true); }

// {32, 12} is resnet50v2_mini's hottest conv: 3x3, 12 -> 12 channels at
// 32x32, where n = 12 leaves a half-empty last f32 panel.
BENCHMARK(BM_Conv2D_Optimized)->Args({16, 32})->Args({32, 16})->Args({32, 12});
BENCHMARK(BM_Conv2D_Reference)->Args({16, 32})->Args({32, 16});
BENCHMARK(BM_DwConv_Optimized)->Args({16, 32});
BENCHMARK(BM_DwConv_Reference)->Args({16, 32});
BENCHMARK(BM_Fc_Optimized)->Args({16, 16});
BENCHMARK(BM_Fc_Reference)->Args({16, 16});
BENCHMARK(BM_Pad_Optimized)->Args({32, 16});
BENCHMARK(BM_Pad_Reference)->Args({32, 16});
BENCHMARK(BM_Conv2D_OptimizedInt8)->Args({16, 32})->Args({32, 16})->Args({32, 12});
BENCHMARK(BM_Conv2D_ReferenceInt8)->Args({16, 32})->Args({32, 16});
// Table-4 dwconv shapes: the MobileNet-mini stem/mid/late layer geometries
// (image x channels), stride 1 and the stride-2 downsampling blocks.
BENCHMARK(BM_DwConv_OptimizedInt8)->Args({16, 32})->Args({32, 16})->Args({8, 128});
BENCHMARK(BM_DwConv_ReferenceInt8)->Args({16, 32})->Args({32, 16})->Args({8, 128});
BENCHMARK(BM_DwConv_OptimizedInt8_S2)->Args({16, 32});
BENCHMARK(BM_Fc_OptimizedInt8)->Args({16, 16});
BENCHMARK(BM_Fc_ReferenceInt8)->Args({16, 16});

// --- GEMM core over prepacked B at Table-4 shapes ---------------------------
// Args are the GEMM problem (m, n, k): Conv2D 16x16x32 3x3 -> (256, 32,
// 288), Conv2D 32x32x16 3x3 -> (1024, 16, 144), batch-1 FC 4096->16 ->
// (1, 16, 4096). Single-threaded so the kernel difference is undiluted.

struct GemmProblem {
  std::int64_t m, n, k;
  std::vector<float> a_f32, b_f32, bias_f32, c_f32;
  std::vector<std::int8_t> a_i8, b_i8, c_i8;
  std::vector<std::int32_t> bias_i32, multipliers;
  std::vector<int> shifts;
  GemmQuant quant;

  GemmProblem(std::int64_t m_in, std::int64_t n_in, std::int64_t k_in)
      : m(m_in), n(n_in), k(k_in) {
    Pcg32 rng(7);
    a_f32.resize(static_cast<std::size_t>(m * k));
    b_f32.resize(static_cast<std::size_t>(n * k));
    bias_f32.resize(static_cast<std::size_t>(n));
    c_f32.resize(static_cast<std::size_t>(m * n));
    for (float& v : a_f32) v = rng.uniform(-1, 1);
    for (float& v : b_f32) v = rng.uniform(-1, 1);
    for (float& v : bias_f32) v = rng.uniform(-1, 1);
    a_i8.resize(a_f32.size());
    b_i8.resize(b_f32.size());
    c_i8.resize(c_f32.size());
    for (auto& v : a_i8) v = static_cast<std::int8_t>(static_cast<int>(rng.next_below(255)) - 127);
    for (auto& v : b_i8) v = static_cast<std::int8_t>(static_cast<int>(rng.next_below(255)) - 127);
    // Per-column epilogue arrays: gemm_i8_padded_cols(n), zero past n.
    bias_i32.resize(static_cast<std::size_t>(gemm_i8_padded_cols(n)));
    multipliers.resize(bias_i32.size());
    shifts.resize(bias_i32.size());
    for (std::size_t j = 0; j < static_cast<std::size_t>(n); ++j) {
      bias_i32[j] = static_cast<std::int32_t>(rng.next_below(512)) - 256;
      quantize_multiplier(0.0037, &multipliers[j], &shifts[j]);
    }
    quant.a_zero_point = 3;
    quant.bias = bias_i32.data();
    quant.multipliers = multipliers.data();
    quant.shifts = shifts.data();
    quant.out_zero_point = -5;
  }
};

void BM_GemmF32_Prepacked(benchmark::State& state) {
  GemmProblem p(state.range(0), state.range(1), state.range(2));
  std::vector<float> panels(
      static_cast<std::size_t>(packed_b_f32_floats(p.n, p.k)));
  pack_b_f32(p.n, p.k, p.b_f32.data(), p.k, panels.data());
  PackedBF32 packed{panels.data(), (p.n + kGemmNrF32 - 1) / kGemmNrF32};
  for ([[maybe_unused]] auto _ : state) {
    gemm_f32_nt(p.m, p.n, p.k, p.a_f32.data(), p.k, p.bias_f32.data(),
                Activation::kNone, p.c_f32.data(), p.n, nullptr, packed);
    benchmark::DoNotOptimize(p.c_f32.data());
  }
}

void BM_GemmI8_PackedVec(benchmark::State& state) {
  GemmProblem p(state.range(0), state.range(1), state.range(2));
  std::vector<std::int8_t> panels(
      static_cast<std::size_t>(packed_b_i8_bytes(p.n, p.k)));
  std::vector<std::int32_t> col_sums(p.bias_i32.size());
  pack_b_i8(p.n, p.k, p.b_i8.data(), p.k, panels.data(), col_sums.data());
  PackedBI8 packed{panels.data(), col_sums.data()};
  std::vector<std::int16_t> a_tiles(gemm_i8_tile_bytes(p.k, 1) /
                                    sizeof(std::int16_t));
  for ([[maybe_unused]] auto _ : state) {
    gemm_i8_nt(p.m, p.n, p.k, p.a_i8.data(), p.k, p.b_i8.data(), p.k, p.quant,
               p.c_i8.data(), p.n, nullptr, packed, a_tiles.data());
    benchmark::DoNotOptimize(p.c_i8.data());
  }
}

BENCHMARK(BM_GemmF32_Prepacked)->Args({256, 32, 288})->Args({1024, 16, 144})->Args({1, 16, 4096});
// (256, 32, 32) is the MobileNet 1x1 pointwise shape where the pair
// microkernel's reduction-free epilogue matters most; (1, 16, 4096) and
// (1, 1001, 1024) are the batch-1 FC matvec shapes served by the k-major
// m==1 dispatch (raw B rows, one widened A chunk reused across columns).
BENCHMARK(BM_GemmI8_PackedVec)->Args({256, 32, 288})->Args({1024, 16, 144})->Args({1, 16, 4096})->Args({256, 32, 32})->Args({1, 1001, 1024});

// --- dwconv vector vs scalar path at a Table-4 shape ------------------------
// Same int8 dwconv graph on the vector path and under
// force_scalar_kernels_for_testing (src/kernels/kernel.h): quantifies the
// channel-vectorization win in isolation.

void run_dwconv_path(benchmark::State& state, bool scalar) {
  force_scalar_kernels_for_testing = scalar;
  run_variant(state, OpType::kDepthwiseConv2D, /*reference=*/false,
              /*quantized=*/true);
  force_scalar_kernels_for_testing = false;
}

void BM_DwConvI8_Vector(benchmark::State& s) { run_dwconv_path(s, false); }
void BM_DwConvI8_Scalar(benchmark::State& s) { run_dwconv_path(s, true); }

BENCHMARK(BM_DwConvI8_Vector)->Args({16, 64});
BENCHMARK(BM_DwConvI8_Scalar)->Args({16, 64});

// --- int8 elementwise family at MobileNetV3-mini SE shapes -----------------
// The squeeze-excite ops of the int8 elementwise family
// (src/kernels/elementwise.h): residual Add, the [N,1,1,C] broadcast Mul
// gate, global Mean, and the standalone Logistic / HardSwish LUT
// activations. Optimized-vs-reference pairs (the reference kernels run the
// same fixed-point spec in plain loops) quantify the per-op win the Table-4
// split aggregates; vector-vs-scalar variants isolate the 8-lane
// vectorization from the plan-time Q31/LUT prep.

enum class EwBenchOp { kAdd, kMulGate, kMean, kLogistic, kHardSwish };

Graph ew_model(int size, int ch, EwBenchOp op) {
  Pcg32 rng(1);
  GraphBuilder b("m", &rng);
  int x = b.input(Shape{1, size, size, ch});
  switch (op) {
    case EwBenchOp::kAdd:
      b.add(x, b.input(Shape{1, size, size, ch}, DType::kF32, "g"),
            Activation::kNone, "op");
      break;
    case EwBenchOp::kMulGate:
      b.mul(x, b.input(Shape{1, 1, 1, ch}, DType::kF32, "g"), "op");
      break;
    case EwBenchOp::kMean: b.mean(x, "op"); break;
    case EwBenchOp::kLogistic: b.sigmoid(x, "op"); break;
    case EwBenchOp::kHardSwish: b.hardswish(x, "op"); break;
  }
  return b.finish({op == EwBenchOp::kAdd || op == EwBenchOp::kMulGate ? 2 : 1});
}

Tensor random_shaped(Shape shape, std::uint64_t seed) {
  Tensor t = Tensor::f32(shape);
  Pcg32 rng(seed);
  float* p = t.data<float>();
  for (std::int64_t i = 0; i < t.num_elements(); ++i) p[i] = rng.uniform(-1, 1);
  return t;
}

void run_ew_variant(benchmark::State& state, EwBenchOp op, bool reference) {
  const int size = static_cast<int>(state.range(0));
  const int ch = static_cast<int>(state.range(1));
  Graph m = ew_model(size, ch, op);
  const bool binary = op == EwBenchOp::kAdd || op == EwBenchOp::kMulGate;
  const Shape gate_shape = op == EwBenchOp::kMulGate
                               ? Shape{1, 1, 1, ch}
                               : Shape{1, size, size, ch};
  Calibrator calib(&m);
  for (int i = 0; i < 4; ++i) {
    if (binary) {
      calib.observe({random_shaped(Shape{1, size, size, ch}, 10 + static_cast<std::uint64_t>(i)),
                     random_shaped(gate_shape, 20 + static_cast<std::uint64_t>(i))});
    } else {
      calib.observe({random_shaped(Shape{1, size, size, ch}, 10 + static_cast<std::uint64_t>(i))});
    }
  }
  Graph qm = quantize_model(m, calib);
  RefOpResolver ref;
  BuiltinOpResolver opt;
  const OpResolver& resolver = reference ? static_cast<const OpResolver&>(ref)
                                         : static_cast<const OpResolver&>(opt);
  Model model(&qm, &resolver);
  Session session(&model);
  session.set_input(0, random_shaped(Shape{1, size, size, ch}, 2));
  if (binary) session.set_input(1, random_shaped(gate_shape, 3));
  for ([[maybe_unused]] auto _ : state) {
    session.invoke();
    benchmark::DoNotOptimize(session.output(0).raw_data());
  }
}

void BM_ElemwiseAddI8_Optimized(benchmark::State& s) { run_ew_variant(s, EwBenchOp::kAdd, false); }
void BM_ElemwiseAddI8_Reference(benchmark::State& s) { run_ew_variant(s, EwBenchOp::kAdd, true); }
void BM_ElemwiseMulGateI8_Optimized(benchmark::State& s) { run_ew_variant(s, EwBenchOp::kMulGate, false); }
void BM_ElemwiseMulGateI8_Reference(benchmark::State& s) { run_ew_variant(s, EwBenchOp::kMulGate, true); }
void BM_ElemwiseMeanI8_Optimized(benchmark::State& s) { run_ew_variant(s, EwBenchOp::kMean, false); }
void BM_ElemwiseMeanI8_Reference(benchmark::State& s) { run_ew_variant(s, EwBenchOp::kMean, true); }
void BM_ElemwiseLogisticI8_Optimized(benchmark::State& s) { run_ew_variant(s, EwBenchOp::kLogistic, false); }
void BM_ElemwiseLogisticI8_Reference(benchmark::State& s) { run_ew_variant(s, EwBenchOp::kLogistic, true); }
void BM_ElemwiseHardSwishI8_Optimized(benchmark::State& s) { run_ew_variant(s, EwBenchOp::kHardSwish, false); }
void BM_ElemwiseHardSwishI8_Reference(benchmark::State& s) { run_ew_variant(s, EwBenchOp::kHardSwish, true); }

// V3-mini geometries: residual Add / HardSwish at the 16x16x24 mid blocks,
// the SE gate Mul and global Mean at the 8x8x96 late blocks, Logistic on
// the 1x1x96 SE bottleneck (tiny — dominated by dispatch, kept honest).
BENCHMARK(BM_ElemwiseAddI8_Optimized)->Args({16, 24})->Args({8, 96});
BENCHMARK(BM_ElemwiseAddI8_Reference)->Args({16, 24})->Args({8, 96});
BENCHMARK(BM_ElemwiseMulGateI8_Optimized)->Args({16, 24})->Args({8, 96});
BENCHMARK(BM_ElemwiseMulGateI8_Reference)->Args({16, 24})->Args({8, 96});
BENCHMARK(BM_ElemwiseMeanI8_Optimized)->Args({8, 96});
BENCHMARK(BM_ElemwiseMeanI8_Reference)->Args({8, 96});
BENCHMARK(BM_ElemwiseLogisticI8_Optimized)->Args({16, 64})->Args({1, 96});
BENCHMARK(BM_ElemwiseLogisticI8_Reference)->Args({16, 64})->Args({1, 96});
BENCHMARK(BM_ElemwiseHardSwishI8_Optimized)->Args({16, 24});
BENCHMARK(BM_ElemwiseHardSwishI8_Reference)->Args({16, 24});

// The vector and forced-scalar paths on the widest SE pattern (broadcast
// Mul + Add): the vector-vs-scalar gap.
void run_ew_path(benchmark::State& state, EwBenchOp op, bool scalar) {
  force_scalar_kernels_for_testing = scalar;
  run_ew_variant(state, op, /*reference=*/false);
  force_scalar_kernels_for_testing = false;
}

void BM_ElemwiseAddI8_Vector(benchmark::State& s) { run_ew_path(s, EwBenchOp::kAdd, false); }
void BM_ElemwiseAddI8_Scalar(benchmark::State& s) { run_ew_path(s, EwBenchOp::kAdd, true); }
void BM_ElemwiseMulGateI8_Vector(benchmark::State& s) { run_ew_path(s, EwBenchOp::kMulGate, false); }
void BM_ElemwiseMulGateI8_Scalar(benchmark::State& s) { run_ew_path(s, EwBenchOp::kMulGate, true); }

BENCHMARK(BM_ElemwiseAddI8_Vector)->Args({16, 64});
BENCHMARK(BM_ElemwiseAddI8_Scalar)->Args({16, 64});
BENCHMARK(BM_ElemwiseMulGateI8_Vector)->Args({16, 64});
BENCHMARK(BM_ElemwiseMulGateI8_Scalar)->Args({16, 64});

// --- f32 residual Add ---------------------------------------------------------
// The optimized resolver's 8-lane Add/Sub against the reference loop, at
// resnet50v2_mini's stage-0 residual geometry (32x32x24, no activation).
void run_ew_f32_add(benchmark::State& state, bool reference) {
  const int size = static_cast<int>(state.range(0));
  const int ch = static_cast<int>(state.range(1));
  Graph m = ew_model(size, ch, EwBenchOp::kAdd);
  RefOpResolver ref;
  BuiltinOpResolver opt;
  const OpResolver& resolver = reference ? static_cast<const OpResolver&>(ref)
                                         : static_cast<const OpResolver&>(opt);
  Model model(&m, &resolver);
  Session session(&model);
  session.set_input(0, random_shaped(Shape{1, size, size, ch}, 2));
  session.set_input(1, random_shaped(Shape{1, size, size, ch}, 3));
  for ([[maybe_unused]] auto _ : state) {
    session.invoke();
    benchmark::DoNotOptimize(session.output(0).raw_data());
  }
}

void BM_ElemwiseAddF32_Optimized(benchmark::State& s) { run_ew_f32_add(s, false); }
void BM_ElemwiseAddF32_Reference(benchmark::State& s) { run_ew_f32_add(s, true); }

BENCHMARK(BM_ElemwiseAddF32_Optimized)->Args({32, 24});
BENCHMARK(BM_ElemwiseAddF32_Reference)->Args({32, 24});

}  // namespace
}  // namespace mlexray

BENCHMARK_MAIN();
