// Register-blocked, multi-threaded GEMM core shared by the optimized
// convolution (as an implicit GEMM) and fully-connected kernels.
//
// Both consumers present the same "NT" problem: A holds M rows of K values
// (flattened input rows, or conv receptive fields), B holds N rows of K
// contiguous values (OHWI filters or [out, in] weights), and
// C[i, j] = act(dot(A_i, B_j) + bias[j]).
//
// One row-block driver walks C in MR-row tiles; only where a tile's A rows
// come from differs. A plain f32 matrix (FC, 1x1 stride-1 conv) hands out
// rows in place. A conv gathers the tile's MR receptive fields straight
// from the NHWC input into a small per-worker buffer and reuses it across
// every N panel, so no im2col matrix is ever materialized. int8 tiles are
// pre-widened to int16 (a matrix's rows once per tile, a conv's patches as
// they are gathered), so the int8 inner loop loads each k pair of A as one
// 32-bit word.
//
// The inner loops compute an MR x NR register tile: each loaded A/B value
// feeds NR/MR multiply-accumulates, cutting memory traffic by the tile
// factor, and the independent accumulators break the loop-carried
// dependence that serializes a naive dot product on the FPU's add latency.
// B is packed into zero-padded NR-column panels, so every output column —
// the n % NR tail included — runs the vector tile.
//
// Float accumulation is bias-first then k-ascending per output — exactly the
// reference kernels' order — so optimized and reference float paths agree to
// within FMA-contraction rounding (0-1 ULP; identical ordering, only the
// compiler's mul+add fusion choices differ), which the parity tests assert.
// Integer accumulation is exact and order-free. Rows of C are partitioned
// in tile-sized chunks across the pool the caller passes, with no per-call
// heap allocation. The GEMM never decides whether to fan out: the
// ExecutionPlan hands a step the pool only when its MACs pay for the
// rendezvous, and a null PoolRef runs every tile inline.
//
// The f32 tile and the int8 requant epilogue (fixed_point.h) are GNU
// vector extensions, one source for every target. The int8 dot products
// are the one place with ISA tiers: AVX-512BW and AVX2 intrinsics for the
// widening multiply-add (vpmaddwd, which vector extensions cannot spell),
// and GNU vectors elsewhere. All tiers produce bit-identical output.
#pragma once

#include <cstddef>
#include <cstdint>

#include "src/common/thread_pool.h"
#include "src/graph/op_types.h"
#include "src/kernels/conv_utils.h"

namespace mlexray {

// ---------------------------------------------------------------------------
// Plan-time B prepacking.
//
// B is constant for both GEMM consumers (conv filters, FC weights), so the
// panel layout the inner loops want is built once at Prepare time and reused
// by every invoke. The packed views below are plain pointers into plan-owned
// storage; both gemm entry points require them.
// ---------------------------------------------------------------------------

// Panel widths (NR) of the register tiles. Exposed so prepare hooks can size
// packed buffers; must match the kernels' internal tiling.
inline constexpr std::int64_t kGemmNrF32 = 8;
inline constexpr std::int64_t kGemmNrI8 = 16;

// f32: ceil(n / kGemmNrF32) panels of kGemmNrF32 columns, k-interleaved —
// panel p holds k groups of the 8 column values for columns [8p, 8p+8).
// Columns past n are zero-filled, so the last panel runs the same vector
// tile as the others.
struct PackedBF32 {
  const float* panels = nullptr;
  std::int64_t panel_count = 0;  // ceil(n / kGemmNrF32)
};

// int8: pair-interleaved, pre-widened panels of kGemmNrI8 (16) columns.
// Panel p covers columns [16p, 16p + 16); its memory is k2-major: for each
// pair of k steps it holds 16 columns x 2 consecutive k values as int16
// (64 bytes — exactly the operand shape the widening multiply-pairs-and-add
// instruction (vpmaddwd) consumes, with the matching A operand being one
// broadcast 32-bit (a[2k], a[2k+1]) pair). Columns beyond n and the odd-k
// tail entry are zero-filled, so the last panel needs no edge path and an
// odd k contributes an exact zero. Per-column sums over the real k for all
// n columns fold the activation zero point into the epilogue —
// sum_k (a - zp) * b == sum_k a * b - zp * col_sum — so the inner loop is a
// raw dot product with no per-element correction and, crucially, no
// horizontal reduction: each output column owns one int32 accumulator lane.
//
// The int8 epilogue requantizes kGemmRequantLanes columns at a time, the
// last n % 8 included, so every per-column array it reads — col_sums here
// and GemmQuant's bias, multipliers and shifts — holds
// gemm_i8_padded_cols(n) entries, zero past n. Only the n real columns of C
// are stored.
inline constexpr std::int64_t kGemmRequantLanes = 8;
inline constexpr std::int64_t gemm_i8_padded_cols(std::int64_t n) {
  return (n + kGemmRequantLanes - 1) / kGemmRequantLanes * kGemmRequantLanes;
}

struct PackedBI8 {
  const std::int8_t* panels = nullptr;     // int16 data; 64-byte aligned
  const std::int32_t* col_sums = nullptr;  // [gemm_i8_padded_cols(n)]
};

// Sizing for the pack destinations: f32 element count, int8 byte count
// (padded columns included in both — the kernels derive panel indexing
// from n alone).
std::int64_t packed_b_f32_floats(std::int64_t n, std::int64_t k);
std::int64_t packed_b_i8_bytes(std::int64_t n, std::int64_t k);

// Pack B[n x k] (row stride ldb) into the layouts above. col_sums gets the
// n column sums followed by zeros up to gemm_i8_padded_cols(n) entries.
void pack_b_f32(std::int64_t n, std::int64_t k, const float* b,
                std::int64_t ldb, float* panels);
void pack_b_i8(std::int64_t n, std::int64_t k, const std::int8_t* b,
               std::int64_t ldb, std::int8_t* panels, std::int32_t* col_sums);

// C[m x n] (row stride ldc) = act(A[m x k] (lda) * B[n x k]^T + bias).
// bias has n entries and must be non-null; B is read only through `packed`
// (pack_b_f32 of the same B). The inner loop vectorizes across each panel's
// kGemmNrF32 output columns, which keeps each output's bias-first
// k-ascending accumulation order intact, and applies the fused activation
// on the vector accumulators with the comparisons of apply_activation_f32.
void gemm_f32_nt(std::int64_t m, std::int64_t n, std::int64_t k,
                 const float* a, std::int64_t lda, const float* bias,
                 Activation act, float* c, std::int64_t ldc, PoolRef pool,
                 const PackedBF32& packed);

// Fused requantization parameters for the int8 path (per-output-channel
// multiplier/shift tables, gemmlowp-style). Each array holds
// gemm_i8_padded_cols(n) entries, zero past n (see PackedBI8).
struct GemmQuant {
  std::int32_t a_zero_point = 0;
  const std::int32_t* bias = nullptr;         // [gemm_i8_padded_cols(n)]
  const std::int32_t* multipliers = nullptr;  // [gemm_i8_padded_cols(n)]
  const int* shifts = nullptr;                // [gemm_i8_padded_cols(n)]
  std::int32_t out_zero_point = 0;
  std::int32_t act_min = -128;
  std::int32_t act_max = 127;
};

// C[m x n] int8 = requant(sum_k (A[i,k] - a_zp) * B[j,k] + bias[j]).
//
// The inner loop is the pair-broadcast vpmaddwd microkernel over the
// pair-interleaved `packed` panels above — SIMD across the 16 output
// columns, one accumulator lane per column, no horizontal reduction
// (zero-point correction folded into the epilogue via col_sums). Each
// 4-row tile of A is widened to int16 once, into the worker's slice of
// `a_tiles`, and reused across every panel; each k pair of a row is then
// one 32-bit broadcast. m == 1 instead walks raw k-major B rows (b, ldb)
// against the raw int8 row, with the same col_sums epilogue. Integer
// accumulation is exact, so both produce bit-identical output.
//
// `a_tiles` holds gemm_i8_tile_bytes(k, pool.parallelism()) bytes (may be
// null when m == 1), indexed by the parallel_for_workers worker id.
std::size_t gemm_i8_tile_bytes(std::int64_t k, std::size_t workers);
void gemm_i8_nt(std::int64_t m, std::int64_t n, std::int64_t k,
                const std::int8_t* a, std::int64_t lda, const std::int8_t* b,
                std::int64_t ldb, const GemmQuant& q, std::int8_t* c,
                std::int64_t ldc, PoolRef pool, const PackedBI8& packed,
                void* a_tiles);

// ---------------------------------------------------------------------------
// Conv2D as an implicit GEMM.
//
// Output pixel i of [batch, out_h, out_w] is A row i (ConvGeometry::rows(),
// conv_utils.h): its receptive field in the (fy, fx, ic) order of an OHWI
// filter row, so k = patch() = kh * kw * in_ch and C is the NHWC output
// itself (ldc = out_ch). Each MR-row tile gathers its rows from the NHWC
// input into a per-worker buffer (int8 straight into int16); taps outside
// the input read as 0.0f (f32) or the input zero point (int8) — the values
// that make them contribute exactly nothing, as the reference kernels'
// skipped taps do. A 1x1 stride-1 conv needs no gather: the input itself
// is A (lda = in_ch), which the int8 GEMM widens per tile like any matrix.
// ---------------------------------------------------------------------------

// Bytes of gather scratch a conv_gemm call with `workers` participants
// needs: one 64-byte-padded MR x patch() tile buffer per worker, indexed by
// the parallel_for_workers worker id. elem_bytes is the input's: an f32
// conv needs none when pointwise; an int8 conv always needs
// gemm_i8_tile_bytes(patch(), workers) for its int16 tiles. Size it from
// the executing context's worker count (KernelContext::worker_count()).
std::size_t conv_gather_bytes(const ConvGeometry& g, std::size_t elem_bytes,
                              std::size_t workers);

// y[rows x out_ch] = conv(x) with filters packed as B (n = out_ch,
// k = patch()). `gather` holds conv_gather_bytes(g, elem, pool.parallelism())
// bytes (may be null when that is 0). int8 takes the raw OHWI filter `w` as
// well, for the m == 1 matvec path.
void conv_gemm_f32(const ConvGeometry& g, const float* x, const float* bias,
                   Activation act, float* y, PoolRef pool,
                   const PackedBF32& packed, void* gather);
void conv_gemm_i8(const ConvGeometry& g, const std::int8_t* x,
                  const std::int8_t* w, const GemmQuant& q, std::int8_t* y,
                  PoolRef pool, const PackedBI8& packed, void* gather);

}  // namespace mlexray
