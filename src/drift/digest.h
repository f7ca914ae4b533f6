// Streaming per-layer digests: compact, mergeable sketches of a layer's
// output distribution, cheap enough for always-on fleet monitoring.
//
// The paper's validation workflow diffs *full* per-layer tensors between two
// pipelines — exact, but too heavy to leave enabled in serving (a raw-output
// trace frame is the size of the model's activations) and structurally
// pairwise. A LayerDigest replaces the raw tensor with a fixed-size summary
// captured in the TraceBuffer observer path:
//
//  - count / sum / sum-of-squares / min / max (exact moments for float
//    layers, over every element);
//  - a small KLL-style quantile sketch for float layers (fixed storage,
//    mergeable: merging shard sketches is equivalent — up to the sketch's
//    rank-error bound — to sketching the concatenated stream);
//  - a 256-bin histogram for int8/uint8 layers (the value domain is the bin
//    domain, so quantiles and moments derived from it are exact over the
//    digested elements and merge losslessly).
//
// Capture cost is bounded per accumulate() call, not per element: the float
// sketch draws at most kSketchSampleBudget stride-spaced samples, and int8
// layers larger than kIntHistSampleBudget are stride-sampled into the
// histogram (smaller layers are digested exactly). Per-frame resolution is
// deliberately coarse — a fleet digest stream merges hundreds of frames per
// device, so quantile resolution accrues where it matters while the hot-path
// cost stays a small fraction of a bare invoke (see bench_drift's gate).
//
// Everything is inline fixed-size storage: accumulate() performs zero heap
// allocations, so digest capture rides the zero-alloc invoke contract the
// observer pipeline enforces. Digests ride in .mlxtrace frames (trace format
// v2) next to latencies, and the DriftAggregator merges digest streams from
// many devices into fleet drift reports.
//
// What a distribution sketch can and cannot see: digest_drift() compares
// value distributions, so it catches scale/shift/saturation bugs (wrong
// normalization, bad quant params, clipped activations) but is blind to
// permutations (e.g. channel-order bugs leave the histogram unchanged).
// Elementwise localization of those stays with the exact paths: offline
// per_layer_drift and the Engine canary.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <span>

#include "src/common/function_ref.h"
#include "src/tensor/tensor.h"

namespace mlexray {

class BinaryReader;
class BinaryWriter;

// Fixed-size KLL-style quantile sketch over floats.
//
// Level l holds up to kLevelCap items, each representing 2^l input items.
// add() appends to level 0; a full level is sorted and every other item
// (random offset) is promoted to the next level, halving its size.
// quantiles() ranks all retained items by weight. merge() concatenates
// level-wise and recompacts — the operation that makes fleet aggregation
// associative.
//
// Capacity before the top level saturates is kLevelCap * 2^(kLevels-1)
// (~2.1M items); past that the top level compacts in place and doubles its
// weight via top_shift_, trading a little extra rank error for unbounded
// streams. The expected rank error of a KLL compactor at this geometry is a
// small constant (~1.5/kLevelCap per level pair); tests assert a
// conservative end-to-end bound instead of the tight one.
class QuantileSketch {
 public:
  static constexpr int kLevels = 16;
  static constexpr int kLevelCap = 32;

  QuantileSketch() { reset(); }

  void reset();
  void add(float v);
  void merge(const QuantileSketch& other);

  // Values at ascending quantiles over the sketched stream: emit(i, value)
  // for each points[i] (clamped to [0, 1]), in order. One sort of the
  // retained items serves every point. 0 for an empty sketch. Throws
  // MlxError unless the points ascend (NaN only as a lone point).
  void quantiles(std::span<const double> points,
                 FunctionRef<void(std::size_t, float)> emit) const;
  // quantiles() at the one point q.
  float quantile(double q) const;

  // Total weighted item count the sketch represents (== items added, exactly,
  // since compaction preserves weight).
  std::uint64_t weight() const;

  bool empty() const { return weight() == 0; }

  void serialize(BinaryWriter& w) const;
  void deserialize(BinaryReader& r);

 private:
  // Compacts `level` into `level + 1` (or in place at the top), assuming
  // every level above has room or is recursively compacted first.
  void compact(int level);

  float items_[kLevels][kLevelCap];
  std::uint16_t size_[kLevels];
  // Extra weight doublings applied to the top level by in-place compaction.
  std::uint16_t top_shift_ = 0;
  // Deterministic xorshift state for the odd/even survivor choice. Seeded
  // identically everywhere so captures are reproducible.
  std::uint32_t rng_ = 0x9e3779b9u;
};

// One layer's streaming digest. Reset + accumulate per frame on the hot
// path; merge across frames/devices in the aggregator.
struct LayerDigest {
  // Per-accumulate() sampling budgets that bound hot-path capture cost.
  // Layers at or under a budget are digested without sampling; larger layers
  // use a deterministic stride of ceil(n / budget). Sketch insertions are the
  // most expensive per-element operation (~10ns amortized compaction), so
  // the sketch budget is the tightest.
  static constexpr std::int64_t kSketchSampleBudget = 64;
  static constexpr std::int64_t kIntHistSampleBudget = 256;

  DType dtype = DType::kF32;
  // Elements digested. For float layers this is every element (moments are
  // exact); for int8/uint8 layers past kIntHistSampleBudget it is the
  // stride-sampled subset, matching what the histogram and integer moments
  // actually saw.
  std::uint64_t count = 0;

  // Float path (also i32, via conversion): exact moments + quantile sketch.
  double sum = 0.0;
  double sum_sq = 0.0;
  float min_v = std::numeric_limits<float>::infinity();
  float max_v = -std::numeric_limits<float>::infinity();
  QuantileSketch sketch;

  // Integer path (i8/u8): histogram over the 256-value domain plus integer
  // moments, exact over the digested (possibly stride-sampled) elements;
  // bin = raw + 128 for i8, bin = raw for u8.
  // u64 bins so fleet-scale merges cannot overflow (the wire format carries
  // u32 — a single frame never exceeds that).
  std::uint64_t hist[256] = {};
  std::int64_t isum = 0;
  std::uint64_t isum_sq = 0;
  // Dequantization params of the source tensor, so integer digests compare
  // in real space.
  float scale = 0.0f;
  std::int32_t zero_point = 0;

  void reset();

  // Folds `t` into the digest under the sampling budgets above. Zero heap
  // allocations. i8/u8 take the histogram path; f32/i32 take the
  // moments+sketch path (moments always cover every element).
  void accumulate(const Tensor& t);

  // Merges another digest over the same layer (dtype must match; the result
  // summarizes the concatenated streams).
  void merge(const LayerDigest& other);

  // Moments in real (dequantized) space.
  double mean() const;
  double stddev() const;
  double real_min() const;
  double real_max() const;

  // Values at ascending quantiles in real space, emitted as
  // QuantileSketch::quantiles emits them: sketch-backed for floats
  // (approximate within the KLL rank bound, one sort for all points),
  // histogram-backed for integers (exact up to the 1-bin value granularity,
  // one pass over the bins for all points). 0 for an empty digest.
  void quantiles(std::span<const double> points,
                 FunctionRef<void(std::size_t, double)> emit) const;
  // quantiles() at the one point q.
  double quantile(double q) const;

  bool integer_path() const {
    return dtype == DType::kI8 || dtype == DType::kU8;
  }
};

void serialize_digest(BinaryWriter& w, const LayerDigest& d);
// Reads one serialized digest into `d`, which must be in its reset state (a
// default-constructed digest is): the wire's fields and bins are written
// where d lies, and the rest keep their reset values.
void deserialize_digest(BinaryReader& r, LayerDigest& d);

// The quantile grid digest_drift compares curves on: dense enough to see
// shape changes, sparse enough to stay cheap at fleet scale.
inline constexpr double kDriftGrid[] = {0.01, 0.05, 0.10, 0.20, 0.30,
                                        0.40, 0.50, 0.60, 0.70, 0.80,
                                        0.90, 0.95, 0.99};
inline constexpr std::size_t kDriftGridPoints = std::size(kDriftGrid);

// A reference digest's side of digest_drift: its values on kDriftGrid and
// its real value range. Computed once, it scores any number of device
// digests without re-reading the reference.
struct DriftCurve {
  bool empty = true;  // the reference digested nothing
  double range = 0.0;
  double values[kDriftGridPoints] = {};
};
DriftCurve drift_curve(const LayerDigest& reference);

// Distributional drift between a device digest and a reference digest over
// the same layer: RMS distance between their quantile curves, normalized by
// the reference value range (the same normalization as the paper's rMSE-hat,
// so thresholds carry over). 0 for identical distributions; +inf when the
// reference range is degenerate but the distributions differ. For integer
// digests the quantile curves are exact, so this is a true (normalized)
// Wasserstein-style distance on the quantile grid. The digest form is
// digest_drift(device, drift_curve(reference)).
double digest_drift(const LayerDigest& device, const DriftCurve& reference);
double digest_drift(const LayerDigest& device, const LayerDigest& reference);

// Total-variation distance (0..1) between two integer digests' histograms;
// returns 0 when either side took the float path.
double digest_tv_distance(const LayerDigest& a, const LayerDigest& b);

}  // namespace mlexray
