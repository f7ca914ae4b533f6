// Fleet drift detection: streaming digests, Engine canary shadowing, and the
// .mlxtrace aggregation subsystem (src/drift/).
//
// Locks in the contracts the drift subsystem claims:
//  - the KLL-style quantile sketch tracks exact quantiles within a
//    conservative rank-error bound, and merging shard sketches is
//    equivalent (within that bound) to sketching the concatenated stream;
//  - int8/uint8 digests are exact: histogram-256 merges losslessly and
//    quantiles/moments equal the offline computation bit-for-bit;
//  - digests round-trip the v2 wire format, and v1 trace files (no digest
//    section) still load;
//  - TraceBuffer digest capture equals digesting the raw captured tensors;
//  - Engine canary mode reproduces the offline Fig-6 verdict online: with a
//    bug-emulation variant as the canary reference, the canary's
//    PerLayerReport matches DeploymentValidator::per_layer_drift's row by
//    row on full traces of the same runs;
//  - the DriftAggregator ranks the outlier device and localizes the fleet
//    first suspect from digest-only traces, and a one-device aggregator
//    gives the digest-only verdict on one trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/common/file_io.h"
#include "src/core/monitor.h"
#include "src/core/validation.h"
#include "src/drift/aggregator.h"
#include "src/drift/digest.h"
#include "src/graph/builder.h"
#include "src/interpreter/engine.h"
#include "src/interpreter/session.h"
#include "src/quant/quantizer.h"
#include "tests/test_util.h"

namespace mlexray {
namespace {

// Bug-emulation variant: same architecture and node names, but one layer's
// filter is scaled — the "wrong weights shipped" class of deployment bug.
// Layers before it stay bit-identical; the perturbed layer and everything
// downstream drift.
Graph perturbed_conv_stack(std::uint64_t seed, const std::string& layer,
                           float factor) {
  Pcg32 rng(seed);
  Graph g = conv_stack_graph(&rng);
  bool found = false;
  for (Node& node : g.nodes) {
    if (node.name != layer) continue;
    Tensor& w = node.weights.at(0);
    float* p = w.data<float>();
    for (std::int64_t i = 0; i < w.num_elements(); ++i) p[i] *= factor;
    found = true;
  }
  MLX_CHECK(found) << "no layer named " << layer;
  return g;
}

// Fraction of `sorted` strictly below v: the empirical rank of a sketch
// answer, for rank-error assertions against the exact stream.
double rank_of(const std::vector<float>& sorted, float v) {
  const auto it = std::lower_bound(sorted.begin(), sorted.end(), v);
  return static_cast<double>(it - sorted.begin()) /
         static_cast<double>(sorted.size());
}

constexpr double kQueryGrid[] = {0.01, 0.05, 0.1, 0.25, 0.5,
                                 0.75, 0.9,  0.95, 0.99};

// Conservative end-to-end rank bound for this sketch geometry (kLevelCap=32).
// The expected KLL error is far smaller; the tests assert the loose bound so
// they stay deterministic-seed-robust rather than tuned to one stream.
constexpr double kRankBound = 0.08;

TEST(QuantileSketch, TracksExactQuantilesWithinRankBound) {
  constexpr int kN = 20000;
  Pcg32 rng(301);
  QuantileSketch sketch;
  std::vector<float> values;
  values.reserve(kN);
  for (int i = 0; i < kN; ++i) {
    // A skewed mixture, not just uniform: two modes of different widths.
    const float v = (i % 3 == 0) ? rng.uniform(-4.0f, -2.0f)
                                 : rng.uniform(0.0f, 1.0f);
    values.push_back(v);
    sketch.add(v);
  }
  EXPECT_EQ(sketch.weight(), static_cast<std::uint64_t>(kN))
      << "compaction must preserve total weight";
  std::sort(values.begin(), values.end());
  for (double q : kQueryGrid) {
    const double rank = rank_of(values, sketch.quantile(q));
    EXPECT_NEAR(rank, q, kRankBound) << "quantile " << q;
  }
  // Resetting forgets the stream.
  sketch.reset();
  EXPECT_TRUE(sketch.empty());
  EXPECT_EQ(sketch.weight(), 0u);
}

// Past ~2.1M items the top level compacts in place, and each top item then
// stands for more inputs than a promoted survivor. A run entering the top,
// promoted from below or merged from a sketch with a smaller shift, is
// thinned to the top's weight; otherwise weight() overcounts and later
// samples outweigh earlier ones. A stream whose second half lies above its
// first shows both: 2^21 draws from [0, 1) then 2^21 from [1, 2) have
// quartiles 0.5, 1.0 and 1.5, and so does its union with 3 * 2^20 draws
// from [0, 2), a sketch with a smaller top shift, merged either way round.
TEST(QuantileSketch, KeepsWeightAndQuartilesPastSaturation) {
  constexpr std::uint64_t kHalf = std::uint64_t{1} << 21;
  Pcg32 rng(7);
  const auto stream = [&](QuantileSketch& sketch, std::uint64_t n, float lo,
                          float hi) {
    for (std::uint64_t i = 0; i < n; ++i) sketch.add(rng.uniform(lo, hi));
  };
  const auto expect_quartiles = [](const QuantileSketch& sketch,
                                   std::uint64_t items, const char* what) {
    EXPECT_NEAR(static_cast<double>(sketch.weight()),
                static_cast<double>(items), 0.01 * static_cast<double>(items))
        << what;
    const double points[] = {0.25, 0.5, 0.75};
    sketch.quantiles(points, [&](std::size_t i, float v) {
      EXPECT_NEAR(v, 0.5 * static_cast<double>(i + 1), 0.1)
          << what << ": quartile " << i + 1;
    });
  };
  QuantileSketch two_phase;
  stream(two_phase, kHalf, 0.0f, 1.0f);
  stream(two_phase, kHalf, 1.0f, 2.0f);
  expect_quartiles(two_phase, 2 * kHalf, "two-phase stream");

  QuantileSketch uniform;
  stream(uniform, 3 * kHalf / 2, 0.0f, 2.0f);
  constexpr std::uint64_t kUnion = 2 * kHalf + 3 * kHalf / 2;
  QuantileSketch into_uniform = uniform;
  into_uniform.merge(two_phase);
  expect_quartiles(into_uniform, kUnion, "two-phase merged into uniform");
  QuantileSketch into_two_phase = two_phase;
  into_two_phase.merge(uniform);
  expect_quartiles(into_two_phase, kUnion, "uniform merged into two-phase");
}

// The mergeable-sketch contract the fleet aggregator rests on: a digest
// merged over N shards answers like a digest of the concatenated stream.
// Moments are exact either way; quantiles obey the same rank bound.
TEST(LayerDigest, MergedShardsMatchConcatenatedStream) {
  constexpr int kShards = 6;
  // Each shard's sketch stride-samples under kSketchSampleBudget; merged and
  // whole digests see the identical sampled subset, and the rank bound below
  // absorbs the sampling noise (~750 samples across shards).
  constexpr std::int64_t kShardElems = 2000;
  Pcg32 rng(311);

  std::vector<float> all;
  LayerDigest merged;
  merged.reset();
  LayerDigest whole;
  whole.reset();
  std::vector<Tensor> shards;
  for (int s = 0; s < kShards; ++s) {
    Tensor t = Tensor::f32(Shape{kShardElems});
    float* p = t.data<float>();
    for (std::int64_t i = 0; i < kShardElems; ++i) {
      p[i] = rng.uniform(-1.0f, 1.0f) + 0.5f * static_cast<float>(s);
    }
    all.insert(all.end(), p, p + kShardElems);
    LayerDigest shard;
    shard.reset();
    shard.accumulate(t);
    merged.merge(shard);
    shards.push_back(std::move(t));
  }
  for (const Tensor& t : shards) whole.accumulate(t);

  const std::int64_t n = static_cast<std::int64_t>(all.size());
  double exact_sum = 0.0;
  for (float v : all) exact_sum += v;
  std::vector<float> sorted = all;
  std::sort(sorted.begin(), sorted.end());

  for (const LayerDigest* d : {&merged, &whole}) {
    EXPECT_EQ(d->count, static_cast<std::uint64_t>(n));
    // Moments are exact over every element regardless of sharding.
    EXPECT_NEAR(d->mean(), exact_sum / static_cast<double>(n), 1e-6);
    EXPECT_EQ(d->real_min(), static_cast<double>(sorted.front()));
    EXPECT_EQ(d->real_max(), static_cast<double>(sorted.back()));
    for (double q : kQueryGrid) {
      const double rank =
          rank_of(sorted, static_cast<float>(d->quantile(q)));
      EXPECT_NEAR(rank, q, kRankBound)
          << (d == &merged ? "merged" : "whole") << " quantile " << q;
    }
  }
  // The two digests also agree with each other distributionally.
  EXPECT_LT(digest_drift(merged, whole), 0.05);
}

TEST(LayerDigest, Int8HistogramMergesExactly) {
  Pcg32 rng(321);
  const QuantParams qp = QuantParams::per_tensor(0.05f, -3);
  auto make = [&](std::int64_t n) {
    Tensor t = Tensor::i8(Shape{n});
    t.quant() = qp;
    std::int8_t* p = t.data<std::int8_t>();
    for (std::int64_t i = 0; i < n; ++i) {
      p[i] = static_cast<std::int8_t>(rng.uniform(-100.0f, 100.0f));
    }
    return t;
  };
  // Both under kIntHistSampleBudget, so every element lands in the histogram
  // and all derived statistics are exact.
  Tensor a = make(150);
  Tensor b = make(250);

  LayerDigest da;
  da.reset();
  da.accumulate(a);
  LayerDigest db;
  db.reset();
  db.accumulate(b);
  LayerDigest merged = da;
  merged.merge(db);

  LayerDigest whole;
  whole.reset();
  whole.accumulate(a);
  whole.accumulate(b);

  // Histograms over the 256-value domain merge losslessly: every derived
  // statistic is bit-identical with the single-pass digest.
  EXPECT_EQ(merged.count, whole.count);
  EXPECT_EQ(0, std::memcmp(merged.hist, whole.hist, sizeof(merged.hist)));
  EXPECT_EQ(merged.isum, whole.isum);
  EXPECT_EQ(merged.isum_sq, whole.isum_sq);
  EXPECT_DOUBLE_EQ(merged.mean(), whole.mean());
  EXPECT_DOUBLE_EQ(merged.stddev(), whole.stddev());
  for (double q : kQueryGrid) {
    EXPECT_DOUBLE_EQ(merged.quantile(q), whole.quantile(q));
  }
  EXPECT_EQ(digest_tv_distance(merged, whole), 0.0);
  EXPECT_EQ(digest_drift(merged, whole), 0.0);

  // And the exact quantiles dequantize: compare against offline sort. The
  // digest dequantizes with the tensor's f32 scale, so the oracle must too.
  const double scale = static_cast<double>(qp.scales[0]);
  std::vector<double> real;
  for (const Tensor* t : {&a, &b}) {
    const std::int8_t* p = t->data<std::int8_t>();
    for (std::int64_t i = 0; i < t->num_elements(); ++i) {
      real.push_back(scale * (p[i] - (-3)));
    }
  }
  std::sort(real.begin(), real.end());
  const double p50 = merged.quantile(0.5);
  // Nearest-rank on an exact histogram: within one quant step of the sorted
  // stream's nearest-rank answer.
  EXPECT_NEAR(p50, real[real.size() / 2], scale + 1e-12);
  EXPECT_DOUBLE_EQ(merged.real_min(), real.front());
  EXPECT_DOUBLE_EQ(merged.real_max(), real.back());
}

// The capture-cost contract: one accumulate() call inserts a bounded number
// of samples no matter how large the layer is, while float moments stay
// exact over every element.
TEST(LayerDigest, LargeLayersRespectSamplingBudgets) {
  Pcg32 rng(341);
  constexpr std::int64_t kBig = 100000;
  Tensor f = random_input(Shape{kBig}, rng);

  LayerDigest df;
  df.reset();
  df.accumulate(f);
  // Moments cover all elements; the sketch holds at most the budget.
  EXPECT_EQ(df.count, static_cast<std::uint64_t>(kBig));
  double exact_sum = 0.0;
  float mx = -std::numeric_limits<float>::infinity();
  const float* p = f.data<float>();
  for (std::int64_t i = 0; i < kBig; ++i) {
    exact_sum += p[i];
    mx = std::max(mx, p[i]);
  }
  EXPECT_NEAR(df.mean(), exact_sum / kBig, 1e-6);
  EXPECT_EQ(df.real_max(), static_cast<double>(mx));
  EXPECT_LE(df.sketch.weight(),
            static_cast<std::uint64_t>(LayerDigest::kSketchSampleBudget));
  EXPECT_GE(df.sketch.weight(),
            static_cast<std::uint64_t>(LayerDigest::kSketchSampleBudget / 2));

  Tensor q = Tensor::i8(Shape{kBig});
  q.quant() = QuantParams::per_tensor(0.02f, 0);
  for (std::int64_t i = 0; i < kBig; ++i) {
    q.data<std::int8_t>()[i] =
        static_cast<std::int8_t>(rng.uniform(-90.0f, 90.0f));
  }
  LayerDigest dq;
  dq.reset();
  dq.accumulate(q);
  // The histogram digests the stride-sampled subset and count matches it.
  EXPECT_LE(dq.count,
            static_cast<std::uint64_t>(LayerDigest::kIntHistSampleBudget));
  EXPECT_GE(dq.count,
            static_cast<std::uint64_t>(LayerDigest::kIntHistSampleBudget / 2));
  std::uint64_t hist_total = 0;
  for (int b = 0; b < 256; ++b) hist_total += dq.hist[b];
  EXPECT_EQ(hist_total, dq.count);
  // A uniform stride over i.i.d. data is still an unbiased sample: the
  // histogram median lands near the true median (0 ± a few quant steps).
  EXPECT_NEAR(dq.quantile(0.5), 0.0, 5 * 0.02);
}

TEST(DigestWire, RoundTripsFloatAndIntDigests) {
  Pcg32 rng(331);
  Tensor f = random_input(Shape{1, 8, 8, 8}, rng);
  LayerDigest df;
  df.reset();
  df.accumulate(f);

  Tensor q = Tensor::i8(Shape{512});
  q.quant() = QuantParams::per_tensor(0.1f, 7);
  for (std::int64_t i = 0; i < q.num_elements(); ++i) {
    q.data<std::int8_t>()[i] = static_cast<std::int8_t>(rng.uniform(-50, 50));
  }
  LayerDigest dq;
  dq.reset();
  dq.accumulate(q);

  for (const LayerDigest* d : {&df, &dq}) {
    BinaryWriter w;
    serialize_digest(w, *d);
    BinaryReader r(w.bytes());
    LayerDigest back;
    deserialize_digest(r, back);
    EXPECT_TRUE(r.at_end()) << "digest wire frame has trailing bytes";
    EXPECT_EQ(back.dtype, d->dtype);
    EXPECT_EQ(back.count, d->count);
    EXPECT_DOUBLE_EQ(back.mean(), d->mean());
    EXPECT_DOUBLE_EQ(back.stddev(), d->stddev());
    EXPECT_DOUBLE_EQ(back.real_min(), d->real_min());
    EXPECT_DOUBLE_EQ(back.real_max(), d->real_max());
    for (double qq : kQueryGrid) {
      EXPECT_DOUBLE_EQ(back.quantile(qq), d->quantile(qq));
    }
    EXPECT_EQ(digest_drift(back, *d), 0.0);
  }
  // The sparse bin encoding reconstructs the full histogram bit-for-bit.
  BinaryWriter w;
  serialize_digest(w, dq);
  BinaryReader r(w.bytes());
  LayerDigest back;
  deserialize_digest(r, back);
  EXPECT_EQ(0, std::memcmp(back.hist, dq.hist, sizeof(dq.hist)));
  EXPECT_EQ(back.scale, dq.scale);
  EXPECT_EQ(back.zero_point, dq.zero_point);
}

// --- quantile curves: one sort, one histogram pass ---------------------------

// Equal bit patterns: the new paths claim the old arithmetic exactly.
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// A sketch's retained items with their weights, read back from its wire form.
struct RetainedItems {
  std::vector<std::pair<float, std::uint64_t>> items;  // value, weight
  std::uint32_t top_shift = 0;
};
RetainedItems retained_items(const QuantileSketch& sketch) {
  BinaryWriter w;
  sketch.serialize(w);
  BinaryReader r(w.bytes());
  const std::uint32_t levels = r.read_u32();
  r.read_u32();  // level capacity
  RetainedItems out;
  out.top_shift = r.read_u32();
  for (std::uint32_t l = 0; l < levels; ++l) {
    std::uint64_t weight = std::uint64_t{1} << l;
    if (l + 1 == levels) weight <<= out.top_shift;
    const std::uint32_t n = r.read_u32();
    for (std::uint32_t i = 0; i < n; ++i) {
      out.items.emplace_back(r.read_f32(), weight);
    }
  }
  return out;
}

// The per-point definition of a sketch quantile: rank the retained items by
// value; the answer is the first whose cumulative weight reaches q of the
// total (clamped), else the largest.
float sketch_quantile_by_definition(const QuantileSketch& sketch, double q) {
  auto items = retained_items(sketch).items;
  if (items.empty()) return 0.0f;
  std::stable_sort(
      items.begin(), items.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  std::uint64_t total = 0;
  for (const auto& item : items) total += item.second;
  const double target = std::clamp(q, 0.0, 1.0) * static_cast<double>(total);
  std::uint64_t cum = 0;
  for (const auto& item : items) {
    cum += item.second;
    if (static_cast<double>(cum) >= target) return item.first;
  }
  return items.back().first;
}

// The per-point definition of a digest quantile: the sketch's for floats;
// for integers the first bin whose nonzero cumulative count reaches q of the
// count, dequantized, else the largest value.
double digest_quantile_by_definition(const LayerDigest& d, double q) {
  if (d.count == 0) return 0.0;
  if (!d.integer_path()) {
    return static_cast<double>(sketch_quantile_by_definition(d.sketch, q));
  }
  const double target = std::clamp(q, 0.0, 1.0) * static_cast<double>(d.count);
  std::uint64_t cum = 0;
  for (int b = 0; b < 256; ++b) {
    cum += d.hist[b];
    if (static_cast<double>(cum) >= target && cum > 0) {
      const double raw = d.dtype == DType::kI8 ? b - 128 : b;
      if (d.scale == 0.0f) return raw;
      return static_cast<double>(d.scale) * (raw - d.zero_point);
    }
  }
  return d.real_max();
}

// Ascending, with repeats and points clamped at both ends.
const std::vector<double> kWalkGrid = {-0.25, 0.0,  0.01, 0.05, 0.1,  0.2,
                                       0.25,  0.3,  0.4,  0.5,  0.5,  0.6,
                                       0.7,   0.75, 0.8,  0.9,  0.95, 0.99,
                                       1.0,   1.25};

void expect_sketch_quantiles_exact(const QuantileSketch& sketch,
                                   const char* what) {
  std::vector<float> walked(kWalkGrid.size(), -1.0f);
  sketch.quantiles(kWalkGrid, [&](std::size_t i, float v) { walked[i] = v; });
  for (std::size_t i = 0; i < kWalkGrid.size(); ++i) {
    const double q = kWalkGrid[i];
    EXPECT_TRUE(same_bits(walked[i], sketch.quantile(q)))
        << what << " q=" << q << ": " << walked[i] << " vs "
        << sketch.quantile(q);
    EXPECT_TRUE(same_bits(walked[i], sketch_quantile_by_definition(sketch, q)))
        << what << " q=" << q;
  }
}

void expect_digest_quantiles_exact(const LayerDigest& d, const char* what) {
  std::vector<double> walked(kWalkGrid.size(), -1.0);
  d.quantiles(kWalkGrid, [&](std::size_t i, double v) { walked[i] = v; });
  for (std::size_t i = 0; i < kWalkGrid.size(); ++i) {
    const double q = kWalkGrid[i];
    EXPECT_TRUE(same_bits(walked[i], d.quantile(q)))
        << what << " q=" << q << ": " << walked[i] << " vs " << d.quantile(q);
    EXPECT_TRUE(same_bits(walked[i], digest_quantile_by_definition(d, q)))
        << what << " q=" << q;
  }
}

TEST(QuantileCurve, SketchWalkMatchesOnePointQuantilesBitForBit) {
  QuantileSketch empty;
  expect_sketch_quantiles_exact(empty, "empty");

  QuantileSketch one;
  one.add(3.5f);
  expect_sketch_quantiles_exact(one, "one item");

  // Heavy ties: three values repeated across many compactions.
  QuantileSketch ties;
  for (int i = 0; i < 5000; ++i) {
    ties.add(static_cast<float>(i % 7 == 0 ? 2 : i % 3));
  }
  expect_sketch_quantiles_exact(ties, "heavy ties");

  // A merged stream past level 0.
  Pcg32 rng(331);
  QuantileSketch a, b;
  for (int i = 0; i < 3000; ++i) a.add(rng.uniform(-1.0f, 1.0f));
  for (int i = 0; i < 2500; ++i) b.add(rng.uniform(0.5f, 4.0f));
  a.merge(b);
  ASSERT_GT(retained_items(a).items.size(),
            static_cast<std::size_t>(QuantileSketch::kLevelCap));
  expect_sketch_quantiles_exact(a, "merged");

  // A saturated top level: past kLevelCap * 2^(kLevels - 1) items the top
  // level compacts in place and its weight doubles per compaction.
  QuantileSketch saturated;
  const std::int64_t n =
      std::int64_t{QuantileSketch::kLevelCap} << (QuantileSketch::kLevels + 1);
  for (std::int64_t i = 0; i < n; ++i) {
    saturated.add(static_cast<float>((i * 7919) % 10007));
  }
  ASSERT_GT(retained_items(saturated).top_shift, 0u);
  expect_sketch_quantiles_exact(saturated, "saturated top");

  const std::vector<double> descending = {0.5, 0.4};
  EXPECT_THROW(a.quantiles(descending, [](std::size_t, float) {}), MlxError);
}

TEST(QuantileCurve, DigestWalkMatchesOnePointQuantilesBitForBit) {
  Pcg32 rng(341);
  // i8 over the middle of the domain: bins empty at both ends.
  Tensor i8 = Tensor::i8(Shape{200});
  i8.quant() = QuantParams::per_tensor(0.05f, -3);
  for (std::int64_t i = 0; i < i8.num_elements(); ++i) {
    i8.data<std::int8_t>()[i] =
        static_cast<std::int8_t>(rng.uniform(-40.0f, 40.0f));
  }
  LayerDigest di8;
  di8.accumulate(i8);
  ASSERT_EQ(di8.hist[0], 0u);
  ASSERT_EQ(di8.hist[255], 0u);
  expect_digest_quantiles_exact(di8, "i8");

  // u8 with scale 0: raw sensor bytes, compared unscaled.
  Tensor u8 = Tensor::u8(Shape{180});
  for (std::int64_t i = 0; i < u8.num_elements(); ++i) {
    u8.data<std::uint8_t>()[i] =
        static_cast<std::uint8_t>(rng.uniform(20.0f, 230.0f));
  }
  LayerDigest du8;
  du8.accumulate(u8);
  ASSERT_EQ(du8.scale, 0.0f);
  expect_digest_quantiles_exact(du8, "u8 scale 0");

  // A count the bins do not reach (hostile wire): points past the bins
  // fall back to the largest value.
  LayerDigest short_bins;
  short_bins.dtype = DType::kI8;
  short_bins.scale = 0.25f;
  short_bins.count = 40;
  short_bins.hist[100] = 6;
  short_bins.hist[140] = 4;
  expect_digest_quantiles_exact(short_bins, "count past the bins");

  LayerDigest floats;
  floats.accumulate(random_input(Shape{1, 8, 8, 8}, rng));
  expect_digest_quantiles_exact(floats, "f32");

  LayerDigest empty;
  expect_digest_quantiles_exact(empty, "empty");

  const std::vector<double> descending = {0.9, 0.1};
  for (const LayerDigest* d : {&di8, &floats}) {
    EXPECT_THROW(d->quantiles(descending, [](std::size_t, double) {}),
                 MlxError);
  }
}

// digest_drift by its per-point definition: each grid point's device and
// reference quantiles, one squared difference accumulated per point.
double drift_by_definition(const LayerDigest& device,
                           const LayerDigest& reference) {
  if (device.count == 0 || reference.count == 0) return 0.0;
  const double range = reference.real_max() - reference.real_min();
  double sq = 0.0;
  for (double q : kDriftGrid) {
    const double diff = digest_quantile_by_definition(device, q) -
                        digest_quantile_by_definition(reference, q);
    sq += diff * diff;
  }
  const double rms = std::sqrt(sq / static_cast<double>(kDriftGridPoints));
  if (range <= 0.0) {
    return rms == 0.0 ? 0.0 : std::numeric_limits<double>::infinity();
  }
  return rms / range;
}

TEST(QuantileCurve, DigestDriftMatchesItsPerPointDefinitionBitForBit) {
  Pcg32 rng(351);
  auto int8_digest = [&](int n) {
    Tensor q = Tensor::i8(Shape{n});
    q.quant() = QuantParams::per_tensor(
        rng.uniform(0.001f, 0.2f),
        static_cast<int>(rng.uniform(-20.0f, 20.0f)));
    const float lo = rng.uniform(-60.0f, 0.0f);
    const float hi = rng.uniform(0.0f, 60.0f);
    for (int i = 0; i < n; ++i) {
      q.data<std::int8_t>()[i] = static_cast<std::int8_t>(rng.uniform(lo, hi));
    }
    LayerDigest d;
    d.accumulate(q);
    return d;
  };
  auto float_digest = [&](int n, int frames) {
    LayerDigest d;
    const float center = rng.uniform(-3.0f, 3.0f);
    const float spread = rng.uniform(0.01f, 4.0f);
    for (int f = 0; f < frames; ++f) {
      Tensor t = Tensor::f32(Shape{n});
      for (int i = 0; i < n; ++i) {
        t.data<float>()[i] = center + spread * rng.uniform(-1.0f, 1.0f);
      }
      d.accumulate(t);
    }
    return d;
  };
  auto expect_exact = [](const LayerDigest& device,
                         const LayerDigest& reference,
                         const std::string& what) {
    const double want = drift_by_definition(device, reference);
    EXPECT_TRUE(same_bits(digest_drift(device, reference), want))
        << what << ": " << digest_drift(device, reference) << " vs " << want;
    EXPECT_TRUE(same_bits(digest_drift(device, drift_curve(reference)), want))
        << what;
  };
  // Random int8 devices against float references and back, float against
  // float over merged frames, int8 against int8.
  for (int k = 0; k < 300; ++k) {
    const int nq = 1 + static_cast<int>(rng.uniform(0.0f, 600.0f));
    const int nf = 1 + static_cast<int>(rng.uniform(0.0f, 600.0f));
    const LayerDigest q = int8_digest(nq);
    const LayerDigest f = float_digest(nf, 1 + k % 4);
    const std::string at = " pair " + std::to_string(k);
    expect_exact(q, f, "int8 vs f32" + at);
    expect_exact(f, q, "f32 vs int8" + at);
    expect_exact(f, float_digest(64, 3), "f32 vs f32" + at);
    expect_exact(q, int8_digest(300), "int8 vs int8" + at);
  }
  // Degenerate reference ranges (0, or +inf when the device differs) and
  // empty sides (0).
  LayerDigest constant;
  constant.accumulate(Tensor::f32(Shape{4}, {2.0f, 2.0f, 2.0f, 2.0f}));
  LayerDigest other;
  other.accumulate(Tensor::f32(Shape{3}, {1.0f, 2.0f, 3.0f}));
  expect_exact(constant, constant, "constant vs itself");
  expect_exact(other, constant, "against a constant");
  EXPECT_TRUE(std::isinf(digest_drift(other, constant)));
  expect_exact(LayerDigest{}, other, "empty device");
  expect_exact(other, LayerDigest{}, "empty reference");
}

TEST(TraceFormat, V1FilesWithoutDigestSectionStillLoad) {
  // A v1 stream as the retired v1 writer emitted it: v1 magic ("TXLM"),
  // pipeline "legacy", one frame with scalar latency.inference_ms = 1.0,
  // layers "a" and "b" with f32 outputs of 4 and 6 values, latencies
  // {0.25, 0.5}, and no digest section after the latencies — exactly what
  // every pre-digest .mlxtrace on disk looks like.
  static const std::uint8_t kV1Trace[] = {
      0x54, 0x58, 0x4c, 0x4d, 0x06, 0x00, 0x00, 0x00, 0x6c, 0x65, 0x67, 0x61,
      0x63, 0x79, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x6c, 0x61,
      0x74, 0x65, 0x6e, 0x63, 0x79, 0x2e, 0x69, 0x6e, 0x66, 0x65, 0x72, 0x65,
      0x6e, 0x63, 0x65, 0x5f, 0x6d, 0x73, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0xf0, 0x3f, 0x02, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x61, 0x01,
      0x00, 0x00, 0x00, 0x62, 0x02, 0x00, 0x00, 0x00, 0x00, 0x01, 0x04, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x10, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x8c, 0xc7,
      0x99, 0xbe, 0xe0, 0xc5, 0x30, 0xbd, 0x52, 0x7f, 0xa6, 0xbf, 0x5a, 0xd6,
      0x83, 0xbf, 0x00, 0x01, 0x06, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x18, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x60, 0x19, 0x5b, 0x3e, 0xf8, 0x3c, 0xd1, 0x3e,
      0xa0, 0x85, 0x4c, 0x3e, 0x02, 0xc4, 0x2a, 0xbf, 0x00, 0x08, 0x04, 0xbb,
      0x18, 0x89, 0xad, 0x3f, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0xd0, 0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0, 0x3f};
  // The layer outputs the fixture holds.
  Pcg32 rng(341);
  const Tensor out_a = random_input(Shape{4}, rng);
  const Tensor out_b = random_input(Shape{6}, rng);
  const auto path =
      std::filesystem::temp_directory_path() / "mlx_drift_v1.mlxtrace";
  write_file(path, std::vector<std::uint8_t>(std::begin(kV1Trace),
                                             std::end(kV1Trace)));

  Trace back = load_trace(path);
  std::filesystem::remove(path);
  EXPECT_EQ(back.pipeline_name, "legacy");
  ASSERT_EQ(back.frames.size(), 1u);
  const FrameTrace& g = back.frames[0];
  EXPECT_EQ(g.layer_names, (std::vector<std::string>{"a", "b"}));
  ASSERT_EQ(g.layer_outputs.size(), 2u);
  EXPECT_TRUE(same_bytes(g.layer_outputs[0], out_a));
  EXPECT_TRUE(same_bytes(g.layer_outputs[1], out_b));
  EXPECT_EQ(g.layer_latency_ms, (std::vector<double>{0.25, 0.5}));
  EXPECT_DOUBLE_EQ(g.scalar("latency.inference_ms"), 1.0);
  EXPECT_TRUE(g.layer_digests.empty());
}

TEST(TraceFormat, V2RoundTripsDigestsAndV1RefusesThem) {
  FrameTrace f;
  f.frame_id = 3;
  f.layer_names = {"a"};
  Pcg32 rng(351);
  Tensor t = random_input(Shape{64}, rng);
  LayerDigest d;
  d.reset();
  d.accumulate(t);
  f.layer_digests.push_back(d);

  Trace trace;
  trace.pipeline_name = "digests";
  trace.frames.push_back(f);
  const auto path =
      std::filesystem::temp_directory_path() / "mlx_drift_v2.mlxtrace";
  save_trace(trace, path);  // current format: v2
  Trace back = load_trace(path);
  std::filesystem::remove(path);
  ASSERT_EQ(back.frames.size(), 1u);
  ASSERT_EQ(back.frames[0].layer_digests.size(), 1u);
  const LayerDigest& bd = back.frames[0].layer_digests[0];
  EXPECT_EQ(bd.count, d.count);
  EXPECT_DOUBLE_EQ(bd.mean(), d.mean());
  EXPECT_EQ(digest_drift(bd, d), 0.0);
}

TEST(DigestCapture, ObserverDigestsMatchDirectAccumulate) {
  Pcg32 rng_a(361), rng_b(361);  // identical weights
  Graph ga = conv_stack_graph(&rng_a);
  Graph gb = conv_stack_graph(&rng_b);
  BuiltinOpResolver opt;
  Pcg32 drng(362);
  std::vector<Tensor> inputs;
  for (int i = 0; i < 3; ++i) {
    inputs.push_back(random_input(Shape{1, 16, 16, 8}, drng));
  }

  // Digest-mode capture (the fleet monitoring mode)...
  Model model_a(&ga, &opt);
  Session sa(&model_a);
  MonitorOptions digest_opts;
  digest_opts.per_layer_outputs = false;
  digest_opts.per_layer_digests = true;
  EdgeMLMonitor ma(digest_opts);
  ma.observe(sa);
  // ...and raw-output capture of the same run, as the digest ground truth.
  Model model_b(&gb, &opt);
  Session sb(&model_b);
  MonitorOptions raw_opts;
  raw_opts.per_layer_outputs = true;
  EdgeMLMonitor mb(raw_opts);
  mb.observe(sb);

  auto run_frame = [](EdgeMLMonitor& monitor, Session& session,
                      const Tensor& in) {
    session.set_input(0, in);
    monitor.on_inf_start();
    session.invoke();
    monitor.on_inf_stop(session);
    monitor.next_frame();
  };
  for (const Tensor& in : inputs) {
    run_frame(ma, sa, in);
    run_frame(mb, sb, in);
  }
  ma.unobserve(sa);
  mb.unobserve(sb);

  const Trace& digest_trace = ma.trace();
  const Trace& raw_trace = mb.trace();
  ASSERT_EQ(digest_trace.frames.size(), inputs.size());
  for (std::size_t fi = 0; fi < inputs.size(); ++fi) {
    const FrameTrace& fd = digest_trace.frames[fi];
    const FrameTrace& fr = raw_trace.frames[fi];
    ASSERT_EQ(fd.layer_names, fr.layer_names);
    ASSERT_EQ(fd.layer_digests.size(), fd.layer_names.size());
    EXPECT_TRUE(fd.layer_outputs.empty())
        << "digest mode must not capture raw tensors";
    // digest_layer_outputs() digests the raw capture on the fly; the
    // streaming capture must agree exactly (same accumulate order).
    const std::vector<LayerDigest> want = digest_layer_outputs(fr);
    ASSERT_EQ(want.size(), fd.layer_digests.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      const LayerDigest& got = fd.layer_digests[i];
      EXPECT_EQ(got.count, want[i].count) << fd.layer_names[i];
      EXPECT_EQ(got.dtype, want[i].dtype);
      EXPECT_DOUBLE_EQ(got.mean(), want[i].mean());
      EXPECT_DOUBLE_EQ(got.real_min(), want[i].real_min());
      EXPECT_DOUBLE_EQ(got.real_max(), want[i].real_max());
      for (double q : {0.1, 0.5, 0.9}) {
        EXPECT_DOUBLE_EQ(got.quantile(q), want[i].quantile(q))
            << fd.layer_names[i] << " q=" << q;
      }
    }
  }
}

TEST(DigestCapture, QuantizedLayersTakeTheExactHistogramPath) {
  Pcg32 rng(371);
  Graph m = conv_stack_graph(&rng);
  Calibrator calib(&m);
  Pcg32 crng(372);
  for (int i = 0; i < 4; ++i) {
    calib.observe({random_input(Shape{1, 16, 16, 8}, crng)});
  }
  Graph qm = quantize_model(m, calib);
  BuiltinOpResolver opt;
  Model model(&qm, &opt);
  Session session(&model);
  MonitorOptions opts;
  opts.per_layer_digests = true;
  EdgeMLMonitor monitor(opts);
  monitor.observe(session);
  Pcg32 drng(373);
  session.set_input(0, random_input(Shape{1, 16, 16, 8}, drng));
  monitor.on_inf_start();
  session.invoke();
  monitor.on_inf_stop(session);
  monitor.next_frame();
  monitor.unobserve(session);

  const FrameTrace& f = monitor.trace().frames.at(0);
  int int8_digests = 0;
  for (std::size_t i = 0; i < f.layer_digests.size(); ++i) {
    const LayerDigest& d = f.layer_digests[i];
    EXPECT_EQ(d.dtype, session.plan().steps()[i].node->output_dtype);
    if (d.integer_path()) {
      ++int8_digests;
      EXPECT_GT(d.scale, 0.0f) << "int digest lost its quant params";
      std::uint64_t total = 0;
      for (int b = 0; b < 256; ++b) total += d.hist[b];
      EXPECT_EQ(total, d.count) << "histogram does not cover every element";
    }
  }
  EXPECT_GT(int8_digests, 0) << "quantized model produced no int8 digests";
}

// --- canary mode -------------------------------------------------------------

// The acceptance criterion: the canary's streaming first-suspect verdict
// matches the offline per_layer_drift verdict for the same bug, with the
// bug-emulation variant registered as the canary reference.
TEST(Canary, FirstSuspectMatchesOfflinePerLayerDrift) {
  constexpr std::uint64_t kSeed = 401;
  // Multiplicative weight bugs cap out low under range normalization (the
  // reference range grows with the same factor), so the threshold sits below
  // per_layer_drift's 0.1 default: c2 lands at ~0.063, clean layers at 0.
  constexpr double kThreshold = 0.05;
  const std::string bug_layer = "c2";
  BuiltinOpResolver opt;
  Pcg32 rng_prod(kSeed);
  Graph prod = conv_stack_graph(&rng_prod);
  Graph reference = perturbed_conv_stack(kSeed, bug_layer, 1.75f);

  Pcg32 drng(402);
  std::vector<Tensor> inputs;
  for (int i = 0; i < 6; ++i) {
    inputs.push_back(random_input(Shape{1, 16, 16, 8}, drng));
  }

  // Online: serve `prod`, shadow every release through the bug variant.
  Engine engine(&opt);
  engine.load("m", prod);
  CanaryOptions copts;
  copts.shadow_every = 1;
  copts.drift_threshold = kThreshold;
  engine.enable_canary("m", reference, nullptr, copts);
  std::vector<CanaryShadowEvent> events;
  engine.set_canary_observer(
      "m", [&](const CanaryShadowEvent& e) { events.push_back(e); });
  for (const Tensor& in : inputs) {
    SessionLease lease = engine.acquire("m");
    lease->set_input(0, in);
    lease->invoke();
  }
  const CanaryReport online = engine.canary_report("m");

  // Offline: full traces of the same two pipelines over the same inputs,
  // through the paper's per-layer validation.
  MonitorOptions mopts;
  mopts.per_layer_outputs = true;
  Trace edge_trace, ref_trace;
  {
    Pcg32 rng_again(kSeed);
    Graph prod_again = conv_stack_graph(&rng_again);
    Model model(&prod_again, &opt);
    Session session(&model);
    EdgeMLMonitor monitor(mopts);
    monitor.observe(session);
    for (const Tensor& in : inputs) {
      session.set_input(0, in);
      monitor.on_inf_start();
      session.invoke();
      monitor.on_inf_stop(session);
      monitor.next_frame();
    }
    edge_trace = monitor.take_trace();
    monitor.unobserve(session);
  }
  {
    Graph ref_again = perturbed_conv_stack(kSeed, bug_layer, 1.75f);
    Model model(&ref_again, &opt);
    Session session(&model);
    EdgeMLMonitor monitor(mopts);
    monitor.observe(session);
    for (const Tensor& in : inputs) {
      session.set_input(0, in);
      monitor.on_inf_start();
      session.invoke();
      monitor.on_inf_stop(session);
      monitor.next_frame();
    }
    ref_trace = monitor.take_trace();
    monitor.unobserve(session);
  }
  DeploymentValidator validator;
  const PerLayerReport offline = validator.per_layer_drift(
      edge_trace, ref_trace, ErrorMetric::kNormalizedRmse, kThreshold);

  ASSERT_TRUE(offline.first_suspect.has_value());
  EXPECT_EQ(*offline.first_suspect, bug_layer);
  ASSERT_TRUE(online.enabled);
  EXPECT_EQ(online.shadowed, inputs.size());
  EXPECT_EQ(online.skipped_busy, 0u);
  EXPECT_EQ(online.skipped_layout, 0u);
  EXPECT_EQ(online.reference_errors, 0u);
  EXPECT_EQ(online.replay_mismatches, 0u);
  EXPECT_EQ(online.drift.threshold, offline.threshold);
  ASSERT_TRUE(online.drift.first_suspect.has_value());
  EXPECT_EQ(*online.drift.first_suspect, *offline.first_suspect)
      << "streaming canary and offline per_layer_drift disagree";

  // Row by row, the two reports agree: the canary's running means match the
  // offline averages (same metric, same frames), every row compared every
  // frame, and layers before the bug are clean.
  ASSERT_EQ(online.drift.drifts.size(), offline.drifts.size());
  bool before_bug = true;
  for (std::size_t i = 0; i < offline.drifts.size(); ++i) {
    const LayerDrift& on = online.drift.drifts[i];
    const LayerDrift& off = offline.drifts[i];
    EXPECT_EQ(on.layer, off.layer);
    EXPECT_NEAR(on.error, off.error, 1e-9) << off.layer;
    EXPECT_EQ(on.suspect, off.suspect) << off.layer;
    EXPECT_EQ(on.samples, inputs.size()) << off.layer;
    EXPECT_EQ(off.samples, inputs.size()) << off.layer;
    if (off.layer == bug_layer) before_bug = false;
    if (before_bug) {
      EXPECT_LT(on.error, 1e-9) << "layer before the bug drifted: " << on.layer;
    }
  }

  // Every shadowed frame's own report names the bug layer too.
  ASSERT_EQ(events.size(), inputs.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].shadow_index, i + 1);
    EXPECT_EQ(events[i].frame.drifts.size(), offline.drifts.size());
    ASSERT_TRUE(events[i].frame.first_suspect.has_value());
    EXPECT_EQ(*events[i].frame.first_suspect, bug_layer);
  }
}

TEST(Canary, SamplesConfiguredFractionIntoItsReport) {
  BuiltinOpResolver opt;
  Pcg32 rng_a(411), rng_b(411);
  Engine engine(&opt);
  engine.load("m", conv_stack_graph(&rng_a));
  CanaryOptions copts;
  copts.shadow_every = 4;
  engine.enable_canary("m", conv_stack_graph(&rng_b), nullptr, copts);

  Pcg32 drng(412);
  Tensor input = random_input(Shape{1, 16, 16, 8}, drng);
  constexpr int kInvokes = 12;
  for (int i = 0; i < kInvokes; ++i) {
    SessionLease lease = engine.acquire("m");
    lease->set_input(0, input);
    lease->invoke();
  }

  const CanaryReport report = engine.canary_report("m");
  EXPECT_TRUE(report.enabled);
  EXPECT_EQ(report.shadowed, static_cast<std::uint64_t>(kInvokes) / 4);
  EXPECT_EQ(report.skipped_busy + report.skipped_layout, 0u);
  EXPECT_EQ(report.reference_errors, 0u);
  // Identical weights: nothing drifts, no suspects.
  EXPECT_FALSE(report.drift.first_suspect.has_value());
  for (const LayerDrift& layer : report.drift.drifts) {
    EXPECT_FALSE(layer.suspect) << layer.layer;
    EXPECT_LT(layer.error, 1e-9) << layer.layer;
  }

  EXPECT_TRUE(engine.disable_canary("m"));
  EXPECT_FALSE(engine.disable_canary("m"));
  EXPECT_FALSE(engine.canary_report("m").enabled);
}

TEST(Canary, SurvivesHotSwapByRemappingLayerNames) {
  BuiltinOpResolver opt;
  Pcg32 rng_a(421), rng_ref(421);
  Engine engine(&opt);
  engine.load("m", conv_stack_graph(&rng_a));
  CanaryOptions copts;
  copts.shadow_every = 1;
  engine.enable_canary("m", conv_stack_graph(&rng_ref), nullptr, copts);

  Pcg32 drng(422);
  Tensor input = random_input(Shape{1, 16, 16, 8}, drng);
  auto serve_once = [&] {
    SessionLease lease = engine.acquire("m");
    lease->set_input(0, input);
    lease->invoke();
  };
  serve_once();
  EXPECT_EQ(engine.canary_report("m").shadowed, 1u);

  // Hot-swap to different weights (same names/layout): the canary remaps by
  // node name and keeps accumulating — now against a model that drifts.
  Pcg32 rng_b(423);
  engine.load("m", conv_stack_graph(&rng_b));
  serve_once();
  serve_once();
  const CanaryReport report = engine.canary_report("m");
  EXPECT_EQ(report.shadowed, 3u);
  EXPECT_EQ(report.skipped_layout, 0u);
  // v2 has different weights than the reference, so drift is now nonzero.
  double worst = 0.0;
  for (const LayerDrift& layer : report.drift.drifts) {
    worst = std::max(worst, layer.error);
  }
  EXPECT_GT(worst, 0.0);

  // A swap to an incompatible input layout stops shadowing (counted, not
  // crashed) instead of replaying mismatched inputs through the reference.
  Pcg32 rng_c(424);
  GraphBuilder b("stack", &rng_c);
  int x = b.input(Shape{1, 8, 8, 4});
  int fc = b.fully_connected(x, 10, Activation::kNone, "fc");
  engine.load("m", b.finish({fc}));
  {
    SessionLease lease = engine.acquire("m");
    Tensor small = random_input(Shape{1, 8, 8, 4}, drng);
    lease->set_input(0, small);
    lease->invoke();
  }
  const CanaryReport after = engine.canary_report("m");
  EXPECT_EQ(after.shadowed, 3u) << "mismatched layout must not be shadowed";
  EXPECT_EQ(after.skipped_layout, 1u);
}

// A pooled session is one planned block whether or not a canary is
// enabled: the canary replays a sampled frame on the released session, so a
// pool warmed before enable_canary is shadowed from its first sampled
// release, and enabling or disabling the canary destroys or builds no
// session.
TEST(Canary, WarmPoolIsShadowedAndStaysOneBlockPerSession) {
  BuiltinOpResolver opt;
  Pcg32 rng_a(431), rng_ref(431);
  Engine engine(&opt);
  const std::size_t block =
      engine.load("m", conv_stack_graph(&rng_a)).activation_layout().block_bytes;
  Pcg32 drng(432);
  const Tensor input = random_input(Shape{1, 16, 16, 8}, drng);
  constexpr std::size_t kPool = 3;
  // kPool leases held at once, each checked to hold one block, released
  // together at the end.
  const auto serve_pool = [&] {
    std::vector<SessionLease> leases;
    for (std::size_t i = 0; i < kPool; ++i) {
      leases.push_back(engine.acquire("m"));
      EXPECT_EQ(leases.back()->activation_bytes(), block) << "lease " << i;
      leases.back()->set_input(0, input);
      leases.back()->invoke();
    }
  };
  serve_pool();  // warms kPool sessions

  CanaryOptions copts;
  copts.shadow_every = 1;
  engine.enable_canary("m", conv_stack_graph(&rng_ref), nullptr, copts);
  serve_pool();  // the warm pool: every release shadowed
  serve_pool();  // the same sessions again
  const CanaryReport report = engine.canary_report("m");
  EXPECT_EQ(report.shadowed, 2 * kPool);
  EXPECT_EQ(report.skipped_layout, 0u);
  EXPECT_EQ(report.skipped_busy, 0u);
  EXPECT_EQ(report.reference_errors, 0u);
  EXPECT_EQ(report.replay_mismatches, 0u);
  EXPECT_FALSE(report.drift.first_suspect.has_value()) << "same weights";
  for (const LayerDrift& layer : report.drift.drifts) {
    EXPECT_EQ(layer.samples, 2 * kPool) << layer.layer;
    EXPECT_LT(layer.error, 1e-9) << layer.layer;
  }

  EXPECT_TRUE(engine.disable_canary("m"));
  serve_pool();
  const EnginePoolStats stats = engine.pool_stats("m");
  EXPECT_EQ(stats.sessions_created, kPool);
  EXPECT_EQ(stats.sessions_destroyed, 0u);
  EXPECT_EQ(stats.sessions_free, kPool);
}

// The optimized kernels, except that the f32 FullyConnected adds its result
// onto the bytes its output held before the step: what a session serves
// then depends on the frames it served before.
KernelFn g_fc_invoke = nullptr;

void stale_fc(const KernelContext& ctx) {
  const Tensor before = *ctx.output;  // an owning copy of the old bytes
  g_fc_invoke(ctx);
  float* out = ctx.output->data<float>();
  for (std::int64_t i = 0; i < ctx.output->num_elements(); ++i) {
    out[i] += before.data<float>()[i];
  }
}

class StaleFcResolver final : public BuiltinOpResolver {
 public:
  StaleFcResolver() {
    KernelEntry& fc = map_.at({OpType::kFullyConnected, false});
    g_fc_invoke = fc.invoke;
    fc.invoke = &stale_fc;
  }
};

// A served frame that depends on the session's state is not reproduced by
// its replay on the released session. The canary counts each such frame in
// replay_mismatches and diffs none of them, so the fault is reported rather
// than hidden behind a clean replay.
TEST(Canary, ReplayThatMissesTheServedFrameIsCountedNotDiffed) {
  const StaleFcResolver stale;
  const BuiltinOpResolver opt;
  Engine engine(&stale);
  engine.load("m", conv_stack_graph(441));
  CanaryOptions copts;
  copts.shadow_every = 1;
  engine.enable_canary("m", conv_stack_graph(441), &opt, copts);
  Pcg32 drng(442);
  const Tensor input = random_input(Shape{1, 16, 16, 8}, drng);
  constexpr std::uint64_t kFrames = 3;
  for (std::uint64_t i = 0; i < kFrames; ++i) {
    SessionLease lease = engine.acquire("m");
    lease->set_input(0, input);
    lease->invoke();
  }
  const CanaryReport report = engine.canary_report("m");
  EXPECT_EQ(report.replay_mismatches, kFrames);
  EXPECT_EQ(report.shadowed, 0u);
  EXPECT_EQ(report.reference_errors, 0u);
  for (const LayerDrift& layer : report.drift.drifts) {
    EXPECT_EQ(layer.samples, 0u) << layer.layer;
  }
}

// --- fleet aggregation -------------------------------------------------------

// Records a digest-only trace of `frames` invokes of `graph`.
Trace record_digest_trace(Graph& graph, const BuiltinOpResolver& opt,
                          std::uint64_t input_seed, int frames) {
  Model model(&graph, &opt);
  Session session(&model);
  MonitorOptions opts;
  opts.per_layer_digests = true;
  EdgeMLMonitor monitor(opts);
  monitor.observe(session);
  Pcg32 drng(input_seed);
  for (int i = 0; i < frames; ++i) {
    session.set_input(0, random_input(Shape{1, 16, 16, 8}, drng));
    monitor.on_inf_start();
    session.invoke();
    monitor.on_inf_stop(session);
    monitor.next_frame();
  }
  Trace t = monitor.take_trace();
  monitor.unobserve(session);
  return t;
}

TEST(FleetAggregator, RanksOutlierDeviceAndLocalizesSuspectLayer) {
  constexpr std::uint64_t kSeed = 431;
  // Sits between the healthy devices' input+sketch sampling noise (<= ~0.087
  // at fc over 16 merged frames) and the bug device's drift at the perturbed
  // layer (~0.185 at c2); all runs are seeded, so the margin is
  // deterministic.
  constexpr double kThreshold = 0.12;
  const std::string bug_layer = "c2";
  BuiltinOpResolver opt;

  // Reference: a raw per-layer-output trace (workstation run) — the
  // aggregator digests it on the fly.
  Trace ref_trace;
  {
    Pcg32 rng(kSeed);
    Graph g = conv_stack_graph(&rng);
    Model model(&g, &opt);
    Session session(&model);
    MonitorOptions opts;
    opts.per_layer_outputs = true;
    EdgeMLMonitor monitor(opts);
    monitor.observe(session);
    Pcg32 drng(4310);
    for (int i = 0; i < 16; ++i) {
      session.set_input(0, random_input(Shape{1, 16, 16, 8}, drng));
      monitor.on_inf_start();
      session.invoke();
      monitor.on_inf_stop(session);
      monitor.next_frame();
    }
    ref_trace = monitor.take_trace();
    monitor.unobserve(session);
  }

  // Two healthy devices (same model, device-local inputs) and one device
  // running the bug-emulation variant.
  Pcg32 rng_g1(kSeed), rng_g2(kSeed);
  Graph good1 = conv_stack_graph(&rng_g1);
  Graph good2 = conv_stack_graph(&rng_g2);
  Graph bad = perturbed_conv_stack(kSeed, bug_layer, 1.75f);
  Trace t_good1 = record_digest_trace(good1, opt, 4321, 16);
  Trace t_good2 = record_digest_trace(good2, opt, 4322, 16);
  Trace t_bad = record_digest_trace(bad, opt, 4323, 16);

  DriftAggregator agg(kThreshold);
  agg.set_reference(ref_trace);
  agg.add_trace("device-good-1", t_good1);
  agg.add_trace("device-good-2", t_good2);
  agg.add_trace("device-bad", t_bad);
  EXPECT_EQ(agg.device_count(), 3u);
  EXPECT_EQ(agg.frame_count(), 48u);

  const FleetReport report = agg.report();
  EXPECT_EQ(report.devices, 3u);
  ASSERT_EQ(report.outliers.size(), 3u);
  EXPECT_EQ(report.outliers[0].device_id, "device-bad")
      << "outlier ranking did not surface the bug-emulation device first";
  EXPECT_GT(report.outliers[0].max_drift, kThreshold);
  ASSERT_TRUE(report.outliers[0].drift.first_suspect.has_value());
  EXPECT_EQ(*report.outliers[0].drift.first_suspect, bug_layer);
  // Healthy devices stay under threshold at every layer.
  for (std::size_t i = 1; i < report.outliers.size(); ++i) {
    EXPECT_FALSE(report.outliers[i].drift.first_suspect.has_value())
        << report.outliers[i].device_id;
    EXPECT_LT(report.outliers[i].max_drift, kThreshold);
  }
  // The fleet verdict is the modal per-device first suspect.
  ASSERT_TRUE(report.first_suspect.has_value());
  EXPECT_EQ(*report.first_suspect, bug_layer);
  // One bad device out of three: no layer's p50 crosses the threshold, so
  // nothing is flagged fleet-wide (the outlier ranking carries the signal).
  for (const FleetLayerDrift& layer : report.layers) {
    EXPECT_FALSE(layer.suspect) << layer.layer;
    EXPECT_EQ(layer.devices, 3u);
    EXPECT_LE(layer.min_drift, layer.p50_drift);
    EXPECT_LE(layer.p50_drift, layer.p90_drift);
    EXPECT_LE(layer.p90_drift, layer.max_drift);
  }

  const std::string rendered = render_fleet_report(report);
  EXPECT_NE(rendered.find("device-bad"), std::string::npos);
  EXPECT_NE(rendered.find("fleet first suspect: " + bug_layer),
            std::string::npos);

  // A digest-only verdict on one trace (no raw tensors to diff pairwise)
  // is a one-device aggregator report.
  auto one_device = [&](const Trace& trace) {
    DriftAggregator single(kThreshold);
    single.set_reference(ref_trace);
    single.add_trace("device", trace);
    return single.report();
  };
  const FleetReport bad_report = one_device(t_bad);
  ASSERT_TRUE(bad_report.first_suspect.has_value());
  EXPECT_EQ(*bad_report.first_suspect, bug_layer);
  EXPECT_FALSE(one_device(t_good1).first_suspect.has_value());
}

}  // namespace
}  // namespace mlexray
