#include "src/drift/digest.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

#include "src/common/file_io.h"

namespace mlexray {

// --- QuantileSketch ---------------------------------------------------------

void QuantileSketch::reset() {
  std::memset(size_, 0, sizeof(size_));
  top_shift_ = 0;
  rng_ = 0x9e3779b9u;
}

namespace {

// The largest top shift for which the top level's weight,
// kLevelCap << (kLevels - 1 + shift), fits in uint64_t.
constexpr int kMaxTopShift =
    63 - (std::bit_width(unsigned{QuantileSketch::kLevelCap}) - 1) -
    (QuantileSketch::kLevels - 1);
static_assert(kMaxTopShift == 43);

// quantiles() answers its points in one ascending walk. NaN compares false,
// so it is refused beside any other point.
void check_ascending(std::span<const double> points) {
  for (std::size_t i = 1; i < points.size(); ++i) {
    MLX_CHECK(points[i] >= points[i - 1])
        << "quantile points must ascend: " << points[i - 1] << " then "
        << points[i];
  }
}

// Merges two sorted runs into `dst` (which may alias `b`). Stack temp only —
// the hot path stays allocation-free.
int merge_sorted_runs(const float* a, int na, const float* b, int nb,
                      float* dst) {
  float out[QuantileSketch::kLevelCap];
  int i = 0, j = 0, o = 0;
  while (i < na && j < nb) out[o++] = a[i] <= b[j] ? a[i++] : b[j++];
  while (i < na) out[o++] = a[i++];
  while (j < nb) out[o++] = b[j++];
  std::memcpy(dst, out, static_cast<std::size_t>(o) * sizeof(float));
  return o;
}

}  // namespace

int QuantileSketch::halve(float* run, int n) {
  rng_ ^= rng_ << 13;
  rng_ ^= rng_ >> 17;
  rng_ ^= rng_ << 5;
  int kept = 0;
  for (int i = static_cast<int>(rng_ & 1u); i < n; i += 2) run[kept++] = run[i];
  return kept;
}

void QuantileSketch::compact(int level) {
  constexpr int kTop = kLevels - 1;
  // Promoting into a full next level cascades first, so there is always room
  // for the survivors.
  if (level < kTop && size_[level + 1] > kLevelCap - kLevelCap / 2) {
    compact(level + 1);
  }
  float* items = items_[level];
  // Invariant: levels >= 1 are always sorted (promotion emits a sorted run
  // merged into a sorted level), so only level 0 — the only level that sees
  // raw inserts — ever pays a sort. This is the difference between ~25ns and
  // ~10ns per add, and the always-on capture budget is priced on the latter.
  if (level == 0) std::sort(items, items + size_[0]);
  int kept = halve(items, size_[level]);
  if (level == kTop) {
    // Top level compacts in place: survivors stay but each now stands for
    // twice the weight (top_shift_).
    size_[level] = static_cast<std::uint16_t>(kept);
    ++top_shift_;
    return;
  }
  // Survivors stand for 2^(level + 1) inputs each. A shifted top level's
  // items stand for 2^(kTop + top_shift_), so survivors entering it are
  // thinned to that weight first, by the same halving rule.
  if (level + 1 == kTop) {
    for (int s = 0; s < top_shift_ && kept > 0; ++s) kept = halve(items, kept);
  }
  size_[level + 1] = static_cast<std::uint16_t>(merge_sorted_runs(
      items, kept, items_[level + 1], size_[level + 1], items_[level + 1]));
  size_[level] = 0;
}

void QuantileSketch::add(float v) {
  if (size_[0] == kLevelCap) compact(0);
  items_[0][size_[0]++] = v;
}

void QuantileSketch::merge(const QuantileSketch& other) {
  constexpr int kTop = kLevels - 1;
  // Items at level l keep their weight (2^l) when inserted at our level l.
  // The top levels may carry different shifts (streams past ~2M items):
  // whichever side's top is coarser sets the weight, and the other side's
  // top run is halved once per missing shift. Sketches that never saturated
  // (every per-frame capture) merge with shift 0 on both sides.
  while (top_shift_ < other.top_shift_) compact(kTop);
  // Level 0 is unsorted on both sides: plain append. Levels >= 1 hold sorted
  // runs on both sides: compact ours if the combined run would overflow,
  // then a single sorted merge keeps the invariant.
  for (int i = 0; i < other.size_[0]; ++i) {
    if (size_[0] == kLevelCap) compact(0);
    items_[0][size_[0]++] = other.items_[0][i];
  }
  for (int l = 1; l < kTop; ++l) {
    if (other.size_[l] == 0) continue;
    while (size_[l] + other.size_[l] > kLevelCap) compact(l);
    size_[l] = static_cast<std::uint16_t>(
        merge_sorted_runs(other.items_[l], other.size_[l], items_[l],
                          size_[l], items_[l]));
  }
  // The other side's top run, thinned to our top's weight; each in-place
  // compaction that makes room for it coarsens our top once more.
  float run[kLevelCap];
  int n = other.size_[kTop];
  std::memcpy(run, other.items_[kTop],
              static_cast<std::size_t>(n) * sizeof(float));
  for (int s = other.top_shift_; s < top_shift_ && n > 0; ++s) {
    n = halve(run, n);
  }
  while (size_[kTop] + n > kLevelCap) {
    compact(kTop);
    n = halve(run, n);
  }
  if (n > 0) {
    size_[kTop] = static_cast<std::uint16_t>(
        merge_sorted_runs(run, n, items_[kTop], size_[kTop], items_[kTop]));
  }
}

std::uint64_t QuantileSketch::weight() const {
  std::uint64_t total = 0;
  for (int l = 0; l < kLevels; ++l) {
    std::uint64_t w = 1ull << l;
    if (l == kLevels - 1) w <<= top_shift_;
    total += w * size_[l];
  }
  return total;
}

void QuantileSketch::quantiles(
    std::span<const double> points,
    FunctionRef<void(std::size_t, float)> emit) const {
  check_ascending(points);
  struct Entry {
    float value;
    std::uint64_t weight;
  };
  Entry entries[kLevels * kLevelCap];
  int n = 0;
  std::uint64_t total = 0;
  for (int l = 0; l < kLevels; ++l) {
    std::uint64_t w = 1ull << l;
    if (l == kLevels - 1) w <<= top_shift_;
    for (int i = 0; i < size_[l]; ++i) {
      entries[n++] = {items_[l][i], w};
      total += w;
    }
  }
  if (n == 0) {
    for (std::size_t p = 0; p < points.size(); ++p) emit(p, 0.0f);
    return;
  }
  std::sort(entries, entries + n,
            [](const Entry& a, const Entry& b) { return a.value < b.value; });
  // Each point's answer is the first entry whose cumulative weight reaches
  // its target. Targets ascend with the points, so one walk serves them all:
  // entry i and its cumulative weight carry over to the next point.
  int i = 0;
  std::uint64_t cum = entries[0].weight;
  for (std::size_t p = 0; p < points.size(); ++p) {
    const double target =
        std::clamp(points[p], 0.0, 1.0) * static_cast<double>(total);
    while (i < n && !(static_cast<double>(cum) >= target)) {
      if (++i < n) cum += entries[i].weight;
    }
    emit(p, entries[i < n ? i : n - 1].value);
  }
}

float QuantileSketch::quantile(double q) const {
  float value = 0.0f;
  quantiles({&q, 1}, [&](std::size_t, float v) { value = v; });
  return value;
}

void QuantileSketch::serialize(BinaryWriter& w) const {
  w.write_u32(kLevels);
  w.write_u32(kLevelCap);
  w.write_u32(top_shift_);
  for (int l = 0; l < kLevels; ++l) {
    w.write_u32(size_[l]);
    for (int i = 0; i < size_[l]; ++i) w.write_f32(items_[l][i]);
  }
}

void QuantileSketch::deserialize(BinaryReader& r) {
  reset();
  MLX_CHECK_EQ(r.read_u32(), static_cast<std::uint32_t>(kLevels))
      << "quantile sketch level mismatch";
  MLX_CHECK_EQ(r.read_u32(), static_cast<std::uint32_t>(kLevelCap))
      << "quantile sketch capacity mismatch";
  // weight() and quantile() shift the top level's weight by top_shift_;
  // no honest writer reaches a shift that overflows it.
  const std::uint32_t top_shift = r.read_u32();
  MLX_CHECK_LE(top_shift, static_cast<std::uint32_t>(kMaxTopShift))
      << "quantile sketch top shift out of range";
  top_shift_ = static_cast<std::uint16_t>(top_shift);
  for (int l = 0; l < kLevels; ++l) {
    const std::uint32_t n = r.read_u32();
    MLX_CHECK_LE(n, static_cast<std::uint32_t>(kLevelCap))
        << "quantile sketch level overflow";
    // The level's f32 items, decoded from one span.
    const std::uint8_t* p = r.take(std::size_t{n} * sizeof(float));
    for (std::uint32_t i = 0; i < n; ++i) {
      items_[l][i] = BinaryReader::load_f32_le(p + sizeof(float) * i);
    }
    size_[l] = static_cast<std::uint16_t>(n);
    // Re-establish the sorted-level invariant on the cold path rather than
    // trusting the writer (levels >= 1 must stay sorted for merge/compact).
    if (l >= 1) std::sort(items_[l], items_[l] + size_[l]);
  }
}

// --- LayerDigest ------------------------------------------------------------

void LayerDigest::reset() {
  dtype = DType::kF32;
  count = 0;
  sum = 0.0;
  sum_sq = 0.0;
  min_v = std::numeric_limits<float>::infinity();
  max_v = -std::numeric_limits<float>::infinity();
  sketch.reset();
  std::memset(hist, 0, sizeof(hist));
  isum = 0;
  isum_sq = 0;
  scale = 0.0f;
  zero_point = 0;
}

namespace {

// Deterministic stride that caps one accumulate() call at `budget` samples:
// ceil(n / budget) skips enough elements that at most `budget` survive.
std::int64_t sample_stride(std::int64_t n, std::int64_t budget) {
  return n <= budget ? 1 : (n + budget - 1) / budget;
}

// Moments over every element. Partials are combined in a fixed order so the
// result is deterministic for a given build; the AVX2 path widens each f32
// lane to f64 before accumulating, same as the scalar path.
void accumulate_f32(LayerDigest& d, const float* p, std::int64_t n) {
  double sum = 0.0, sum_sq = 0.0;
  float mn = d.min_v, mx = d.max_v;
  std::int64_t i = 0;
#if defined(__AVX2__)
  if (n >= 8) {
    __m256d s0 = _mm256_setzero_pd(), s1 = _mm256_setzero_pd();
    __m256d q0 = _mm256_setzero_pd(), q1 = _mm256_setzero_pd();
    __m256 vmn = _mm256_set1_ps(mn);
    __m256 vmx = _mm256_set1_ps(mx);
    for (; i + 8 <= n; i += 8) {
      const __m256 v = _mm256_loadu_ps(p + i);
      vmn = _mm256_min_ps(vmn, v);
      vmx = _mm256_max_ps(vmx, v);
      const __m256d lo = _mm256_cvtps_pd(_mm256_castps256_ps128(v));
      const __m256d hi = _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1));
      s0 = _mm256_add_pd(s0, lo);
      s1 = _mm256_add_pd(s1, hi);
      q0 = _mm256_add_pd(q0, _mm256_mul_pd(lo, lo));
      q1 = _mm256_add_pd(q1, _mm256_mul_pd(hi, hi));
    }
    alignas(32) double sb[4], qb[4];
    alignas(32) float nb[8], xb[8];
    _mm256_store_pd(sb, _mm256_add_pd(s0, s1));
    _mm256_store_pd(qb, _mm256_add_pd(q0, q1));
    _mm256_store_ps(nb, vmn);
    _mm256_store_ps(xb, vmx);
    sum = (sb[0] + sb[1]) + (sb[2] + sb[3]);
    sum_sq = (qb[0] + qb[1]) + (qb[2] + qb[3]);
    for (int l = 0; l < 8; ++l) {
      mn = std::min(mn, nb[l]);
      mx = std::max(mx, xb[l]);
    }
  }
#else
  // Four-way accumulators break the serial dependency chain.
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  double q0 = 0.0, q1 = 0.0, q2 = 0.0, q3 = 0.0;
  for (; i + 4 <= n; i += 4) {
    const float a = p[i], b = p[i + 1], c = p[i + 2], e = p[i + 3];
    s0 += a; s1 += b; s2 += c; s3 += e;
    q0 += static_cast<double>(a) * a;
    q1 += static_cast<double>(b) * b;
    q2 += static_cast<double>(c) * c;
    q3 += static_cast<double>(e) * e;
    mn = std::min(mn, std::min(std::min(a, b), std::min(c, e)));
    mx = std::max(mx, std::max(std::max(a, b), std::max(c, e)));
  }
  sum = (s0 + s1) + (s2 + s3);
  sum_sq = (q0 + q1) + (q2 + q3);
#endif
  for (; i < n; ++i) {
    const float a = p[i];
    sum += a;
    sum_sq += static_cast<double>(a) * a;
    mn = std::min(mn, a);
    mx = std::max(mx, a);
  }
  d.sum += sum;
  d.sum_sq += sum_sq;
  d.min_v = mn;
  d.max_v = mx;
  // The sketch samples a deterministic stride so capture cost stays bounded
  // no matter the layer size; quantile resolution accrues as frames merge
  // (per-device digests stack kSketchSampleBudget samples per layer per
  // frame). The moments above stay exact over every element.
  const std::int64_t stride =
      sample_stride(n, LayerDigest::kSketchSampleBudget);
  for (std::int64_t k = 0; k < n; k += stride) d.sketch.add(p[k]);
}

// i8/u8 histogram path. One accumulate() call digests at most
// kIntHistSampleBudget elements, so the scratch histogram is a single 1KB
// u32 array (zeroing a wider split-histogram scratch would cost more than
// the budgeted increments) and integer moments are derived from the bins
// afterwards, branchlessly — exact over the sampled elements, since a bin
// fully determines its value. i8 raw bytes map to bin raw+128, which in
// two's complement is the byte XOR 0x80; u8 bytes are their own bin.
// Returns the number of elements digested (n, or the stride-sampled subset
// for layers past the budget).
template <bool kSigned>
std::int64_t accumulate_int8(LayerDigest& d, const std::uint8_t* p,
                             std::int64_t n) {
  constexpr std::uint8_t kBias = kSigned ? 0x80 : 0x00;
  std::uint32_t lh[256] = {};
  const std::int64_t stride =
      sample_stride(n, LayerDigest::kIntHistSampleBudget);
  std::int64_t sampled = 0;
  if (stride == 1) {
    for (std::int64_t i = 0; i < n; ++i) {
      ++lh[static_cast<std::uint8_t>(p[i] ^ kBias)];
    }
    sampled = n;
  } else {
    for (std::int64_t k = 0; k < n; k += stride) {
      ++lh[static_cast<std::uint8_t>(p[k] ^ kBias)];
      ++sampled;
    }
  }
  std::int64_t isum = 0;
  std::uint64_t isum_sq = 0;
  for (int b = 0; b < 256; ++b) {
    const std::uint64_t c = lh[b];
    d.hist[b] += c;
    const std::int64_t v = kSigned ? b - 128 : b;
    isum += v * static_cast<std::int64_t>(c);
    isum_sq += static_cast<std::uint64_t>(v * v) * c;
  }
  d.isum += isum;
  d.isum_sq += isum_sq;
  return sampled;
}

}  // namespace

void LayerDigest::accumulate(const Tensor& t) {
  const std::int64_t n = t.num_elements();
  if (count == 0) {
    dtype = t.dtype();
    if (t.quant().quantized()) {
      scale = t.quant().scale();
      zero_point = t.quant().zero_point();
    }
  }
  switch (t.dtype()) {
    case DType::kI8:
      count += static_cast<std::uint64_t>(accumulate_int8<true>(
          *this, reinterpret_cast<const std::uint8_t*>(t.data<std::int8_t>()),
          n));
      break;
    case DType::kU8:
      count += static_cast<std::uint64_t>(
          accumulate_int8<false>(*this, t.data<std::uint8_t>(), n));
      break;
    case DType::kF32:
      accumulate_f32(*this, t.data<float>(), n);
      count += static_cast<std::uint64_t>(n);
      break;
    case DType::kI32: {
      // Rare as a layer output (integer bookkeeping); digested through the
      // float path, value-exact up to f32 rounding.
      const std::int32_t* p = t.data<std::int32_t>();
      double s = 0.0, q = 0.0;
      for (std::int64_t i = 0; i < n; ++i) {
        const float v = static_cast<float>(p[i]);
        s += v;
        q += static_cast<double>(v) * v;
        min_v = std::min(min_v, v);
        max_v = std::max(max_v, v);
      }
      sum += s;
      sum_sq += q;
      const std::int64_t stride = sample_stride(n, kSketchSampleBudget);
      for (std::int64_t k = 0; k < n; k += stride) {
        sketch.add(static_cast<float>(p[k]));
      }
      count += static_cast<std::uint64_t>(n);
      break;
    }
  }
}

void LayerDigest::merge(const LayerDigest& other) {
  if (other.count == 0) return;
  if (count == 0) {
    *this = other;
    return;
  }
  MLX_CHECK(dtype == other.dtype)
      << "cannot merge digests of different dtypes";
  count += other.count;
  if (integer_path()) {
    for (int b = 0; b < 256; ++b) hist[b] += other.hist[b];
    isum += other.isum;
    isum_sq += other.isum_sq;
    // Quant params may drift between devices; keep the first seen (drift in
    // the params themselves shows up as value drift after dequantization
    // only if callers compare digests with their own params — the aggregator
    // flags mismatched scales instead of silently mixing them).
  } else {
    sum += other.sum;
    sum_sq += other.sum_sq;
    min_v = std::min(min_v, other.min_v);
    max_v = std::max(max_v, other.max_v);
    sketch.merge(other.sketch);
  }
}

namespace {
double dequant(double raw, float scale, std::int32_t zero_point) {
  if (scale == 0.0f) return raw;  // unquantized u8 (raw sensor bytes)
  return static_cast<double>(scale) * (raw - zero_point);
}
}  // namespace

double LayerDigest::mean() const {
  if (count == 0) return 0.0;
  if (integer_path()) {
    return dequant(static_cast<double>(isum) / static_cast<double>(count),
                   scale, zero_point);
  }
  return sum / static_cast<double>(count);
}

double LayerDigest::stddev() const {
  if (count == 0) return 0.0;
  double var;
  if (integer_path()) {
    const double m = static_cast<double>(isum) / static_cast<double>(count);
    var = static_cast<double>(isum_sq) / static_cast<double>(count) - m * m;
    const double s = scale == 0.0f ? 1.0 : static_cast<double>(scale);
    var *= s * s;
  } else {
    const double m = sum / static_cast<double>(count);
    var = sum_sq / static_cast<double>(count) - m * m;
  }
  return std::sqrt(std::max(var, 0.0));
}

double LayerDigest::real_min() const {
  if (count == 0) return 0.0;
  if (integer_path()) {
    for (int b = 0; b < 256; ++b) {
      if (hist[b] != 0) {
        const int raw = dtype == DType::kI8 ? b - 128 : b;
        return dequant(raw, scale, zero_point);
      }
    }
    return 0.0;
  }
  return min_v;
}

double LayerDigest::real_max() const {
  if (count == 0) return 0.0;
  if (integer_path()) {
    for (int b = 255; b >= 0; --b) {
      if (hist[b] != 0) {
        const int raw = dtype == DType::kI8 ? b - 128 : b;
        return dequant(raw, scale, zero_point);
      }
    }
    return 0.0;
  }
  return max_v;
}

void LayerDigest::quantiles(
    std::span<const double> points,
    FunctionRef<void(std::size_t, double)> emit) const {
  check_ascending(points);
  if (count == 0) {
    for (std::size_t p = 0; p < points.size(); ++p) emit(p, 0.0);
    return;
  }
  if (!integer_path()) {
    sketch.quantiles(points, [&](std::size_t p, float v) {
      emit(p, static_cast<double>(v));
    });
    return;
  }
  // Each point's answer is the first bin whose cumulative count reaches its
  // target (and is nonzero). Targets ascend with the points, so one pass
  // over the bins serves them all: bin b and its cumulative count carry
  // over to the next point.
  int b = 0;
  std::uint64_t cum = hist[0];
  for (std::size_t p = 0; p < points.size(); ++p) {
    const double target =
        std::clamp(points[p], 0.0, 1.0) * static_cast<double>(count);
    while (b < 256 && !(static_cast<double>(cum) >= target && cum > 0)) {
      if (++b < 256) cum += hist[b];
    }
    if (b == 256) {
      emit(p, real_max());
      continue;
    }
    const int raw = dtype == DType::kI8 ? b - 128 : b;
    emit(p, dequant(raw, scale, zero_point));
  }
}

double LayerDigest::quantile(double q) const {
  double value = 0.0;
  quantiles({&q, 1}, [&](std::size_t, double v) { value = v; });
  return value;
}

void serialize_digest(BinaryWriter& w, const LayerDigest& d) {
  w.write_u8(static_cast<std::uint8_t>(d.dtype));
  w.write_u64(d.count);
  if (d.integer_path()) {
    w.write_f32(d.scale);
    w.write_i32(d.zero_point);
    w.write_i64(d.isum);
    w.write_u64(d.isum_sq);
    // Sparse bin encoding: most layers occupy a fraction of the 256-value
    // domain. A per-frame bin never exceeds u32 (a frame holds < 4G
    // elements); merged in-memory digests are not re-serialized.
    std::uint32_t used = 0;
    for (int b = 0; b < 256; ++b) {
      if (d.hist[b] != 0) ++used;
    }
    w.write_u32(used);
    for (int b = 0; b < 256; ++b) {
      if (d.hist[b] == 0) continue;
      MLX_CHECK_LE(d.hist[b], 0xffffffffull)
          << "histogram bin exceeds the u32 wire format";
      w.write_u8(static_cast<std::uint8_t>(b));
      w.write_u32(static_cast<std::uint32_t>(d.hist[b]));
    }
  } else {
    w.write_f64(d.sum);
    w.write_f64(d.sum_sq);
    w.write_f32(d.min_v);
    w.write_f32(d.max_v);
    d.sketch.serialize(w);
  }
}

void deserialize_digest(BinaryReader& r, LayerDigest& d) {
  const std::uint8_t raw_dtype = r.read_u8();
  MLX_CHECK_LE(raw_dtype, static_cast<std::uint8_t>(DType::kI32))
      << "bad digest dtype";
  d.dtype = static_cast<DType>(raw_dtype);
  d.count = r.read_u64();
  if (d.integer_path()) {
    d.scale = r.read_f32();
    d.zero_point = r.read_i32();
    d.isum = r.read_i64();
    d.isum_sq = r.read_u64();
    const std::uint32_t used = r.read_u32();
    MLX_CHECK_LE(used, 256u) << "histogram bin count out of range";
    // The sparse bins, (u8 bin, u32 count) each, decoded from one span; a
    // repeated bin keeps its last count.
    constexpr std::size_t kBinBytes = 1 + sizeof(std::uint32_t);
    const std::uint8_t* p = r.take(std::size_t{used} * kBinBytes);
    for (std::uint32_t i = 0; i < used; ++i, p += kBinBytes) {
      d.hist[p[0]] = BinaryReader::load_u32_le(p + 1);
    }
  } else {
    d.sum = r.read_f64();
    d.sum_sq = r.read_f64();
    d.min_v = r.read_f32();
    d.max_v = r.read_f32();
    d.sketch.deserialize(r);
  }
}

DriftCurve drift_curve(const LayerDigest& reference) {
  DriftCurve curve;
  if (reference.count == 0) return curve;
  curve.empty = false;
  curve.range = reference.real_max() - reference.real_min();
  reference.quantiles(kDriftGrid,
                      [&](std::size_t p, double v) { curve.values[p] = v; });
  return curve;
}

double digest_drift(const LayerDigest& device, const DriftCurve& reference) {
  if (device.count == 0 || reference.empty) return 0.0;
  // One squared difference per grid point, accumulated as the device's walk
  // reaches it. Summing a gathered curve instead lets GCC vectorize the
  // squares and drop the FMA contraction of `sq += diff * diff`, which
  // moves the result by an ULP.
  double sq = 0.0;
  device.quantiles(kDriftGrid, [&](std::size_t p, double v) {
    const double diff = v - reference.values[p];
    sq += diff * diff;
  });
  const double rms = std::sqrt(sq / static_cast<double>(kDriftGridPoints));
  if (reference.range <= 0.0) {
    return rms == 0.0 ? 0.0 : std::numeric_limits<double>::infinity();
  }
  return rms / reference.range;
}

double digest_drift(const LayerDigest& device, const LayerDigest& reference) {
  return digest_drift(device, drift_curve(reference));
}

double digest_tv_distance(const LayerDigest& a, const LayerDigest& b) {
  if (!a.integer_path() || !b.integer_path()) return 0.0;
  if (a.count == 0 || b.count == 0) return 0.0;
  double tv = 0.0;
  for (int bin = 0; bin < 256; ++bin) {
    const double pa =
        static_cast<double>(a.hist[bin]) / static_cast<double>(a.count);
    const double pb =
        static_cast<double>(b.hist[bin]) / static_cast<double>(b.count);
    tv += std::abs(pa - pb);
  }
  return 0.5 * tv;
}

}  // namespace mlexray
