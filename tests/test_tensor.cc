#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "src/common/rng.h"
#include "src/tensor/alloc_stats.h"
#include "src/tensor/tensor.h"
#include "src/tensor/tensor_stats.h"

namespace mlexray {
namespace {

TEST(Shape, BasicProperties) {
  Shape s{2, 3, 4};
  EXPECT_EQ(s.rank(), 3);
  EXPECT_EQ(s.num_elements(), 24);
  EXPECT_EQ(s.to_string(), "[2x3x4]");
  EXPECT_EQ(s, (Shape{2, 3, 4}));
  EXPECT_NE(s, (Shape{2, 3}));
}

TEST(Shape, OutOfRangeDimThrows) {
  Shape s{2, 3};
  EXPECT_THROW(s.dim(2), MlxError);
}

TEST(Tensor, AllocatesZeroed) {
  Tensor t = Tensor::f32(Shape{2, 2});
  for (int i = 0; i < 4; ++i) EXPECT_EQ(t.data<float>()[i], 0.0f);
}

TEST(Tensor, DtypeMismatchThrows) {
  Tensor t = Tensor::f32(Shape{2});
  EXPECT_THROW(t.data<std::int8_t>(), MlxError);
}

TEST(Tensor, At4Indexing) {
  Tensor t = Tensor::f32(Shape{1, 2, 2, 3});
  t.at4<float>(0, 1, 1, 2) = 7.0f;
  EXPECT_EQ(t.data<float>()[1 * 2 * 3 + 1 * 3 + 2], 7.0f);
}

TEST(Tensor, CopyIsDeep) {
  Tensor a = Tensor::f32(Shape{2}, {1.0f, 2.0f});
  Tensor b = a;
  b.data<float>()[0] = 9.0f;
  EXPECT_EQ(a.data<float>()[0], 1.0f);
}

TEST(Tensor, DequantizePerTensor) {
  Tensor q = Tensor::i8(Shape{3});
  q.data<std::int8_t>()[0] = -10;
  q.data<std::int8_t>()[1] = 0;
  q.data<std::int8_t>()[2] = 10;
  q.quant() = QuantParams::per_tensor(0.5f, 2);
  Tensor f = q.to_f32();
  EXPECT_FLOAT_EQ(f.data<float>()[0], 0.5f * (-10 - 2));
  EXPECT_FLOAT_EQ(f.data<float>()[2], 0.5f * (10 - 2));
}

TEST(Tensor, DequantizePerChannel) {
  Tensor q = Tensor::i8(Shape{2, 2});  // axis 0: two channels
  q.data<std::int8_t>()[0] = 4;
  q.data<std::int8_t>()[1] = 4;
  q.data<std::int8_t>()[2] = 4;
  q.data<std::int8_t>()[3] = 4;
  q.quant() = QuantParams::per_channel_params({1.0f, 2.0f}, {0, 0}, 0);
  Tensor f = q.to_f32();
  EXPECT_FLOAT_EQ(f.data<float>()[0], 4.0f);
  EXPECT_FLOAT_EQ(f.data<float>()[3], 8.0f);
}

TEST(TensorStats, Summary) {
  Tensor t = Tensor::f32(Shape{4}, {1.0f, 2.0f, 3.0f, 4.0f});
  TensorSummary s = summarize(t);
  EXPECT_FLOAT_EQ(s.min, 1.0f);
  EXPECT_FLOAT_EQ(s.max, 4.0f);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
}

TEST(TensorStats, Rmse) {
  Tensor a = Tensor::f32(Shape{2}, {0.0f, 0.0f});
  Tensor b = Tensor::f32(Shape{2}, {3.0f, 4.0f});
  EXPECT_NEAR(rmse(a, b), std::sqrt(12.5), 1e-9);
}

TEST(TensorStats, NormalizedRmseMatchesPaperDefinition) {
  // reference range is 10 -> rMSE / 10.
  Tensor ref = Tensor::f32(Shape{2}, {0.0f, 10.0f});
  Tensor test = Tensor::f32(Shape{2}, {1.0f, 10.0f});
  // rMSE = sqrt(0.5); normalized by 10.
  EXPECT_NEAR(normalized_rmse(test, ref), std::sqrt(0.5) / 10.0, 1e-9);
}

TEST(TensorStats, NormalizedRmseDegenerateRange) {
  Tensor ref = Tensor::f32(Shape{2}, {5.0f, 5.0f});
  Tensor same = ref;
  Tensor diff = Tensor::f32(Shape{2}, {5.0f, 6.0f});
  EXPECT_EQ(normalized_rmse(same, ref), 0.0);
  EXPECT_TRUE(std::isinf(normalized_rmse(diff, ref)));
}

TEST(TensorStats, AllClose) {
  Tensor a = Tensor::f32(Shape{2}, {1.0f, 2.0f});
  Tensor b = Tensor::f32(Shape{2}, {1.0f, 2.0005f});
  EXPECT_TRUE(all_close(a, b, 1e-3));
  EXPECT_FALSE(all_close(a, b, 1e-5));
}

// --- f32 reads in place, per-tensor parameters hoisted ----------------------

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// to_f32 by its per-element rule: every element looks up its channel's scale
// and zero point.
Tensor to_f32_per_element(const Tensor& t) {
  Tensor out = Tensor::f32(t.shape());
  const QuantParams& q = t.quant();
  for (std::int64_t i = 0; i < t.num_elements(); ++i) {
    std::int32_t raw = 0;
    switch (t.dtype()) {
      case DType::kI8: raw = t.data<std::int8_t>()[i]; break;
      case DType::kU8: raw = t.data<std::uint8_t>()[i]; break;
      case DType::kI32: raw = t.data<std::int32_t>()[i]; break;
      case DType::kF32: return t;
    }
    if (!q.quantized()) {
      out.data<float>()[i] = static_cast<float>(raw);
      continue;
    }
    std::size_t ch = 0;
    if (q.per_channel()) {
      std::int64_t stride = 1;
      for (int d = t.shape().rank() - 1; d > q.channel_axis; --d) {
        stride *= t.shape().dim(d);
      }
      ch = static_cast<std::size_t>((i / stride) %
                                    t.shape().dim(q.channel_axis));
    }
    out.data<float>()[i] =
        q.scale(ch) * static_cast<float>(raw - q.zero_point(ch));
  }
  return out;
}

Tensor random_i8(Shape shape, Pcg32& rng, QuantParams quant) {
  Tensor t = Tensor::i8(shape);
  for (std::int64_t i = 0; i < t.num_elements(); ++i) {
    t.data<std::int8_t>()[i] =
        static_cast<std::int8_t>(rng.uniform(-128.0f, 127.0f));
  }
  t.quant() = std::move(quant);
  return t;
}

TEST(Tensor, HoistedDequantizeMatchesPerElementRule) {
  Pcg32 rng(17);
  std::vector<Tensor> cases;
  cases.push_back(
      random_i8(Shape{3, 50}, rng, QuantParams::per_tensor(0.037f, -5)));
  Tensor u8 = Tensor::u8(Shape{130});
  for (std::int64_t i = 0; i < u8.num_elements(); ++i) {
    u8.data<std::uint8_t>()[i] =
        static_cast<std::uint8_t>(rng.uniform(0.0f, 255.0f));
  }
  Tensor u8q = u8;
  u8q.quant() = QuantParams::per_tensor(0.011f, 128);
  cases.push_back(u8q);
  cases.push_back(u8);  // unquantized: plain widening
  Tensor i32 = Tensor::i32(Shape{70});
  for (std::int64_t i = 0; i < i32.num_elements(); ++i) {
    i32.data<std::int32_t>()[i] =
        static_cast<std::int32_t>(rng.uniform(-3e5f, 3e5f));
  }
  i32.quant() = QuantParams::per_tensor(1.5e-4f, 12);
  cases.push_back(i32);
  cases.push_back(random_i8(Shape{4, 3, 5}, rng,
                            QuantParams::per_channel_params({0.1f, 0.02f, 0.3f},
                                                            {1, -2, 0}, 1)));
  for (const Tensor& t : cases) {
    const Tensor got = t.to_f32();
    const Tensor want = to_f32_per_element(t);
    ASSERT_EQ(got.byte_size(), want.byte_size());
    EXPECT_EQ(0, std::memcmp(got.raw_data(), want.raw_data(), got.byte_size()))
        << dtype_name(t.dtype()) << t.shape().to_string();
  }
}

// The statistics as they were computed from deep f32 copies.
TensorSummary summarize_copy(const Tensor& tensor) {
  const Tensor f = tensor.to_f32();
  const float* p = f.data<float>();
  TensorSummary s;
  s.count = f.num_elements();
  if (s.count == 0) return s;
  s.min = std::numeric_limits<float>::infinity();
  s.max = -std::numeric_limits<float>::infinity();
  double sum = 0.0;
  double sum_sq = 0.0;
  for (std::int64_t i = 0; i < s.count; ++i) {
    s.min = std::min(s.min, p[i]);
    s.max = std::max(s.max, p[i]);
    sum += p[i];
    sum_sq += static_cast<double>(p[i]) * p[i];
  }
  s.mean = sum / static_cast<double>(s.count);
  const double var = sum_sq / static_cast<double>(s.count) - s.mean * s.mean;
  s.stddev = std::sqrt(std::max(0.0, var));
  return s;
}

double rmse_copy(const Tensor& a, const Tensor& b) {
  const Tensor fa = a.to_f32();
  const Tensor fb = b.to_f32();
  const std::int64_t n = fa.num_elements();
  if (n == 0) return 0.0;
  double sum_sq = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    const double d =
        static_cast<double>(fa.data<float>()[i]) - fb.data<float>()[i];
    sum_sq += d * d;
  }
  return std::sqrt(sum_sq / static_cast<double>(n));
}

double normalized_rmse_copy(const Tensor& test, const Tensor& reference) {
  const double err = rmse_copy(test, reference);
  const TensorSummary ref = summarize_copy(reference);
  const double range = static_cast<double>(ref.max) - ref.min;
  if (range <= 0.0) {
    return err == 0.0 ? 0.0 : std::numeric_limits<double>::infinity();
  }
  return err / range;
}

double linf_copy(const Tensor& a, const Tensor& b) {
  const Tensor fa = a.to_f32();
  const Tensor fb = b.to_f32();
  double worst = 0.0;
  for (std::int64_t i = 0; i < fa.num_elements(); ++i) {
    worst = std::max(worst, std::abs(static_cast<double>(fa.data<float>()[i]) -
                                     fb.data<float>()[i]));
  }
  return worst;
}

TEST(TensorStats, InPlaceReadsMatchCopyBasedStatisticsBitForBit) {
  Pcg32 rng(23);
  auto random_f32 = [&](Shape shape, float lo, float hi) {
    Tensor t = Tensor::f32(shape);
    for (std::int64_t i = 0; i < t.num_elements(); ++i) {
      t.data<float>()[i] = rng.uniform(lo, hi);
    }
    return t;
  };
  const Shape shape{2, 6, 5};
  Tensor u8 = Tensor::u8(shape);
  for (std::int64_t i = 0; i < u8.num_elements(); ++i) {
    u8.data<std::uint8_t>()[i] =
        static_cast<std::uint8_t>(rng.uniform(0.0f, 255.0f));
  }
  Tensor nan_ref = random_f32(shape, -2.0f, 2.0f);
  nan_ref.data<float>()[7] = std::numeric_limits<float>::quiet_NaN();
  struct Pair {
    const char* what;
    Tensor test, reference;
  };
  const std::vector<Pair> pairs = {
      {"f32/f32", random_f32(shape, -3.0f, 3.0f),
       random_f32(shape, -2.5f, 3.5f)},
      {"i8/f32", random_i8(shape, rng, QuantParams::per_tensor(0.03f, 4)),
       random_f32(shape, -4.0f, 4.0f)},
      {"unquantized u8/f32", u8, random_f32(shape, 0.0f, 255.0f)},
      {"per-channel i8/f32",
       random_i8(shape, rng,
                 QuantParams::per_channel_params({0.05f, 0.2f}, {0, 3}, 0)),
       random_f32(shape, -5.0f, 5.0f)},
      {"empty", Tensor::f32(Shape{0}), Tensor::f32(Shape{0})},
      {"NaN in the reference", random_f32(shape, -2.0f, 2.0f), nan_ref},
  };
  for (const Pair& p : pairs) {
    EXPECT_TRUE(same_bits(rmse(p.test, p.reference),
                          rmse_copy(p.test, p.reference)))
        << p.what;
    EXPECT_TRUE(same_bits(normalized_rmse(p.test, p.reference),
                          normalized_rmse_copy(p.test, p.reference)))
        << p.what << ": " << normalized_rmse(p.test, p.reference) << " vs "
        << normalized_rmse_copy(p.test, p.reference);
    EXPECT_TRUE(same_bits(linf_error(p.test, p.reference),
                          linf_copy(p.test, p.reference)))
        << p.what;
    for (const Tensor* t : {&p.test, &p.reference}) {
      const TensorSummary got = summarize(*t);
      const TensorSummary want = summarize_copy(*t);
      EXPECT_TRUE(same_bits(got.min, want.min)) << p.what;
      EXPECT_TRUE(same_bits(got.max, want.max)) << p.what;
      EXPECT_TRUE(same_bits(got.mean, want.mean)) << p.what;
      EXPECT_TRUE(same_bits(got.stddev, want.stddev)) << p.what;
      EXPECT_EQ(got.count, want.count) << p.what;
    }
  }
}

TEST(AllocStats, TracksTensorLifetime) {
  AllocStats& stats = AllocStats::instance();
  std::size_t before = stats.current_bytes();
  {
    Tensor t = Tensor::f32(Shape{1024});
    EXPECT_GE(stats.current_bytes(), before + 4096);
  }
  EXPECT_EQ(stats.current_bytes(), before);
}

TEST(AllocStats, ScopedPeakTracker) {
  ScopedPeakTracker tracker;
  { Tensor t = Tensor::f32(Shape{2048}); }
  EXPECT_GE(tracker.peak_delta_bytes(), 8192u);
}

}  // namespace
}  // namespace mlexray
