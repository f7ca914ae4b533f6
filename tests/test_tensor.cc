#include <gtest/gtest.h>

#include <cmath>

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
