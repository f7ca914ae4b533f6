// Helpers the test suites share: seeded random inputs, the small
// conv -> depthwise -> conv -> FC graph the runtime suites serve, and the
// exact tensor comparison. Header-only; each suite is one translation unit.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "src/common/rng.h"
#include "src/graph/builder.h"
#include "src/tensor/tensor.h"

namespace mlexray {

// An f32 tensor of `shape` filled with rng.uniform(lo, hi) draws in element
// order.
inline Tensor random_input(Shape shape, Pcg32& rng, float lo = -2.0f,
                           float hi = 2.0f) {
  Tensor t = Tensor::f32(shape);
  float* p = t.data<float>();
  for (std::int64_t i = 0; i < t.num_elements(); ++i) {
    p[i] = rng.uniform(lo, hi);
  }
  return t;
}

// c1 (3x3 conv, relu) -> dw (3x3 depthwise, stride 2, relu6) -> c2 (1x1
// conv) -> fc (10) over a [batch, 16, 16, 8] input. The same rng state draws
// the same weights at any batch, so a batch-N graph's rows are the batch-1
// graph applied per row.
inline Graph conv_stack_graph(Pcg32* rng, int batch = 1) {
  GraphBuilder b("stack", rng);
  int x = b.input(Shape{batch, 16, 16, 8});
  int c1 = b.conv2d(x, 16, 3, 3, 1, Padding::kSame, Activation::kRelu, "c1");
  int d = b.depthwise_conv2d(c1, 3, 3, 2, Padding::kSame, Activation::kRelu6,
                             "dw");
  int c2 = b.conv2d(d, 16, 1, 1, 1, Padding::kSame, Activation::kNone, "c2");
  int fc = b.fully_connected(c2, 10, Activation::kNone, "fc");
  return b.finish({fc});
}

// The same graph with weights drawn from a fresh Pcg32(seed).
inline Graph conv_stack_graph(std::uint64_t seed, int batch = 1) {
  Pcg32 rng(seed);
  return conv_stack_graph(&rng, batch);
}

// The one exact comparison: the same dtype, the same byte size and the same
// bytes. The failure names the first difference.
inline ::testing::AssertionResult same_bytes(const Tensor& a,
                                             const Tensor& b) {
  if (a.dtype() != b.dtype()) {
    return ::testing::AssertionFailure()
           << "dtype " << dtype_name(a.dtype()) << " vs "
           << dtype_name(b.dtype());
  }
  if (a.byte_size() != b.byte_size()) {
    return ::testing::AssertionFailure()
           << a.byte_size() << " bytes vs " << b.byte_size();
  }
  const auto* pa = static_cast<const std::uint8_t*>(a.raw_data());
  const auto* pb = static_cast<const std::uint8_t*>(b.raw_data());
  const auto diff = std::mismatch(pa, pa + a.byte_size(), pb);
  if (diff.first == pa + a.byte_size()) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "byte " << (diff.first - pa) << " of " << a.byte_size()
         << " differs";
}

}  // namespace mlexray
