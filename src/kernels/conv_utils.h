// Window geometry of the conv-family kernels, the per-channel
// requantization tables of the quantized conv / depthwise / FC nodes, and
// the int8 AvgPool's rounding rule.
//
// ConvGeometry is the one description of a window over NHWC tensors: the
// optimized conv (implicit GEMM, gemm.h), the depthwise family (dwconv.h),
// the int8 AvgPool, the reference window kernels and the trainer's backward
// passes all take it from conv_geometry(), the one place SAME padding is
// computed.
#pragma once

#include <cstdint>

#include "src/graph/node.h"
#include "src/kernels/fixed_point.h"
#include "src/tensor/tensor.h"

namespace mlexray {

struct ConvGeometry {
  std::int64_t batch = 0;
  std::int64_t in_h = 0, in_w = 0, in_ch = 0;
  std::int64_t out_h = 0, out_w = 0, out_ch = 0;
  int kh = 1, kw = 1;
  int stride_h = 1, stride_w = 1;
  std::int64_t pad_h = 0, pad_w = 0;  // top / left padding
  // Depthwise only: out_ch == in_ch * depth_mult, and output channel oc
  // convolves input channel oc / depth_mult with filter column oc (TFLite
  // depth-multiplier semantics). 1 for every other op.
  std::int64_t depth_mult = 1;

  // Implicit-GEMM view of a Conv2D: one A row per output pixel, each a
  // receptive field of patch() values in OHWI (fy, fx, ic) order.
  std::int64_t rows() const { return batch * out_h * out_w; }
  std::int64_t patch() const { return kh * kw * in_ch; }
  bool pointwise() const {
    return kh == 1 && kw == 1 && stride_h == 1 && stride_w == 1;
  }
};

// TF-style SAME padding: total padding that centers the receptive field.
inline std::int64_t same_pad_before(std::int64_t in, int filter, int stride,
                                    std::int64_t out) {
  std::int64_t needed = (out - 1) * stride + filter - in;
  if (needed < 0) needed = 0;
  return needed / 2;
}

// The kh x kw window `node` slides from its NHWC input (shape `in`) to its
// NHWC output (shape `out`): strides and padding from the node's attrs.
// Convs pass their filter's spatial dims, pools their attrs.filter_h/w.
inline ConvGeometry conv_geometry(const Node& node, const Shape& in,
                                  const Shape& out, int kh, int kw) {
  ConvGeometry g;
  g.batch = out.dim(0);
  g.in_h = in.dim(1);
  g.in_w = in.dim(2);
  g.in_ch = in.dim(3);
  g.out_h = out.dim(1);
  g.out_w = out.dim(2);
  g.out_ch = out.dim(3);
  g.kh = kh;
  g.kw = kw;
  g.stride_h = node.attrs.stride_h;
  g.stride_w = node.attrs.stride_w;
  if (node.attrs.padding == Padding::kSame) {
    g.pad_h = same_pad_before(g.in_h, kh, g.stride_h, g.out_h);
    g.pad_w = same_pad_before(g.in_w, kw, g.stride_w, g.out_w);
  }
  if (node.type == OpType::kDepthwiseConv2D) {
    g.depth_mult = g.out_ch / g.in_ch;
  }
  return g;
}

// effective_scale[ch] = in_scale * w_scale[ch] / out_scale: output channel
// ch's requantization factor in a quantized conv / depthwise / FC node.
inline double requant_scale(const QuantParams& in_q, const QuantParams& w_q,
                            const QuantParams& out_q, std::size_t ch) {
  return static_cast<double>(in_q.scale()) *
         w_q.scale(w_q.per_channel() ? ch : 0) / out_q.scale();
}

// Q31 multiplier / shift tables for every output channel, written into
// caller-provided arrays. Both resolvers requantize through them: the
// optimized kernels' prepare hooks fill plan-owned prepared storage once,
// the reference kernels fill per-invoke arrays.
inline void fill_requant_tables(const QuantParams& in_q, const QuantParams& w_q,
                                const QuantParams& out_q,
                                std::int64_t out_channels,
                                std::int32_t* multipliers, int* shifts) {
  for (std::int64_t c = 0; c < out_channels; ++c) {
    auto ch = static_cast<std::size_t>(c);
    quantize_multiplier(requant_scale(in_q, w_q, out_q, ch), &multipliers[ch],
                        &shifts[ch]);
  }
}

// The int8 AvgPool's one rule, TFLite's: the raw in-window sum divided by
// the in-bounds tap count, rounded half away from zero. Averaging quantized
// values needs equal input and output quantization (check_avgpool_quant).
inline std::int8_t average_i8(std::int32_t sum, std::int32_t count) {
  if (count <= 0) return 0;
  return clamp_to_i8(sum >= 0 ? (sum + count / 2) / count
                              : (sum - count / 2) / count);
}

// Throws MlxError naming the node unless an int8 AvgPool's input and output
// quantization are equal. The quantizer always makes them so (a pool
// inherits its producer's params).
inline void check_avgpool_quant(const Node& node, const QuantParams& in_q,
                                const QuantParams& out_q) {
  MLX_CHECK(in_q.scale() == out_q.scale() &&
            in_q.zero_point() == out_q.zero_point())
      << "int8 AvgPool2D '" << node.name
      << "' needs equal input and output quantization";
}

}  // namespace mlexray
