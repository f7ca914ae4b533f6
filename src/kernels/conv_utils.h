// Window geometry of the conv-family kernels, the per-channel
// requantization tables of the quantized conv / depthwise / FC nodes, and
// the int8 AvgPool's rounding rule.
//
// The window rule lives here and in window_dims (src/graph/graph.h) alone:
// the node decides its window, conv_out_dim gives shape inference the output
// extent, same_pad_before the padding, and ConvGeometry::window each output
// pixel's in-bounds box. Every plain window loop walks that box; only the
// gathers that fill out-of-bounds taps (gather_patches, build_tap_src) and
// the frozen Fig 5/6 bug emulations place each tap themselves.
#pragma once

#include <algorithm>
#include <cstdint>

#include "src/graph/graph.h"
#include "src/kernels/fixed_point.h"
#include "src/tensor/tensor.h"

namespace mlexray {

// Output pixel (oy, ox)'s window clipped to the input: input rows
// [y0, y1) and columns [x0, x1), never empty. Input position (iy, ix) meets
// filter tap (fy(iy), fx(ix)); walking the box row by row visits the
// in-bounds taps in (fy, fx) order.
struct WindowBox {
  std::int64_t y0 = 0, y1 = 0, x0 = 0, x1 = 0;
  std::int64_t top = 0, left = 0;  // the unclipped window's first row, column

  int fy(std::int64_t iy) const { return static_cast<int>(iy - top); }
  int fx(std::int64_t ix) const { return static_cast<int>(ix - left); }
  // The in-bounds tap count; 0 only for an output shape that shape
  // inference did not make (a deserialized graph is not re-inferred).
  std::int64_t area() const {
    return std::max<std::int64_t>(y1 - y0, 0) *
           std::max<std::int64_t>(x1 - x0, 0);
  }
};

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

  WindowBox window(std::int64_t oy, std::int64_t ox) const {
    WindowBox b;
    b.top = oy * stride_h - pad_h;
    b.left = ox * stride_w - pad_w;
    b.y0 = std::max<std::int64_t>(b.top, 0);
    b.y1 = std::min<std::int64_t>(b.top + kh, in_h);
    b.x0 = std::max<std::int64_t>(b.left, 0);
    b.x1 = std::min<std::int64_t>(b.left + kw, in_w);
    return b;
  }
};

// TF-style output extent of a window of `filter` taps moved by `stride`:
// SAME covers every input position, VALID only whole windows.
inline std::int64_t conv_out_dim(std::int64_t in, int filter, int stride,
                                 Padding padding) {
  if (padding == Padding::kSame) {
    return (in + stride - 1) / stride;
  }
  MLX_CHECK_GE(in - filter + 1, 1) << "VALID conv output would be empty";
  return (in - filter + stride) / stride;
}

// TF-style SAME padding: total padding that centers the receptive field.
inline std::int64_t same_pad_before(std::int64_t in, int filter, int stride,
                                    std::int64_t out) {
  std::int64_t needed = (out - 1) * stride + filter - in;
  if (needed < 0) needed = 0;
  return needed / 2;
}

// The window `node` (window_dims) slides from its NHWC input (shape `in`)
// to its NHWC output (shape `out`): strides and padding from the node's
// attrs.
inline ConvGeometry conv_geometry(const Node& node, const Shape& in,
                                  const Shape& out) {
  const WindowDims win = window_dims(node);
  ConvGeometry g;
  g.batch = out.dim(0);
  g.in_h = in.dim(1);
  g.in_w = in.dim(2);
  g.in_ch = in.dim(3);
  g.out_h = out.dim(1);
  g.out_w = out.dim(2);
  g.out_ch = out.dim(3);
  g.kh = win.h;
  g.kw = win.w;
  g.stride_h = node.attrs.stride_h;
  g.stride_w = node.attrs.stride_w;
  if (node.attrs.padding == Padding::kSame) {
    g.pad_h = same_pad_before(g.in_h, g.kh, g.stride_h, g.out_h);
    g.pad_w = same_pad_before(g.in_w, g.kw, g.stride_w, g.out_w);
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
