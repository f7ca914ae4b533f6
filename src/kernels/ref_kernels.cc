#include "src/kernels/ref_kernels.h"

#include <algorithm>
#include <type_traits>
#include <vector>

#include "src/kernels/activation.h"
#include "src/kernels/conv_utils.h"
#include "src/kernels/elementwise.h"

namespace mlexray {
namespace {

// ---------------------------------------------------------------------------
// Float reference kernels: naive loops, no blocking, no threading.
// ---------------------------------------------------------------------------

// The reference kernels exist to be the predictable baseline the optimized
// path is validated against. GCC's fold-left reduction vectorization would
// split a dot product's multiply from its add (no FMA contraction) while
// the scalar/contracted forms fuse them, making ref-vs-opt parity depend on
// the vectorizer's mood. Pin the conv and FC dot products to plain scalar
// code with the same contraction setting as the command line. Their entry
// is pinned to a 64-byte boundary too: calibration runs these loops, and
// their speed moved with where unrelated edits happened to place them in
// the binary.
#if defined(__GNUC__) && !defined(__clang__)
#define MLX_REF_SCALAR_DOT                                                   \
  __attribute__((                                                            \
      optimize("no-tree-vectorize,no-tree-slp-vectorize,fp-contract=fast"), \
      aligned(64)))
#else
#define MLX_REF_SCALAR_DOT
#endif

MLX_REF_SCALAR_DOT
void conv2d_f32(const KernelContext& ctx) {
  const Node& node = *ctx.node;
  const ConvGeometry g =
      conv_geometry(node, ctx.input(0).shape(), ctx.output->shape());
  const float* x = ctx.input(0).data<float>();
  const float* w = node.weights[0].data<float>();  // OHWI
  const float* bias = node.weights[1].data<float>();
  float* y = ctx.output->data<float>();
  const std::int64_t filter_stride = g.patch();  // one output channel
  for (std::int64_t n = 0; n < g.batch; ++n) {
    for (std::int64_t oy = 0; oy < g.out_h; ++oy) {
      for (std::int64_t ox = 0; ox < g.out_w; ++ox) {
        // Every output channel accumulates its own chain, bias first and then
        // the taps in (fy, fx, ic) order, straight into the output pixel.
        // Walking the channels innermost keeps out_ch independent chains in
        // flight instead of waiting on one chain's latency at a time.
        float* yp = y + ((n * g.out_h + oy) * g.out_w + ox) * g.out_ch;
        for (std::int64_t oc = 0; oc < g.out_ch; ++oc) yp[oc] = bias[oc];
        const WindowBox box = g.window(oy, ox);
        for (std::int64_t iy = box.y0; iy < box.y1; ++iy) {
          for (std::int64_t ix = box.x0; ix < box.x1; ++ix) {
            const float* xp = x + ((n * g.in_h + iy) * g.in_w + ix) * g.in_ch;
            const float* wp = w + (box.fy(iy) * g.kw + box.fx(ix)) * g.in_ch;
            for (std::int64_t ic = 0; ic < g.in_ch; ++ic) {
              const float xv = xp[ic];
              for (std::int64_t oc = 0; oc < g.out_ch; ++oc) {
                yp[oc] += xv * wp[oc * filter_stride + ic];
              }
            }
          }
        }
        for (std::int64_t oc = 0; oc < g.out_ch; ++oc) {
          yp[oc] = apply_activation_f32(yp[oc], node.attrs.activation);
        }
      }
    }
  }
}

void dwconv2d_f32(const KernelContext& ctx) {
  const Node& node = *ctx.node;
  const ConvGeometry g =
      conv_geometry(node, ctx.input(0).shape(), ctx.output->shape());
  const float* x = ctx.input(0).data<float>();
  const float* w = node.weights[0].data<float>();  // [1, kh, kw, out_ch]
  const float* bias = node.weights[1].data<float>();
  float* y = ctx.output->data<float>();
  const std::int64_t ch = g.out_ch;
  for (std::int64_t n = 0; n < g.batch; ++n) {
    for (std::int64_t oy = 0; oy < g.out_h; ++oy) {
      for (std::int64_t ox = 0; ox < g.out_w; ++ox) {
        const WindowBox box = g.window(oy, ox);
        for (std::int64_t c = 0; c < ch; ++c) {
          float acc = bias[c];
          for (std::int64_t iy = box.y0; iy < box.y1; ++iy) {
            for (std::int64_t ix = box.x0; ix < box.x1; ++ix) {
              acc += x[((n * g.in_h + iy) * g.in_w + ix) * g.in_ch +
                       c / g.depth_mult] *
                     w[(box.fy(iy) * g.kw + box.fx(ix)) * ch + c];
            }
          }
          y[((n * g.out_h + oy) * g.out_w + ox) * ch + c] =
              apply_activation_f32(acc, node.attrs.activation);
        }
      }
    }
  }
}

MLX_REF_SCALAR_DOT
void fc_f32(const KernelContext& ctx) {
  const Tensor& in = ctx.input(0);
  const Node& node = *ctx.node;
  const Tensor& weight = node.weights[0];  // [out, in]
  const float* bias = node.weights[1].data<float>();
  const std::int64_t batch = in.shape().dim(0);
  const std::int64_t in_dim = weight.shape().dim(1);
  const std::int64_t out_dim = weight.shape().dim(0);
  const float* x = in.data<float>();
  const float* w = weight.data<float>();
  float* y = ctx.output->data<float>();
  for (std::int64_t n = 0; n < batch; ++n) {
    for (std::int64_t o = 0; o < out_dim; ++o) {
      float acc = bias[o];
      for (std::int64_t i = 0; i < in_dim; ++i) {
        acc += x[n * in_dim + i] * w[o * in_dim + i];
      }
      y[n * out_dim + o] = apply_activation_f32(acc, node.attrs.activation);
    }
  }
}

template <bool kIsMax>
void pool_f32(const KernelContext& ctx) {
  const ConvGeometry g =
      conv_geometry(*ctx.node, ctx.input(0).shape(), ctx.output->shape());
  const std::int64_t ch = g.in_ch;
  const float* x = ctx.input(0).data<float>();
  float* y = ctx.output->data<float>();
  for (std::int64_t n = 0; n < g.batch; ++n) {
    for (std::int64_t oy = 0; oy < g.out_h; ++oy) {
      for (std::int64_t ox = 0; ox < g.out_w; ++ox) {
        const WindowBox box = g.window(oy, ox);
        const std::int64_t count = box.area();
        for (std::int64_t c = 0; c < ch; ++c) {
          float best = -3.4e38f;
          float sum = 0.0f;
          for (std::int64_t iy = box.y0; iy < box.y1; ++iy) {
            for (std::int64_t ix = box.x0; ix < box.x1; ++ix) {
              float v = x[((n * g.in_h + iy) * g.in_w + ix) * ch + c];
              best = std::max(best, v);
              sum += v;
            }
          }
          y[((n * g.out_h + oy) * g.out_w + ox) * ch + c] =
              kIsMax ? best
                     : (count > 0 ? sum / static_cast<float>(count) : 0.0f);
        }
      }
    }
  }
}

void mean_f32(const KernelContext& ctx) {
  const Tensor& in = ctx.input(0);
  const Shape& is = in.shape();
  const std::int64_t hw = is.dim(1) * is.dim(2);
  const std::int64_t ch = is.dim(3);
  const float* x = in.data<float>();
  float* y = ctx.output->data<float>();
  for (std::int64_t n = 0; n < is.dim(0); ++n) {
    for (std::int64_t c = 0; c < ch; ++c) {
      float sum = 0.0f;
      for (std::int64_t p = 0; p < hw; ++p) sum += x[(n * hw + p) * ch + c];
      y[n * ch + c] = sum / static_cast<float>(hw);
    }
  }
}

// Element-at-a-time pad (intentionally naive; the optimized resolver uses
// row memcpy, reproducing the paper's Pad latency gap in Table 4).
template <typename T>
void pad_naive(const KernelContext& ctx) {
  const Tensor& in = ctx.input(0);
  const Node& node = *ctx.node;
  const Shape& is = in.shape();
  const Shape& os = ctx.output->shape();
  T pad_value = 0;
  if constexpr (std::is_same_v<T, std::int8_t>) {
    if (ctx.output->quant().quantized()) {
      pad_value = static_cast<T>(ctx.output->quant().zero_point());
    }
  }
  T* y = ctx.output->data<T>();
  for (std::int64_t i = 0; i < os.num_elements(); ++i) y[i] = pad_value;
  const T* x = in.data<T>();
  for (std::int64_t n = 0; n < is.dim(0); ++n) {
    for (std::int64_t h = 0; h < is.dim(1); ++h) {
      for (std::int64_t w = 0; w < is.dim(2); ++w) {
        for (std::int64_t c = 0; c < is.dim(3); ++c) {
          y[((n * os.dim(1) + h + node.attrs.pad_top) * os.dim(2) + w +
             node.attrs.pad_left) * os.dim(3) + c] =
              x[((n * is.dim(1) + h) * is.dim(2) + w) * is.dim(3) + c];
        }
      }
    }
  }
}

// Shared add/sub body: same-shape, or b = [N,1,1,C] broadcasting over
// a = [N,H,W,C] (same broadcast rule as mul).
template <bool kIsSub>
void addsub_f32(const KernelContext& ctx) {
  const Tensor& a = ctx.input(0);
  const Tensor& b = ctx.input(1);
  const Shape& as = a.shape();
  const float* pa = a.data<float>();
  const float* pb = b.data<float>();
  float* y = ctx.output->data<float>();
  const Activation act = ctx.node->attrs.activation;
  auto emit = [&](std::int64_t out_idx, std::int64_t b_idx) {
    const float v =
        kIsSub ? pa[out_idx] - pb[b_idx] : pa[out_idx] + pb[b_idx];
    y[out_idx] = apply_activation_f32(v, act);
  };
  if (as == b.shape()) {
    for (std::int64_t i = 0; i < a.num_elements(); ++i) emit(i, i);
    return;
  }
  const std::int64_t hw = as.dim(1) * as.dim(2);
  const std::int64_t ch = as.dim(3);
  for (std::int64_t n = 0; n < as.dim(0); ++n) {
    for (std::int64_t p = 0; p < hw; ++p) {
      for (std::int64_t c = 0; c < ch; ++c) {
        emit((n * hw + p) * ch + c, n * ch + c);
      }
    }
  }
}

void add_f32(const KernelContext& ctx) { addsub_f32<false>(ctx); }
void sub_f32(const KernelContext& ctx) { addsub_f32<true>(ctx); }

void mul_f32(const KernelContext& ctx) {
  const Tensor& a = ctx.input(0);
  const Tensor& b = ctx.input(1);
  const Shape& as = a.shape();
  const Shape& bs = b.shape();
  const float* pa = a.data<float>();
  const float* pb = b.data<float>();
  float* y = ctx.output->data<float>();
  if (as == bs) {
    for (std::int64_t i = 0; i < a.num_elements(); ++i) y[i] = pa[i] * pb[i];
    return;
  }
  // b broadcast [N,1,1,C] over a [N,H,W,C] (squeeze-excite gate).
  const std::int64_t hw = as.dim(1) * as.dim(2);
  const std::int64_t ch = as.dim(3);
  for (std::int64_t n = 0; n < as.dim(0); ++n) {
    for (std::int64_t p = 0; p < hw; ++p) {
      for (std::int64_t c = 0; c < ch; ++c) {
        y[(n * hw + p) * ch + c] = pa[(n * hw + p) * ch + c] * pb[n * ch + c];
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Quantized (int8) reference kernels: plain loops over the optimized
// kernels' integer arithmetic. Each accumulates exactly in int32 and
// requantizes through the one fixed-point spec (fixed_point.h, and the
// elementwise parameter builders and per-element rules of elementwise.h),
// so the two resolvers agree byte for byte and a diff between them names a
// kernel bug, not a rounding rule.
// ---------------------------------------------------------------------------

// The int8 conv, depthwise and FC epilogue: per-channel Q31 tables built
// per invoke by the prepare hooks' fill_requant_tables; each exact
// accumulator is requantized, offset by the output zero point and clamped
// to the fused activation range.
struct ChannelRequant {
  ChannelRequant(const Node& node, const QuantParams& in_q,
                 const QuantParams& w_q, const QuantParams& out_q,
                 std::int64_t channels)
      : multipliers(static_cast<std::size_t>(channels)),
        shifts(static_cast<std::size_t>(channels)),
        out_zp(out_q.zero_point()),
        range(quant_activation_range(node.attrs.activation, out_q.scale(),
                                     out_zp)) {
    fill_requant_tables(in_q, w_q, out_q, channels, multipliers.data(),
                        shifts.data());
  }

  std::int8_t operator()(std::int32_t acc, std::int64_t c) const {
    const auto ch = static_cast<std::size_t>(c);
    const std::int32_t q =
        multiply_by_quantized_multiplier(acc, multipliers[ch], shifts[ch]) +
        out_zp;
    return static_cast<std::int8_t>(std::clamp(q, range.min, range.max));
  }

  std::vector<std::int32_t> multipliers;
  std::vector<int> shifts;
  std::int32_t out_zp;
  QuantActivationRange range;
};

void conv2d_i8_ref(const KernelContext& ctx) {
  const Tensor& in = ctx.input(0);
  const Node& node = *ctx.node;
  const Tensor& filter = node.weights[0];  // OHWI
  Tensor& out = *ctx.output;
  const ConvGeometry g = conv_geometry(node, in.shape(), out.shape());
  const std::int32_t in_zp = in.quant().zero_point();
  const ChannelRequant requant(node, in.quant(), filter.quant(), out.quant(),
                               g.out_ch);
  const std::int8_t* x = in.data<std::int8_t>();
  const std::int8_t* w = filter.data<std::int8_t>();
  const std::int32_t* b = node.weights[1].data<std::int32_t>();
  std::int8_t* y = out.data<std::int8_t>();
  for (std::int64_t n = 0; n < g.batch; ++n) {
    for (std::int64_t oy = 0; oy < g.out_h; ++oy) {
      for (std::int64_t ox = 0; ox < g.out_w; ++ox) {
        const WindowBox box = g.window(oy, ox);
        for (std::int64_t oc = 0; oc < g.out_ch; ++oc) {
          std::int32_t acc = b[oc];
          for (std::int64_t iy = box.y0; iy < box.y1; ++iy) {
            for (std::int64_t ix = box.x0; ix < box.x1; ++ix) {
              const std::int8_t* xp =
                  x + ((n * g.in_h + iy) * g.in_w + ix) * g.in_ch;
              const std::int8_t* wp =
                  w + ((oc * g.kh + box.fy(iy)) * g.kw + box.fx(ix)) * g.in_ch;
              for (std::int64_t ic = 0; ic < g.in_ch; ++ic) {
                acc += (static_cast<std::int32_t>(xp[ic]) - in_zp) *
                       static_cast<std::int32_t>(wp[ic]);
              }
            }
          }
          y[((n * g.out_h + oy) * g.out_w + ox) * g.out_ch + oc] =
              requant(acc, oc);
        }
      }
    }
  }
}

void dwconv2d_i8_ref(const KernelContext& ctx) {
  const Tensor& in = ctx.input(0);
  const Node& node = *ctx.node;
  const Tensor& filter = node.weights[0];  // [1, kh, kw, out_ch]
  Tensor& out = *ctx.output;
  const ConvGeometry g = conv_geometry(node, in.shape(), out.shape());
  const std::int64_t ch = g.out_ch;
  const std::int32_t in_zp = in.quant().zero_point();
  const ChannelRequant requant(node, in.quant(), filter.quant(), out.quant(),
                               ch);
  const std::int8_t* x = in.data<std::int8_t>();
  const std::int8_t* w = filter.data<std::int8_t>();
  const std::int32_t* b = node.weights[1].data<std::int32_t>();
  std::int8_t* y = out.data<std::int8_t>();
  for (std::int64_t n = 0; n < g.batch; ++n) {
    for (std::int64_t oy = 0; oy < g.out_h; ++oy) {
      for (std::int64_t ox = 0; ox < g.out_w; ++ox) {
        const WindowBox box = g.window(oy, ox);
        for (std::int64_t c = 0; c < ch; ++c) {
          std::int32_t acc = b[c];
          for (std::int64_t iy = box.y0; iy < box.y1; ++iy) {
            for (std::int64_t ix = box.x0; ix < box.x1; ++ix) {
              acc += (static_cast<std::int32_t>(
                          x[((n * g.in_h + iy) * g.in_w + ix) * g.in_ch +
                            c / g.depth_mult]) -
                      in_zp) *
                     static_cast<std::int32_t>(
                         w[(box.fy(iy) * g.kw + box.fx(ix)) * ch + c]);
            }
          }
          y[((n * g.out_h + oy) * g.out_w + ox) * ch + c] = requant(acc, c);
        }
      }
    }
  }
}

void fc_i8_ref(const KernelContext& ctx) {
  const Tensor& in = ctx.input(0);
  const Node& node = *ctx.node;
  const Tensor& weight = node.weights[0];
  const Tensor& bias = node.weights[1];
  Tensor& out = *ctx.output;
  const std::int64_t batch = in.shape().dim(0);
  const std::int64_t in_dim = weight.shape().dim(1);
  const std::int64_t out_dim = weight.shape().dim(0);
  const std::int32_t in_zp = in.quant().zero_point();
  const ChannelRequant requant(node, in.quant(), weight.quant(), out.quant(),
                               out_dim);
  const std::int8_t* x = in.data<std::int8_t>();
  const std::int8_t* w = weight.data<std::int8_t>();
  const std::int32_t* b = bias.data<std::int32_t>();
  std::int8_t* y = out.data<std::int8_t>();
  for (std::int64_t n = 0; n < batch; ++n) {
    for (std::int64_t o = 0; o < out_dim; ++o) {
      std::int32_t acc = b[o];
      for (std::int64_t i = 0; i < in_dim; ++i) {
        acc += (static_cast<std::int32_t>(x[n * in_dim + i]) - in_zp) *
               static_cast<std::int32_t>(w[o * in_dim + i]);
      }
      y[n * out_dim + o] = requant(acc, o);
    }
  }
}

// Int8 average pool by the one rule (average_i8): the raw sum of each
// channel's in-bounds taps divided by their count, the box's area.
void avgpool_i8_correct(const KernelContext& ctx) {
  const Tensor& in = ctx.input(0);
  const Node& node = *ctx.node;
  Tensor& out = *ctx.output;
  check_avgpool_quant(node, in.quant(), out.quant());
  const ConvGeometry g = conv_geometry(node, in.shape(), out.shape());
  const std::int64_t ch = g.in_ch;
  const std::int8_t* x = in.data<std::int8_t>();
  std::int8_t* y = out.data<std::int8_t>();
  for (std::int64_t n = 0; n < g.batch; ++n) {
    for (std::int64_t oy = 0; oy < g.out_h; ++oy) {
      for (std::int64_t ox = 0; ox < g.out_w; ++ox) {
        const WindowBox box = g.window(oy, ox);
        const auto count = static_cast<std::int32_t>(box.area());
        for (std::int64_t c = 0; c < ch; ++c) {
          std::int32_t sum = 0;
          for (std::int64_t iy = box.y0; iy < box.y1; ++iy) {
            for (std::int64_t ix = box.x0; ix < box.x1; ++ix) {
              sum += x[((n * g.in_h + iy) * g.in_w + ix) * ch + c];
            }
          }
          y[((n * g.out_h + oy) * g.out_w + ox) * ch + c] =
              average_i8(sum, count);
        }
      }
    }
  }
}

// Bug emulation (see DESIGN.md §2): the as-shipped reference AveragePool2D
// applies a wrong fixed right-shift instead of dividing by the window size
// and drops the zero point, collapsing outputs toward a constant — the
// failure signature the paper observed on MobileNetV3's squeeze-excite
// pools (0% accuracy, rMSE peaks at every SE pool layer).
void avgpool_i8_buggy(const KernelContext& ctx) {
  const Tensor& in = ctx.input(0);
  const Node& node = *ctx.node;
  Tensor& out = *ctx.output;
  const Shape& is = in.shape();
  const Shape& os = out.shape();
  const int fh = node.attrs.filter_h;
  const int fw = node.attrs.filter_w;
  const std::int64_t ch = is.dim(3);
  const std::int8_t* x = in.data<std::int8_t>();
  std::int8_t* y = out.data<std::int8_t>();
  for (std::int64_t n = 0; n < os.dim(0); ++n) {
    for (std::int64_t oy = 0; oy < os.dim(1); ++oy) {
      for (std::int64_t ox = 0; ox < os.dim(2); ++ox) {
        for (std::int64_t c = 0; c < ch; ++c) {
          std::int32_t sum = 0;
          for (int fy = 0; fy < fh; ++fy) {
            const std::int64_t iy = oy * node.attrs.stride_h + fy;
            if (iy >= is.dim(1)) continue;
            for (int fx = 0; fx < fw; ++fx) {
              const std::int64_t ix = ox * node.attrs.stride_w + fx;
              if (ix >= is.dim(2)) continue;
              // BUG: raw quantized values, zero point not subtracted.
              sum += x[((n * is.dim(1) + iy) * is.dim(2) + ix) * ch + c];
            }
          }
          // BUG: fixed >>2 instead of dividing by the true window count.
          // Small (2x2) windows happen to survive; the global squeeze-excite
          // pools saturate to ±127 — the "invalid or constant output"
          // signature the paper traced to MobileNetV3's SE pools (§4.4).
          y[((n * os.dim(1) + oy) * os.dim(2) + ox) * ch + c] =
              clamp_to_i8(sum >> 2);
        }
      }
    }
  }
}

void maxpool_i8(const KernelContext& ctx) {
  const ConvGeometry g =
      conv_geometry(*ctx.node, ctx.input(0).shape(), ctx.output->shape());
  const std::int64_t ch = g.in_ch;
  const std::int8_t* x = ctx.input(0).data<std::int8_t>();
  std::int8_t* y = ctx.output->data<std::int8_t>();
  for (std::int64_t n = 0; n < g.batch; ++n) {
    for (std::int64_t oy = 0; oy < g.out_h; ++oy) {
      for (std::int64_t ox = 0; ox < g.out_w; ++ox) {
        const WindowBox box = g.window(oy, ox);
        for (std::int64_t c = 0; c < ch; ++c) {
          std::int8_t best = -128;
          for (std::int64_t iy = box.y0; iy < box.y1; ++iy) {
            for (std::int64_t ix = box.x0; ix < box.x1; ++ix) {
              best = std::max(best,
                              x[((n * g.in_h + iy) * g.in_w + ix) * ch + c]);
            }
          }
          y[((n * g.out_h + oy) * g.out_w + ox) * ch + c] = best;
        }
      }
    }
  }
}

void mean_i8(const KernelContext& ctx) {
  const PackedEwMeanI8 p = build_packed_mean_i8(ctx);
  const Shape& is = ctx.input(0).shape();
  const std::int64_t hw = is.dim(1) * is.dim(2);
  const std::int64_t ch = is.dim(3);
  const std::int8_t* x = ctx.input(0).data<std::int8_t>();
  std::int8_t* y = ctx.output->data<std::int8_t>();
  for (std::int64_t n = 0; n < is.dim(0); ++n) {
    for (std::int64_t c = 0; c < ch; ++c) {
      y[n * ch + c] = mean_channel(p, x + n * hw * ch, hw, ch, c);
    }
  }
}

// Add/Sub (the parameters carry which) and Mul: same-shape, or b =
// [N,1,1,C] broadcasting over a = [N,H,W,C].
template <typename Packed, Packed (*kBuild)(const KernelContext&),
          std::int8_t (*kEmit)(const Packed&, std::int8_t, std::int8_t)>
void binary_i8(const KernelContext& ctx) {
  const Packed p = kBuild(ctx);
  const Tensor& a = ctx.input(0);
  const Tensor& b = ctx.input(1);
  const Shape& as = a.shape();
  const std::int8_t* pa = a.data<std::int8_t>();
  const std::int8_t* pb = b.data<std::int8_t>();
  std::int8_t* y = ctx.output->data<std::int8_t>();
  if (as == b.shape()) {
    for (std::int64_t i = 0; i < a.num_elements(); ++i) {
      y[i] = kEmit(p, pa[i], pb[i]);
    }
    return;
  }
  const std::int64_t hw = as.dim(1) * as.dim(2);
  const std::int64_t ch = as.dim(3);
  for (std::int64_t n = 0; n < as.dim(0); ++n) {
    for (std::int64_t px = 0; px < hw; ++px) {
      for (std::int64_t c = 0; c < ch; ++c) {
        const std::int64_t i = (n * hw + px) * ch + c;
        y[i] = kEmit(p, pa[i], pb[n * ch + c]);
      }
    }
  }
}

void addsub_i8(const KernelContext& ctx) {
  binary_i8<PackedEwAddI8, build_packed_add_i8, add_emit_scalar>(ctx);
}
void mul_i8(const KernelContext& ctx) {
  binary_i8<PackedEwMulI8, build_packed_mul_i8, mul_emit_scalar>(ctx);
}

void avgpool_f32(const KernelContext& ctx) { pool_f32<false>(ctx); }
void maxpool_f32(const KernelContext& ctx) { pool_f32<true>(ctx); }

}  // namespace

void register_ref_float_kernels(KernelMap& map) {
  map[{OpType::kConv2D, false}] = conv2d_f32;
  map[{OpType::kDepthwiseConv2D, false}] = dwconv2d_f32;
  map[{OpType::kFullyConnected, false}] = fc_f32;
  map[{OpType::kAvgPool2D, false}] = avgpool_f32;
  map[{OpType::kMaxPool2D, false}] = maxpool_f32;
  map[{OpType::kMean, false}] = mean_f32;
  map[{OpType::kPad, false}] = pad_naive<float>;
  map[{OpType::kAdd, false}] = add_f32;
  map[{OpType::kSub, false}] = sub_f32;
  map[{OpType::kMul, false}] = mul_f32;
}

void register_ref_quant_kernels(KernelMap& map, bool emulate_avgpool_bug) {
  map[{OpType::kConv2D, true}] = conv2d_i8_ref;
  map[{OpType::kDepthwiseConv2D, true}] = dwconv2d_i8_ref;
  map[{OpType::kFullyConnected, true}] = fc_i8_ref;
  map[{OpType::kAvgPool2D, true}] =
      emulate_avgpool_bug ? avgpool_i8_buggy : avgpool_i8_correct;
  map[{OpType::kMaxPool2D, true}] = maxpool_i8;
  map[{OpType::kMean, true}] = mean_i8;
  map[{OpType::kPad, true}] = pad_naive<std::int8_t>;
  map[{OpType::kAdd, true}] = addsub_i8;
  map[{OpType::kSub, true}] = addsub_i8;
  map[{OpType::kMul, true}] = mul_i8;
}

}  // namespace mlexray
