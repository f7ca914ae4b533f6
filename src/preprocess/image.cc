#include "src/preprocess/image.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

namespace mlexray {

namespace {

// What no resize can read: an image that is not a `dtype` [H,W,C] tensor
// with every dim >= 1, or an output smaller than 1x1. A crafted trace can
// carry the first (a [0,96,3] sensor.raw deserializes with no payload) and
// a crafted graph's InputSpec the second (Shape accepts negative dims).
void check_resize_args(const Tensor& image, DType dtype, int out_h,
                       int out_w) {
  const Shape& s = image.shape();
  MLX_CHECK(image.dtype() == dtype) << "image is " << dtype_name(image.dtype())
                                    << ", expected " << dtype_name(dtype);
  MLX_CHECK(s.rank() == 3 && s.dim(0) >= 1 && s.dim(1) >= 1 && s.dim(2) >= 1)
      << "image must be a non-empty [H,W,C] tensor, got " << s.to_string();
  MLX_CHECK(out_h >= 1 && out_w >= 1)
      << "resize to " << out_h << "x" << out_w;
}

}  // namespace

Tensor image_u8_to_f32(const Tensor& image) {
  MLX_CHECK(image.dtype() == DType::kU8);
  return image.to_f32();
}

Tensor resize_bilinear(const Tensor& f32_hwc, int out_h, int out_w) {
  check_resize_args(f32_hwc, DType::kF32, out_h, out_w);
  const Shape& is = f32_hwc.shape();
  const std::int64_t ih = is.dim(0), iw = is.dim(1), ch = is.dim(2);
  Tensor out = Tensor::f32(Shape{out_h, out_w, ch});
  const float* src = f32_hwc.data<float>();
  float* dst = out.data<float>();
  // Half-pixel centers (matches modern TF/OpenCV behaviour).
  const float sy = static_cast<float>(ih) / static_cast<float>(out_h);
  const float sx = static_cast<float>(iw) / static_cast<float>(out_w);
  for (int oy = 0; oy < out_h; ++oy) {
    float fy = (static_cast<float>(oy) + 0.5f) * sy - 0.5f;
    std::int64_t y0 = static_cast<std::int64_t>(std::floor(fy));
    float wy = fy - static_cast<float>(y0);
    std::int64_t y1 = std::min(y0 + 1, ih - 1);
    y0 = std::max<std::int64_t>(y0, 0);
    for (int ox = 0; ox < out_w; ++ox) {
      float fx = (static_cast<float>(ox) + 0.5f) * sx - 0.5f;
      std::int64_t x0 = static_cast<std::int64_t>(std::floor(fx));
      float wx = fx - static_cast<float>(x0);
      std::int64_t x1 = std::min(x0 + 1, iw - 1);
      x0 = std::max<std::int64_t>(x0, 0);
      for (std::int64_t c = 0; c < ch; ++c) {
        float v00 = src[(y0 * iw + x0) * ch + c];
        float v01 = src[(y0 * iw + x1) * ch + c];
        float v10 = src[(y1 * iw + x0) * ch + c];
        float v11 = src[(y1 * iw + x1) * ch + c];
        float top = v00 + (v01 - v00) * wx;
        float bot = v10 + (v11 - v10) * wx;
        dst[(static_cast<std::int64_t>(oy) * out_w + ox) * ch + c] =
            top + (bot - top) * wy;
      }
    }
  }
  return out;
}

Tensor resize_area_average(const Tensor& f32_hwc, int out_h, int out_w) {
  check_resize_args(f32_hwc, DType::kF32, out_h, out_w);
  const Shape& is = f32_hwc.shape();
  const std::int64_t ih = is.dim(0), iw = is.dim(1), ch = is.dim(2);
  Tensor out = Tensor::f32(Shape{out_h, out_w, ch});
  const float* src = f32_hwc.data<float>();
  float* dst = out.data<float>();
  const double sy = static_cast<double>(ih) / out_h;
  const double sx = static_cast<double>(iw) / out_w;
  for (int oy = 0; oy < out_h; ++oy) {
    const double y_lo = oy * sy;
    const double y_hi = (oy + 1) * sy;
    for (int ox = 0; ox < out_w; ++ox) {
      const double x_lo = ox * sx;
      const double x_hi = (ox + 1) * sx;
      for (std::int64_t c = 0; c < ch; ++c) {
        double sum = 0.0;
        double area = 0.0;
        for (std::int64_t y = static_cast<std::int64_t>(std::floor(y_lo));
             y < static_cast<std::int64_t>(std::ceil(y_hi)) && y < ih; ++y) {
          double hy = std::min<double>(y + 1, y_hi) - std::max<double>(y, y_lo);
          if (hy <= 0) continue;
          for (std::int64_t x = static_cast<std::int64_t>(std::floor(x_lo));
               x < static_cast<std::int64_t>(std::ceil(x_hi)) && x < iw; ++x) {
            double wx = std::min<double>(x + 1, x_hi) - std::max<double>(x, x_lo);
            if (wx <= 0) continue;
            sum += src[(y * iw + x) * ch + c] * hy * wx;
            area += hy * wx;
          }
        }
        dst[(static_cast<std::int64_t>(oy) * out_w + ox) * ch + c] =
            area > 0 ? static_cast<float>(sum / area) : 0.0f;
      }
    }
  }
  return out;
}

Tensor swap_red_blue(const Tensor& f32_hwc) {
  const Shape& is = f32_hwc.shape();
  MLX_CHECK_EQ(is.rank(), 3);
  MLX_CHECK_GE(is.dim(2), 3);
  Tensor out = f32_hwc;
  float* p = out.data<float>();
  const std::int64_t pixels = is.dim(0) * is.dim(1);
  const std::int64_t ch = is.dim(2);
  for (std::int64_t i = 0; i < pixels; ++i) {
    std::swap(p[i * ch + 0], p[i * ch + 2]);
  }
  return out;
}

Tensor rotate90_clockwise(const Tensor& f32_hwc) {
  const Shape& is = f32_hwc.shape();
  MLX_CHECK_EQ(is.rank(), 3);
  const std::int64_t h = is.dim(0), w = is.dim(1), ch = is.dim(2);
  Tensor out = Tensor::f32(Shape{w, h, ch});
  const float* src = f32_hwc.data<float>();
  float* dst = out.data<float>();
  for (std::int64_t y = 0; y < h; ++y) {
    for (std::int64_t x = 0; x < w; ++x) {
      // (y, x) -> (x, h-1-y)
      for (std::int64_t c = 0; c < ch; ++c) {
        dst[(x * h + (h - 1 - y)) * ch + c] = src[(y * w + x) * ch + c];
      }
    }
  }
  return out;
}

Tensor normalize_image(const Tensor& f32_hwc, float lo, float hi) {
  Tensor out = f32_hwc;
  float* p = out.data<float>();
  const float scale = (hi - lo) / 255.0f;
  for (std::int64_t i = 0; i < out.num_elements(); ++i) {
    p[i] = p[i] * scale + lo;
  }
  return out;
}

Tensor add_batch_dim(const Tensor& f32_hwc) {
  const Shape& is = f32_hwc.shape();
  MLX_CHECK_EQ(is.rank(), 3);
  Tensor out = Tensor::f32(Shape{1, is.dim(0), is.dim(1), is.dim(2)});
  std::memcpy(out.raw_data(), f32_hwc.raw_data(), f32_hwc.byte_size());
  return out;
}

std::string preproc_bug_name(PreprocBug bug) {
  switch (bug) {
    case PreprocBug::kNone: return "none";
    case PreprocBug::kWrongResize: return "resize";
    case PreprocBug::kWrongChannelOrder: return "channel";
    case PreprocBug::kWrongNormalization: return "normalization";
    case PreprocBug::kRotated90: return "rotation";
  }
  MLX_FAIL() << "unknown bug";
}

namespace {

// The sensor as the resize reads it. A 90-degree clockwise rotation is only
// a change of strides: rotated row r, column q is sensor row h-1-q, column
// r, so rows step by one pixel (c bytes) and columns by minus one sensor row
// (-w*c bytes), starting at the sensor's last row.
struct SensorView {
  const std::uint8_t* base;  // pixel (0, 0) of the (rotated) image
  std::int64_t rows, cols;
  std::int64_t row_stride, col_stride;  // in bytes
};

// Where the one pass writes: channel c of output pixel p lands at
// dst[p * ch + channel(c)] as v * scale + lo, which is swap_red_blue,
// normalize_image and add_batch_dim applied at the store.
struct FusedStore {
  float* dst;
  std::int64_t ch;
  bool swap_rb;
  float scale, lo;

  std::int64_t channel(std::int64_t c) const {
    return swap_rb && (c == 0 || c == 2) ? 2 - c : c;
  }
};

// One axis of resize_area_average: output o averages the source indices
// index[first[o]..first[o+1]) with overlap weight > 0. These are exactly the
// taps the reference loop visits, in its order, with weights from its
// double expressions.
struct AreaTaps {
  std::vector<std::int64_t> first;
  std::vector<std::int64_t> index;
  std::vector<double> weight;
};

AreaTaps area_taps(std::int64_t in, int out) {
  AreaTaps t;
  t.first.reserve(static_cast<std::size_t>(out) + 1);
  const double s = static_cast<double>(in) / out;
  for (int o = 0; o < out; ++o) {
    t.first.push_back(static_cast<std::int64_t>(t.index.size()));
    const double lo = o * s;
    const double hi = (o + 1) * s;
    for (std::int64_t i = static_cast<std::int64_t>(std::floor(lo));
         i < static_cast<std::int64_t>(std::ceil(hi)) && i < in; ++i) {
      const double w = std::min<double>(i + 1, hi) - std::max<double>(i, lo);
      if (w <= 0) continue;
      t.index.push_back(i);
      t.weight.push_back(w);
    }
  }
  t.first.push_back(static_cast<std::int64_t>(t.index.size()));
  return t;
}

// A sensor byte as the double the reference accumulates. The table load
// takes half the time of the int-to-double convert on the area pass (96x96
// to 32x32: 42 vs 22 us on an AVX-512 Xeon).
constexpr auto kLevel = [] {
  std::array<double, 256> t{};
  for (int i = 0; i < 256; ++i) t[i] = i;
  return t;
}();

// Channels [c0, c0 + kCh) of every output pixel, accumulated together with
// resize_area_average's per-channel expressions and tap order.
template <int kCh>
void area_average_pass(const SensorView& v, std::int64_t c0,
                       const AreaTaps& ys, const AreaTaps& xs,
                       const FusedStore& st) {
  const std::int64_t out_w = static_cast<std::int64_t>(xs.first.size()) - 1;
  float* dst = st.dst;
  for (std::size_t oy = 0; oy + 1 < ys.first.size(); ++oy) {
    for (std::int64_t ox = 0; ox < out_w; ++ox, dst += st.ch) {
      double sum[kCh] = {};
      double area = 0.0;
      for (std::int64_t a = ys.first[oy]; a < ys.first[oy + 1]; ++a) {
        const double hy = ys.weight[a];
        const std::uint8_t* row = v.base + ys.index[a] * v.row_stride + c0;
        for (std::int64_t b = xs.first[ox]; b < xs.first[ox + 1]; ++b) {
          const double wx = xs.weight[b];
          const std::uint8_t* px = row + xs.index[b] * v.col_stride;
          for (int k = 0; k < kCh; ++k) sum[k] += kLevel[px[k]] * hy * wx;
          area += hy * wx;
        }
      }
      for (int k = 0; k < kCh; ++k) {
        const float r = area > 0 ? static_cast<float>(sum[k] / area) : 0.0f;
        dst[st.channel(c0 + k)] = r * st.scale + st.lo;
      }
    }
  }
}

// One axis of resize_bilinear: the two source indices and the weight of the
// second, from the reference's float expressions (half-pixel centers).
struct LerpTap {
  std::int64_t i0, i1;
  float w;
};

std::vector<LerpTap> bilinear_taps(std::int64_t in, int out) {
  std::vector<LerpTap> taps(static_cast<std::size_t>(out));
  const float s = static_cast<float>(in) / static_cast<float>(out);
  for (int o = 0; o < out; ++o) {
    const float f = (static_cast<float>(o) + 0.5f) * s - 0.5f;
    const std::int64_t i0 = static_cast<std::int64_t>(std::floor(f));
    taps[o] = {std::max<std::int64_t>(i0, 0), std::min(i0 + 1, in - 1),
               f - static_cast<float>(i0)};
  }
  return taps;
}

// Every output pixel with resize_bilinear's per-channel expressions.
void bilinear_pass(const SensorView& v, const std::vector<LerpTap>& ys,
                   const std::vector<LerpTap>& xs, const FusedStore& st) {
  float* dst = st.dst;
  for (const LerpTap& ty : ys) {
    const std::uint8_t* r0 = v.base + ty.i0 * v.row_stride;
    const std::uint8_t* r1 = v.base + ty.i1 * v.row_stride;
    for (const LerpTap& tx : xs) {
      const std::int64_t x0 = tx.i0 * v.col_stride;
      const std::int64_t x1 = tx.i1 * v.col_stride;
      for (std::int64_t c = 0; c < st.ch; ++c) {
        const float v00 = r0[x0 + c], v01 = r0[x1 + c];
        const float v10 = r1[x0 + c], v11 = r1[x1 + c];
        const float top = v00 + (v01 - v00) * tx.w;
        const float bot = v10 + (v11 - v10) * tx.w;
        const float r = top + (bot - top) * ty.w;
        dst[st.channel(c)] = r * st.scale + st.lo;
      }
      dst += st.ch;
    }
  }
}

}  // namespace

Tensor run_image_pipeline(const Tensor& sensor_u8_hwc,
                          const ImagePipelineConfig& config) {
  const InputSpec& spec = config.spec;
  check_resize_args(sensor_u8_hwc, DType::kU8, spec.height, spec.width);
  // Sensor bytes are raw levels; a u8 tensor with quantization parameters
  // holds something else and would need to_f32's dequantization.
  MLX_CHECK(!sensor_u8_hwc.quant().quantized())
      << "sensor image must be raw u8 levels, not a quantized tensor";
  const Shape& is = sensor_u8_hwc.shape();
  const std::int64_t h = is.dim(0), w = is.dim(1), ch = is.dim(2);

  const std::uint8_t* bytes = sensor_u8_hwc.data<std::uint8_t>();
  const SensorView view =
      config.bug == PreprocBug::kRotated90
          ? SensorView{bytes + (h - 1) * w * ch, w, h, ch, -w * ch}
          : SensorView{bytes, h, w, w * ch, ch};

  ResizeMethod method = spec.resize;
  if (config.bug == PreprocBug::kWrongResize) {
    method = method == ResizeMethod::kAreaAverage ? ResizeMethod::kBilinear
                                                  : ResizeMethod::kAreaAverage;
  }

  // Sensor data is RGB; convert when the model expects BGR. The channel bug
  // is delivering the *other* order.
  bool want_bgr = spec.channel_order == ChannelOrder::kBGR;
  if (config.bug == PreprocBug::kWrongChannelOrder) want_bgr = !want_bgr;
  MLX_CHECK(!want_bgr || ch >= 3)
      << "BGR output needs >= 3 sensor channels, got " << ch;

  float lo = spec.range_lo;
  float hi = spec.range_hi;
  if (config.bug == PreprocBug::kWrongNormalization) {
    // The classic mix-up: [0,1] delivered where [-1,1] is expected (and
    // vice versa) — recognition "somewhat works" on a washed-out image.
    if (lo < 0.0f) {
      lo = 0.0f;  // expected [-1,1], deliver [0,1]
    } else {
      lo = -1.0f;
      hi = 1.0f;  // expected [0,1], deliver [-1,1]
    }
  }

  Tensor out = Tensor::f32(Shape{1, spec.height, spec.width, ch});
  const FusedStore st{out.data<float>(), ch, want_bgr, (hi - lo) / 255.0f,
                      lo};
  if (method == ResizeMethod::kBilinear) {
    bilinear_pass(view, bilinear_taps(view.rows, spec.height),
                  bilinear_taps(view.cols, spec.width), st);
    return out;
  }
  const AreaTaps ys = area_taps(view.rows, spec.height);
  const AreaTaps xs = area_taps(view.cols, spec.width);
  // Three-channel sensors, every zoo model's, accumulate a pixel's channels
  // together; any other count runs one channel at a time.
  if (ch == 3) {
    area_average_pass<3>(view, 0, ys, xs, st);
  } else {
    for (std::int64_t c = 0; c < ch; ++c) {
      area_average_pass<1>(view, c, ys, xs, st);
    }
  }
  return out;
}

}  // namespace mlexray
