#include "src/datasets/synth_image.h"

#include <algorithm>
#include <cmath>

namespace mlexray {

namespace {

constexpr int kS = SynthImageNet::kSensorSize;

struct Rgb {
  int r, g, b;
};

void put(Tensor& img, int y, int x, Rgb c) {
  if (y < 0 || y >= kS || x < 0 || x >= kS) return;
  std::uint8_t* p = img.data<std::uint8_t>() + (static_cast<std::int64_t>(y) * kS + x) * 3;
  p[0] = static_cast<std::uint8_t>(std::clamp(c.r, 0, 255));
  p[1] = static_cast<std::uint8_t>(std::clamp(c.g, 0, 255));
  p[2] = static_cast<std::uint8_t>(std::clamp(c.b, 0, 255));
}

Tensor noisy_background(Pcg32& rng, int base) {
  Tensor img = Tensor::u8(Shape{kS, kS, 3});
  std::uint8_t* p = img.data<std::uint8_t>();
  for (std::int64_t i = 0; i < img.num_elements(); ++i) {
    int v = base + static_cast<int>(rng.next_below(25)) - 12;
    p[i] = static_cast<std::uint8_t>(std::clamp(v, 0, 255));
  }
  return img;
}

void draw_blob(Tensor& img, Pcg32& rng, Rgb color) {
  const int cy = 24 + static_cast<int>(rng.next_below(48));
  const int cx = 24 + static_cast<int>(rng.next_below(48));
  const int radius = 15 + static_cast<int>(rng.next_below(12));
  for (int y = cy - radius; y <= cy + radius; ++y) {
    for (int x = cx - radius; x <= cx + radius; ++x) {
      int dy = y - cy, dx = x - cx;
      if (dy * dy + dx * dx <= radius * radius) {
        int jitter = static_cast<int>(rng.next_below(30)) - 15;
        put(img, y, x,
            {color.r + jitter, color.g + jitter, color.b + jitter});
      }
    }
  }
}

void draw_stripes(Tensor& img, Pcg32& rng, bool horizontal, int period,
                  Rgb bright) {
  const int phase = static_cast<int>(rng.next_below(static_cast<std::uint32_t>(period)));
  for (int y = 0; y < kS; ++y) {
    for (int x = 0; x < kS; ++x) {
      int t = horizontal ? y : x;
      if (((t + phase) / (period / 2)) % 2 == 0) {
        int jitter = static_cast<int>(rng.next_below(20)) - 10;
        put(img, y, x, {bright.r + jitter, bright.g + jitter, bright.b + jitter});
      }
    }
  }
}

void draw_diagonal(Tensor& img, Pcg32& rng, bool rising, Rgb bright) {
  const int period = 18;
  const int phase = static_cast<int>(rng.next_below(period));
  for (int y = 0; y < kS; ++y) {
    for (int x = 0; x < kS; ++x) {
      int t = rising ? (x + y) : (x - y + kS);
      if (((t + phase) / (period / 2)) % 2 == 0) {
        int jitter = static_cast<int>(rng.next_below(20)) - 10;
        put(img, y, x, {bright.r + jitter, bright.g + jitter, bright.b + jitter});
      }
    }
  }
}

void draw_gradient(Tensor& img, Pcg32& rng, bool top_down) {
  for (int y = 0; y < kS; ++y) {
    for (int x = 0; x < kS; ++x) {
      int t = top_down ? y : x;
      int v = 40 + t * 2 + static_cast<int>(rng.next_below(16)) - 8;
      put(img, y, x, {v, v, v});
    }
  }
}

void draw_checker(Tensor& img, Pcg32& rng, int cell) {
  const int phase_y = static_cast<int>(rng.next_below(static_cast<std::uint32_t>(cell)));
  const int phase_x = static_cast<int>(rng.next_below(static_cast<std::uint32_t>(cell)));
  for (int y = 0; y < kS; ++y) {
    for (int x = 0; x < kS; ++x) {
      bool on = (((y + phase_y) / cell) + ((x + phase_x) / cell)) % 2 == 0;
      int v = on ? 200 : 55;
      v += static_cast<int>(rng.next_below(16)) - 8;
      put(img, y, x, {v, v, v});
    }
  }
}

}  // namespace

const char* SynthImageNet::class_name(int label) {
  static const char* kNames[kClasses] = {
      "red_blob",      "blue_blob",       "green_blob",   "yellow_blob",
      "h_stripes",     "v_stripes",       "diag_rising",  "diag_falling",
      "grad_top_down", "grad_left_right", "fine_checker", "coarse_checker"};
  MLX_CHECK(label >= 0 && label < kClasses);
  return kNames[label];
}

Tensor SynthImageNet::render(int label, Pcg32& rng) {
  Tensor img = noisy_background(rng, 70);
  switch (label) {
    case 0: draw_blob(img, rng, {220, 50, 50}); break;   // red (R<->B pair)
    case 1: draw_blob(img, rng, {50, 50, 220}); break;   // blue (pair)
    case 2: draw_blob(img, rng, {50, 210, 50}); break;   // green (swap-invariant)
    case 3: draw_blob(img, rng, {220, 210, 50}); break;  // yellow -> cyan
    case 4: draw_stripes(img, rng, /*horizontal=*/true, 18, {185, 185, 185}); break;
    case 5: draw_stripes(img, rng, /*horizontal=*/false, 18, {185, 185, 185}); break;
    case 6: draw_diagonal(img, rng, /*rising=*/true, {170, 170, 170}); break;
    case 7: draw_diagonal(img, rng, /*rising=*/false, {170, 170, 170}); break;
    case 8: draw_gradient(img, rng, /*top_down=*/true); break;
    case 9: draw_gradient(img, rng, /*top_down=*/false); break;
    case 10: draw_checker(img, rng, 2); break;  // fine (aliases under bilinear)
    case 11: draw_checker(img, rng, 9); break;  // coarse
    default: MLX_FAIL() << "bad label " << label;
  }
  return img;
}

std::vector<SensorExample> SynthImageNet::make(int per_class,
                                               std::uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<SensorExample> out;
  out.reserve(static_cast<std::size_t>(per_class) * kClasses);
  for (int c = 0; c < kClasses; ++c) {
    for (int i = 0; i < per_class; ++i) {
      SensorExample ex;
      ex.image_u8 = render(c, rng);
      ex.label = c;
      out.push_back(std::move(ex));
    }
  }
  return out;
}

const char* SynthCoco::class_name(int cls) {
  static const char* kNames[kClasses] = {"red_box", "blue_box", "green_disc",
                                         "yellow_disc"};
  MLX_CHECK(cls >= 0 && cls < kClasses);
  return kNames[cls];
}

DetExample SynthCoco::render(Pcg32& rng) {
  DetExample ex;
  ex.image_u8 = noisy_background(rng, 80);
  const int count = 1 + static_cast<int>(rng.next_below(3));
  for (int i = 0; i < count; ++i) {
    DetObject obj;
    obj.cls = static_cast<int>(rng.next_below(kClasses));
    const int size = 21 + static_cast<int>(rng.next_below(21));
    const int cy = size / 2 + static_cast<int>(rng.next_below(static_cast<std::uint32_t>(kS - size)));
    const int cx = size / 2 + static_cast<int>(rng.next_below(static_cast<std::uint32_t>(kS - size)));
    obj.cx = static_cast<float>(cx) / kS;
    obj.cy = static_cast<float>(cy) / kS;
    obj.w = static_cast<float>(size) / kS;
    obj.h = static_cast<float>(size) / kS;
    Rgb colors[kClasses] = {
        {210, 60, 60}, {60, 60, 210}, {60, 200, 80}, {220, 210, 60}};
    Rgb c = colors[obj.cls];
    const bool disc = obj.cls >= 2;
    for (int y = cy - size / 2; y < cy + size / 2; ++y) {
      for (int x = cx - size / 2; x < cx + size / 2; ++x) {
        if (disc) {
          int dy = y - cy, dx = x - cx;
          if (dy * dy + dx * dx > (size / 2) * (size / 2)) continue;
        }
        int jitter = static_cast<int>(rng.next_below(26)) - 13;
        put(ex.image_u8, y, x, {c.r + jitter, c.g + jitter, c.b + jitter});
      }
    }
    ex.objects.push_back(obj);
  }
  return ex;
}

std::vector<DetExample> SynthCoco::make(int count, std::uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<DetExample> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) out.push_back(render(rng));
  return out;
}

}  // namespace mlexray
