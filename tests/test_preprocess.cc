#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "src/common/rng.h"
#include "src/preprocess/audio.h"
#include "src/preprocess/image.h"
#include "src/preprocess/text.h"
#include "src/tensor/alloc_stats.h"
#include "src/tensor/tensor_stats.h"

namespace mlexray {
namespace {

Tensor solid_image(int h, int w, std::uint8_t r, std::uint8_t g,
                   std::uint8_t b) {
  Tensor img = Tensor::u8(Shape{h, w, 3});
  std::uint8_t* p = img.data<std::uint8_t>();
  for (std::int64_t i = 0; i < static_cast<std::int64_t>(h) * w; ++i) {
    p[i * 3 + 0] = r;
    p[i * 3 + 1] = g;
    p[i * 3 + 2] = b;
  }
  return img;
}

TEST(ImageOps, U8ToF32PreservesValues) {
  Tensor img = solid_image(2, 2, 10, 20, 30);
  Tensor f = image_u8_to_f32(img);
  EXPECT_FLOAT_EQ(f.data<float>()[0], 10.0f);
  EXPECT_FLOAT_EQ(f.data<float>()[2], 30.0f);
}

TEST(ImageOps, SwapRedBlue) {
  Tensor f = image_u8_to_f32(solid_image(1, 1, 10, 20, 30));
  Tensor s = swap_red_blue(f);
  EXPECT_FLOAT_EQ(s.data<float>()[0], 30.0f);
  EXPECT_FLOAT_EQ(s.data<float>()[1], 20.0f);
  EXPECT_FLOAT_EQ(s.data<float>()[2], 10.0f);
}

TEST(ImageOps, SwapIsInvolution) {
  Pcg32 rng(3);
  Tensor img = Tensor::u8(Shape{4, 5, 3});
  auto* p = img.data<std::uint8_t>();
  for (std::int64_t i = 0; i < img.num_elements(); ++i) {
    p[i] = static_cast<std::uint8_t>(rng.next_below(256));
  }
  Tensor f = image_u8_to_f32(img);
  EXPECT_TRUE(all_close(swap_red_blue(swap_red_blue(f)), f, 0.0));
}

TEST(ImageOps, Rotate90Geometry) {
  // 2x3 image; pixel (0,0) must land at (0, h-1) = (0,1).
  Tensor f = Tensor::f32(Shape{2, 3, 1});
  f.data<float>()[0] = 7.0f;  // (y=0,x=0)
  Tensor r = rotate90_clockwise(f);
  EXPECT_EQ(r.shape(), (Shape{3, 2, 1}));
  // (y,x) -> (x, h-1-y): (0,0) -> (0,1)
  EXPECT_FLOAT_EQ(r.data<float>()[0 * 2 + 1], 7.0f);
}

TEST(ImageOps, RotateFourTimesIsIdentity) {
  Pcg32 rng(4);
  Tensor img = Tensor::f32(Shape{5, 5, 3});
  float* p = img.data<float>();
  for (std::int64_t i = 0; i < img.num_elements(); ++i) p[i] = rng.uniform(0, 255);
  Tensor r = img;
  for (int i = 0; i < 4; ++i) r = rotate90_clockwise(r);
  EXPECT_TRUE(all_close(r, img, 0.0));
}

TEST(ImageOps, NormalizeRangeMapping) {
  Tensor f = Tensor::f32(Shape{1, 2, 1}, {0.0f, 255.0f});
  Tensor n = normalize_image(f, -1.0f, 1.0f);
  EXPECT_FLOAT_EQ(n.data<float>()[0], -1.0f);
  EXPECT_FLOAT_EQ(n.data<float>()[1], 1.0f);
  Tensor n01 = normalize_image(f, 0.0f, 1.0f);
  EXPECT_FLOAT_EQ(n01.data<float>()[1], 1.0f);
}

TEST(ImageOps, ResizeAreaAverageConstantImage) {
  Tensor f = image_u8_to_f32(solid_image(9, 9, 90, 90, 90));
  Tensor r = resize_area_average(f, 3, 3);
  for (std::int64_t i = 0; i < r.num_elements(); ++i) {
    EXPECT_NEAR(r.data<float>()[i], 90.0f, 1e-3);
  }
}

TEST(ImageOps, ResizeBilinearConstantImage) {
  Tensor f = image_u8_to_f32(solid_image(9, 9, 90, 90, 90));
  Tensor r = resize_bilinear(f, 4, 4);
  for (std::int64_t i = 0; i < r.num_elements(); ++i) {
    EXPECT_NEAR(r.data<float>()[i], 90.0f, 1e-3);
  }
}

TEST(ImageOps, AreaAverageAntiAliasesFineChecker) {
  // 3px checker downsampled 3:1 — area-average flattens it, bilinear leaves
  // residual structure (the §2 resize hazard).
  const int n = 96;
  Tensor img = Tensor::f32(Shape{n, n, 1});
  float* p = img.data<float>();
  for (int y = 0; y < n; ++y) {
    for (int x = 0; x < n; ++x) {
      p[y * n + x] = ((y / 2) + (x / 2)) % 2 == 0 ? 200.0f : 55.0f;
    }
  }
  Tensor area = resize_area_average(img, 32, 32);
  Tensor bil = resize_bilinear(img, 32, 32);
  TensorSummary sa = summarize(area);
  TensorSummary sb = summarize(bil);
  // Area-average flattens the sub-sample texture to near-uniform gray while
  // bilinear point-sampling aliases it into residual moire contrast.
  EXPECT_LT(sa.stddev * 2.0, sb.stddev);
}

TEST(ImagePipeline, CorrectPipelineMatchesSpec) {
  InputSpec spec;
  spec.height = 8;
  spec.width = 8;
  spec.channels = 3;
  spec.range_lo = -1.0f;
  spec.range_hi = 1.0f;
  Tensor sensor = solid_image(16, 16, 255, 128, 0);
  Tensor out = run_image_pipeline(sensor, {spec, PreprocBug::kNone});
  EXPECT_EQ(out.shape(), (Shape{1, 8, 8, 3}));
  EXPECT_NEAR(out.data<float>()[0], 1.0f, 1e-3);            // R=255 -> 1
  EXPECT_NEAR(out.data<float>()[2], -1.0f, 1e-3);           // B=0 -> -1
}

TEST(ImagePipeline, EachBugChangesOutput) {
  InputSpec spec;
  spec.height = 8;
  spec.width = 8;
  spec.channels = 3;
  spec.range_lo = -1.0f;
  spec.range_hi = 1.0f;
  Pcg32 rng(9);
  Tensor sensor = Tensor::u8(Shape{24, 24, 3});
  auto* p = sensor.data<std::uint8_t>();
  for (std::int64_t i = 0; i < sensor.num_elements(); ++i) {
    p[i] = static_cast<std::uint8_t>(rng.next_below(256));
  }
  Tensor correct = run_image_pipeline(sensor, {spec, PreprocBug::kNone});
  for (PreprocBug bug : {PreprocBug::kWrongResize, PreprocBug::kWrongChannelOrder,
                         PreprocBug::kWrongNormalization, PreprocBug::kRotated90}) {
    Tensor buggy = run_image_pipeline(sensor, {spec, bug});
    EXPECT_FALSE(all_close(buggy, correct, 1e-4))
        << preproc_bug_name(bug) << " should alter the output";
  }
}

TEST(ImagePipeline, ChannelBugIsExactlyASwap) {
  InputSpec spec;
  spec.height = 8;
  spec.width = 8;
  spec.channels = 3;
  Pcg32 rng(10);
  Tensor sensor = Tensor::u8(Shape{16, 16, 3});
  auto* p = sensor.data<std::uint8_t>();
  for (std::int64_t i = 0; i < sensor.num_elements(); ++i) {
    p[i] = static_cast<std::uint8_t>(rng.next_below(256));
  }
  Tensor correct = run_image_pipeline(sensor, {spec, PreprocBug::kNone});
  Tensor buggy = run_image_pipeline(sensor, {spec, PreprocBug::kWrongChannelOrder});
  // Swapping R/B of the buggy output recovers the correct one (the paper's
  // channel_assertion logic).
  float* q = buggy.data<float>();
  for (std::int64_t i = 0; i < buggy.num_elements() / 3; ++i) {
    std::swap(q[i * 3], q[i * 3 + 2]);
  }
  EXPECT_TRUE(all_close(buggy, correct, 1e-5));
}

// The staged composition run_image_pipeline replaced: one tensor per stage,
// each from its reference function. The one pass must match it byte for
// byte.
Tensor staged_image_pipeline(const Tensor& sensor_u8_hwc,
                             const ImagePipelineConfig& config) {
  const InputSpec& spec = config.spec;
  Tensor img = image_u8_to_f32(sensor_u8_hwc);

  if (config.bug == PreprocBug::kRotated90) {
    img = rotate90_clockwise(img);
  }

  ResizeMethod method = spec.resize;
  if (config.bug == PreprocBug::kWrongResize) {
    method = method == ResizeMethod::kAreaAverage ? ResizeMethod::kBilinear
                                                  : ResizeMethod::kAreaAverage;
  }
  img = method == ResizeMethod::kAreaAverage
            ? resize_area_average(img, spec.height, spec.width)
            : resize_bilinear(img, spec.height, spec.width);

  bool want_bgr = spec.channel_order == ChannelOrder::kBGR;
  if (config.bug == PreprocBug::kWrongChannelOrder) want_bgr = !want_bgr;
  if (want_bgr) img = swap_red_blue(img);

  float lo = spec.range_lo;
  float hi = spec.range_hi;
  if (config.bug == PreprocBug::kWrongNormalization) {
    if (lo < 0.0f) {
      lo = 0.0f;
    } else {
      lo = -1.0f;
      hi = 1.0f;
    }
  }
  img = normalize_image(img, lo, hi);
  return add_batch_dim(img);
}

Tensor random_sensor(int h, int w, int c, std::uint64_t seed) {
  Pcg32 rng(seed);
  Tensor img = Tensor::u8(Shape{h, w, c});
  auto* p = img.data<std::uint8_t>();
  for (std::int64_t i = 0; i < img.num_elements(); ++i) {
    p[i] = static_cast<std::uint8_t>(rng.next_below(256));
  }
  return img;
}

constexpr PreprocBug kAllBugs[] = {
    PreprocBug::kNone, PreprocBug::kWrongResize, PreprocBug::kWrongChannelOrder,
    PreprocBug::kWrongNormalization, PreprocBug::kRotated90};

TEST(ImagePipeline, OnePassMatchesStagedReference) {
  // 96x96x3 is every zoo model's sensor; the rest cover non-integer and
  // upsampling ratios, non-square and rotated geometry, and the one- and
  // four-channel paths.
  const int sensors[][3] = {{96, 96, 3}, {100, 75, 3}, {20, 20, 3},
                            {33, 64, 3}, {97, 31, 3},  {96, 96, 1},
                            {16, 16, 4}};
  const int outputs[][2] = {{32, 32}, {24, 32}};
  int compared = 0, rejected = 0;
  for (const auto& sd : sensors) {
    const Tensor sensor = random_sensor(sd[0], sd[1], sd[2], 31 + sd[0] + sd[2]);
    for (const auto& od : outputs) {
      for (ResizeMethod resize :
           {ResizeMethod::kAreaAverage, ResizeMethod::kBilinear}) {
        for (ChannelOrder order : {ChannelOrder::kRGB, ChannelOrder::kBGR}) {
          for (float range_lo : {-1.0f, 0.0f}) {
            for (PreprocBug bug : kAllBugs) {
              InputSpec spec;
              spec.height = od[0];
              spec.width = od[1];
              spec.channels = sd[2];
              spec.resize = resize;
              spec.channel_order = order;
              spec.range_lo = range_lo;
              spec.range_hi = 1.0f;
              const ImagePipelineConfig config{spec, bug};
              SCOPED_TRACE(sensor.shape().to_string() + " -> " +
                           std::to_string(od[0]) + "x" +
                           std::to_string(od[1]) + " " +
                           resize_method_name(resize) + " " +
                           channel_order_name(order) + " lo=" +
                           std::to_string(range_lo) + " bug=" +
                           preproc_bug_name(bug));
              Tensor want;
              try {
                want = staged_image_pipeline(sensor, config);
              } catch (const MlxError&) {
                // BGR from a one-channel sensor: swap_red_blue refuses it.
                EXPECT_THROW(run_image_pipeline(sensor, config), MlxError);
                ++rejected;
                continue;
              }
              const Tensor got = run_image_pipeline(sensor, config);
              ASSERT_EQ(got.shape(), want.shape());
              EXPECT_EQ(std::memcmp(got.raw_data(), want.raw_data(),
                                    want.byte_size()),
                        0);
              ++compared;
            }
          }
        }
      }
    }
  }
  // Per (output, resize, range) on the one-channel sensor, 5 of the 10
  // (order, bug) pairs ask for BGR: RGB with the channel bug, and BGR with
  // any other.
  EXPECT_EQ(rejected, 2 * 2 * 2 * 5);
  EXPECT_EQ(compared + rejected, 7 * 2 * 2 * 2 * 2 * 5);
}

TEST(ImagePipeline, OneTrackedAllocationPerCall) {
  InputSpec spec;
  spec.height = 32;
  spec.width = 32;
  spec.channels = 3;
  const Tensor sensor = random_sensor(96, 96, 3, 12);
  for (PreprocBug bug : kAllBugs) {
    const std::uint64_t before = AllocStats::instance().alloc_events();
    const Tensor out = run_image_pipeline(sensor, {spec, bug});
    EXPECT_EQ(AllocStats::instance().alloc_events() - before, 1u)
        << preproc_bug_name(bug);
  }
}

TEST(ImagePipeline, RejectsWhatNoResizeCanRead) {
  InputSpec spec;
  spec.height = 8;
  spec.width = 8;
  spec.channels = 3;
  for (PreprocBug bug : kAllBugs) {
    // Empty sensors, as a crafted trace can deliver them.
    for (const Shape& s : {Shape{0, 96, 3}, Shape{96, 0, 3}, Shape{4, 4, 0}}) {
      EXPECT_THROW(run_image_pipeline(Tensor::u8(s), {spec, bug}), MlxError)
          << s.to_string();
    }
    EXPECT_THROW(run_image_pipeline(Tensor::u8(Shape{16, 48}), {spec, bug}),
                 MlxError);
    EXPECT_THROW(run_image_pipeline(Tensor::f32(Shape{8, 8, 3}), {spec, bug}),
                 MlxError);
    Tensor quantized = random_sensor(8, 8, 3, 1);
    quantized.quant() = QuantParams::per_tensor(0.5f, 3);
    EXPECT_THROW(run_image_pipeline(quantized, {spec, bug}), MlxError);
    // Output sizes below 1x1, as a crafted graph's InputSpec can carry them.
    for (int bad : {0, -3}) {
      InputSpec tiny = spec;
      tiny.height = bad;
      EXPECT_THROW(run_image_pipeline(random_sensor(8, 8, 3, 2), {tiny, bug}),
                   MlxError);
      tiny = spec;
      tiny.width = bad;
      EXPECT_THROW(run_image_pipeline(random_sensor(8, 8, 3, 2), {tiny, bug}),
                   MlxError);
    }
  }
  const Tensor empty = Tensor::f32(Shape{0, 96, 3});
  EXPECT_THROW(resize_bilinear(empty, 8, 8), MlxError);
  EXPECT_THROW(resize_area_average(empty, 8, 8), MlxError);
  const Tensor img = image_u8_to_f32(random_sensor(8, 8, 3, 3));
  for (auto [oh, ow] : {std::pair{0, 8}, std::pair{8, 0}, std::pair{-1, 8}}) {
    EXPECT_THROW(resize_bilinear(img, oh, ow), MlxError);
    EXPECT_THROW(resize_area_average(img, oh, ow), MlxError);
  }
}

// --- audio ---

TEST(Audio, FftMatchesDftOnImpulse) {
  std::vector<std::complex<float>> data(8, {0.0f, 0.0f});
  data[0] = {1.0f, 0.0f};
  fft_inplace(data);
  for (const auto& v : data) {
    EXPECT_NEAR(v.real(), 1.0f, 1e-5);
    EXPECT_NEAR(v.imag(), 0.0f, 1e-5);
  }
}

TEST(Audio, FftDetectsPureTone) {
  const int n = 128;
  std::vector<float> frame(n);
  for (int i = 0; i < n; ++i) {
    frame[i] = std::sin(2.0f * 3.14159265f * 8.0f * i / n);  // bin 8
  }
  auto mags = magnitude_spectrum(frame);
  std::size_t peak = 0;
  for (std::size_t i = 1; i < mags.size(); ++i) {
    if (mags[i] > mags[peak]) peak = i;
  }
  EXPECT_EQ(peak, 8u);
}

TEST(Audio, FftRequiresPowerOfTwo) {
  std::vector<std::complex<float>> data(12);
  EXPECT_THROW(fft_inplace(data), MlxError);
}

TEST(Audio, SpectrogramShape) {
  std::vector<float> wave(2048, 0.1f);
  SpectrogramConfig cfg;  // 128 frame, 64 hop
  Tensor spec = spectrogram(wave, cfg);
  EXPECT_EQ(spec.shape(), (Shape{1, 31, 64, 1}));
}

TEST(Audio, ScaleBugChangesSpectrogram) {
  std::vector<float> wave(2048);
  for (std::size_t i = 0; i < wave.size(); ++i) {
    wave[i] = std::sin(0.3f * static_cast<float>(i));
  }
  AudioPipelineConfig correct;
  AudioPipelineConfig buggy;
  buggy.bug = AudioBug::kWrongScale;
  Tensor a = run_audio_pipeline(wave, correct);
  Tensor b = run_audio_pipeline(wave, buggy);
  EXPECT_FALSE(all_close(a, b, 1e-3));
}

// --- text ---

TEST(Text, TokenizeSplitsOnNonAlnum) {
  auto tokens = tokenize("Hello, world! it's 42");
  ASSERT_EQ(tokens.size(), 5u);
  EXPECT_EQ(tokens[0], "Hello");
  EXPECT_EQ(tokens[3], "s");
  EXPECT_EQ(tokens[4], "42");
}

TEST(Text, VocabularyRanksByFrequency) {
  Vocabulary v = Vocabulary::build({"b", "a", "a", "c", "a", "b"}, 16);
  EXPECT_EQ(v.lookup("a"), 2);  // most frequent gets the first real id
  EXPECT_EQ(v.lookup("b"), 3);
  EXPECT_EQ(v.lookup("zzz"), Vocabulary::kUnknown);
}

TEST(Text, EncodePadsAndTruncates) {
  Vocabulary v = Vocabulary::build({"good", "bad"}, 8);
  TextPipelineConfig cfg;
  cfg.max_len = 4;
  Tensor t = encode_text("good bad good bad good", v, cfg);
  EXPECT_EQ(t.shape(), (Shape{1, 4}));
  Tensor t2 = encode_text("good", v, cfg);
  EXPECT_EQ(t2.data<std::int32_t>()[1], Vocabulary::kPad);
}

TEST(Text, CaseFoldControlsTokenIds) {
  Vocabulary v = Vocabulary::build({"great"}, 8);
  TextPipelineConfig folded;
  folded.max_len = 2;
  TextPipelineConfig raw = folded;
  raw.case_fold = false;
  Tensor a = encode_text("Great", v, folded);
  Tensor b = encode_text("Great", v, raw);
  EXPECT_EQ(a.data<std::int32_t>()[0], v.lookup("great"));
  EXPECT_EQ(b.data<std::int32_t>()[0], Vocabulary::kUnknown);
}

}  // namespace
}  // namespace mlexray
