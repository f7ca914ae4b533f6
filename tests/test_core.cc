#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <type_traits>
#include <vector>

#include "src/common/file_io.h"
#include "src/convert/converter.h"
#include "src/core/assertions.h"
#include "src/core/pipelines.h"
#include "src/core/validation.h"
#include "src/drift/digest.h"
#include "src/graph/serialization.h"
#include "src/models/zoo.h"
#include "src/quant/quantizer.h"
#include "src/tensor/alloc_stats.h"

namespace mlexray {
namespace {

// A small untrained classifier suffices: assertions and drift localisation
// work on logged tensors, not on task accuracy.
ZooModel tiny_image_model() { return build_mobilenet_v1_mini(99); }

std::vector<SensorExample> sensors(int per_class = 1) {
  return SynthImageNet::make(per_class, 1234);
}

TEST(Trace, SerializationRoundTrip) {
  Trace t;
  t.pipeline_name = "edge";
  FrameTrace f;
  f.frame_id = 3;
  f.tensors["model.input"] = Tensor::f32(Shape{1, 2}, {1.0f, -2.0f});
  f.scalars["latency.inference_ms"] = 12.5;
  f.layer_names = {"conv", "fc"};
  f.layer_outputs.push_back(Tensor::f32(Shape{2}, {0.0f, 1.0f}));
  f.layer_outputs.push_back(Tensor::f32(Shape{1}, {0.5f}));
  f.layer_latency_ms = {0.2, 0.1};
  t.frames.push_back(std::move(f));

  Trace back = deserialize_trace(serialize_trace(t));
  ASSERT_EQ(back.frames.size(), 1u);
  EXPECT_EQ(back.pipeline_name, "edge");
  EXPECT_EQ(back.frames[0].frame_id, 3);
  EXPECT_DOUBLE_EQ(back.frames[0].scalar("latency.inference_ms"), 12.5);
  EXPECT_EQ(back.frames[0].layer_names[1], "fc");
  EXPECT_FLOAT_EQ(back.frames[0].tensor("model.input").data<float>()[1], -2.0f);
}

// Device-supplied bytes are hostile: a crafted length field must fail one
// MlxError before anything is written out of bounds or allocated to its
// claimed size.
void write_tensor_header(BinaryWriter& w, const std::vector<std::int64_t>& dims,
                         std::uint64_t payload_bytes) {
  w.write_u8(static_cast<std::uint8_t>(DType::kF32));
  w.write_u8(static_cast<std::uint8_t>(dims.size()));
  for (std::int64_t d : dims) w.write_i64(d);
  w.write_f32_array({});
  w.write_i32_array({});
  w.write_i32(-1);
  w.write_u64(payload_bytes);
}

TEST(HostileInput, CraftedBytesThrowInsteadOfCrashing) {
  {
    // Rank 200: 200 dims would overrun the 5-slot dims array.
    BinaryWriter w;
    write_tensor_header(w, std::vector<std::int64_t>(200, 1), 4);
    BinaryReader r(w.bytes());
    EXPECT_THROW(deserialize_tensor(r), MlxError);
  }
  {
    // Dims near 2^62: the element count overflows, the payload is tiny.
    BinaryWriter w;
    write_tensor_header(w, {std::int64_t{1} << 62, 4}, 16);
    w.write_f32_array(std::vector<float>(4, 1.0f));
    BinaryReader r(w.bytes());
    EXPECT_THROW(deserialize_tensor(r), MlxError);
  }
  {
    // A payload size far past the end of the input.
    BinaryWriter w;
    write_tensor_header(w, {std::int64_t{1} << 40}, std::uint64_t{1} << 42);
    BinaryReader r(w.bytes());
    EXPECT_THROW(deserialize_tensor(r), MlxError);
  }
  {
    // An unknown dtype.
    BinaryWriter w;
    write_tensor_header(w, {1}, 4);
    std::vector<std::uint8_t> bytes = w.bytes();
    bytes[0] = 0xEE;
    BinaryReader r(bytes);
    EXPECT_THROW(deserialize_tensor(r), MlxError);
  }
  {
    // A quant-scale array claiming 2^61 entries.
    BinaryWriter w;
    w.write_u8(static_cast<std::uint8_t>(DType::kF32));
    w.write_u8(1);
    w.write_i64(1);
    w.write_u64(std::uint64_t{1} << 61);
    BinaryReader r(w.bytes());
    EXPECT_THROW(deserialize_tensor(r), MlxError);
  }
  {
    // Digests as serialize_digest writes them, each with one byte patched:
    // an unknown dtype, and a quantile-sketch top shift of 200 (beyond 43
    // the sketch's weights shift past 64 bits).
    LayerDigest d;
    d.reset();
    d.accumulate(Tensor::f32(Shape{4}, {1.0f, 2.0f, 3.0f, 4.0f}));
    BinaryWriter w;
    serialize_digest(w, d);
    std::vector<std::uint8_t> bad_dtype = w.bytes();
    bad_dtype[0] = 0xEE;
    BinaryReader dtype_reader(bad_dtype);
    LayerDigest back;
    EXPECT_THROW(deserialize_digest(dtype_reader, back), MlxError);
    // dtype u8, count u64, sum f64, sum_sq f64, min f32, max f32, then the
    // sketch's level count and capacity (u32 each) before its top shift.
    const std::size_t top_shift_at = 1 + 8 + 8 + 8 + 4 + 4 + 4 + 4;
    std::vector<std::uint8_t> bad_shift = w.bytes();
    ASSERT_EQ(bad_shift[top_shift_at], 0);
    bad_shift[top_shift_at] = 200;
    BinaryReader shift_reader(bad_shift);
    back = LayerDigest{};
    EXPECT_THROW(deserialize_digest(shift_reader, back), MlxError);
    BinaryReader good_reader(w.bytes());
    back = LayerDigest{};
    deserialize_digest(good_reader, back);
    EXPECT_EQ(back.count, 4u);
  }
  // A trace promising 0xFFFFFFFF frames and carrying none.
  Trace t;
  t.pipeline_name = "edge";
  std::vector<std::uint8_t> bytes = serialize_trace(t);
  const std::size_t count_at = trace_frame_count_offset(t.pipeline_name);
  for (std::size_t i = 0; i < 4; ++i) bytes[count_at + i] = 0xFF;
  EXPECT_THROW(deserialize_trace(bytes), MlxError);
  const auto path =
      std::filesystem::temp_directory_path() / "mlx_hostile.mlxtrace";
  write_file(path, bytes);
  std::size_t truncated = 0;
  EXPECT_TRUE(load_trace_tolerant(path, &truncated).frames.empty());
  EXPECT_EQ(truncated, 0xFFFFFFFFu);
  std::filesystem::remove(path);

  // A well-formed trace whose second frame has one layer fewer than its
  // first: both per-layer reports refuse it with MlxError instead of
  // indexing past the shorter frame.
  Trace ragged;
  ragged.pipeline_name = "ragged";
  for (int layers : {2, 1}) {
    FrameTrace f;
    for (int i = 0; i < layers; ++i) {
      f.layer_names.push_back("layer" + std::to_string(i));
      f.layer_outputs.push_back(Tensor::f32(Shape{2}, {1.0f, 2.0f}));
      f.layer_latency_ms.push_back(0.1);
    }
    ragged.frames.push_back(std::move(f));
  }
  const Trace back = deserialize_trace(serialize_trace(ragged));
  ASSERT_EQ(back.frames.size(), 2u);
  DeploymentValidator validator;
  EXPECT_THROW(validator.per_layer_drift(back, back), MlxError);
  EXPECT_THROW(validator.per_layer_latency(back), MlxError);
}

// The reader borrows its bytes, so it cannot be bound to a temporary.
static_assert(
    !std::is_constructible_v<BinaryReader, std::vector<std::uint8_t>&&>);
static_assert(!std::is_constructible_v<BinaryReader,
                                       const std::vector<std::uint8_t>&&>);
static_assert(
    std::is_constructible_v<BinaryReader, const std::vector<std::uint8_t>&>);

// Untrusted counts size no allocation past what the bytes left could encode.
TEST(HostileInput, CountsReserveNoMoreThanTheBytesLeftEncode) {
  {
    // A mobilenet_v1_mini model file whose node count claims 0x7fffffff.
    const Graph model = tiny_image_model().model;
    std::vector<std::uint8_t> bytes = serialize_model(model);
    // Magic, version, the length-prefixed name, then the input spec (three
    // i32 dims, two u8 enums, two f32 range ends, one u8 flag).
    const std::size_t count_at =
        4 + 4 + 4 + model.name.size() + 3 * 4 + 2 + 2 * 4 + 1;
    ASSERT_GT(bytes.size(), count_at + 4);
    ASSERT_EQ(BinaryReader::load_u32_le(bytes.data() + count_at),
              model.nodes.size());
    bytes[count_at] = bytes[count_at + 1] = bytes[count_at + 2] = 0xFF;
    bytes[count_at + 3] = 0x7F;
    BinaryReader r(bytes);
    EXPECT_THROW(deserialize_model(r), MlxError);
  }
  {
    // A trace whose header claims 0xffffffff frames but holds three empty
    // ones, each the smallest frame v2 encodes.
    BinaryWriter empty_frame;
    serialize_frame(empty_frame, FrameTrace{});
    ASSERT_EQ(empty_frame.size(), 28u);
    Trace t;
    t.pipeline_name = "edge";
    t.frames.resize(3);
    std::vector<std::uint8_t> bytes = serialize_trace(t);
    const std::size_t count_at = trace_frame_count_offset(t.pipeline_name);
    for (std::size_t i = 0; i < 4; ++i) bytes[count_at + i] = 0xFF;
    const auto path =
        std::filesystem::temp_directory_path() / "mlx_hostile_count.mlxtrace";
    write_file(path, bytes);
    std::size_t truncated = 0;
    const Trace back = load_trace_tolerant(path, &truncated);
    std::filesystem::remove(path);
    EXPECT_EQ(back.frames.size(), 3u);
    EXPECT_EQ(truncated, 0xFFFFFFFFu - 3);
    EXPECT_LE(back.frames.capacity(), bytes.size() / 28);
  }
}

// Digest bins and sketch levels decode from one bounds-checked span each:
// a span past the end, or a count past its bound, throws MlxError.
TEST(HostileInput, DigestSpansAndCountsThrow) {
  LayerDigest ints;
  Tensor q = Tensor::i8(Shape{4});
  q.quant() = QuantParams::per_tensor(0.5f, 0);
  for (int i = 0; i < 4; ++i) {
    q.data<std::int8_t>()[i] = static_cast<std::int8_t>(i);
  }
  ints.accumulate(q);
  BinaryWriter iw;
  serialize_digest(iw, ints);
  const std::vector<std::uint8_t>& int_bytes = iw.bytes();
  // dtype u8, count u64, scale f32, zero point i32, isum i64, isum_sq u64,
  // then the used-bin count and (u8 bin, u32 count) per used bin.
  const std::size_t used_at = 1 + 8 + 4 + 4 + 8 + 8;
  ASSERT_EQ(BinaryReader::load_u32_le(int_bytes.data() + used_at), 4u);
  ASSERT_EQ(int_bytes.size(), used_at + 4 + 4 * 5);
  auto read = [](const std::vector<std::uint8_t>& bytes) {
    BinaryReader r(bytes);
    LayerDigest d;
    deserialize_digest(r, d);
    return d;
  };
  EXPECT_EQ(read(int_bytes).hist[128 + 3], 1u);
  {
    // Bins that run past the end.
    std::vector<std::uint8_t> cut(int_bytes.begin(), int_bytes.end() - 1);
    EXPECT_THROW(read(cut), MlxError);
  }
  {
    // 257 used bins.
    std::vector<std::uint8_t> bad = int_bytes;
    bad[used_at] = 0x01;
    bad[used_at + 1] = 0x01;
    EXPECT_THROW(read(bad), MlxError);
  }
  {
    // A repeated bin keeps its last count: the second entry rewrites the
    // first's bin.
    std::vector<std::uint8_t> repeated = int_bytes;
    const std::size_t first = used_at + 4;
    repeated[first + 5] = repeated[first];
    repeated[first + 5 + 1] = 7;
    const LayerDigest d = read(repeated);
    EXPECT_EQ(d.hist[repeated[first]], 7u);
  }

  LayerDigest floats;
  floats.accumulate(Tensor::f32(Shape{4}, {1.0f, 2.0f, 3.0f, 4.0f}));
  BinaryWriter fw;
  serialize_digest(fw, floats);
  const std::vector<std::uint8_t>& float_bytes = fw.bytes();
  // dtype u8, count u64, sum f64, sum_sq f64, min f32, max f32, then the
  // sketch: level count, capacity and top shift (u32 each), then level 0's
  // size and items.
  const std::size_t level0_at = 1 + 8 + 8 + 8 + 4 + 4 + 3 * 4;
  ASSERT_EQ(BinaryReader::load_u32_le(float_bytes.data() + level0_at), 4u);
  EXPECT_EQ(read(float_bytes).quantile(1.0), 4.0);
  {
    // Level 0 cut short inside its items: the level claims 4 items, and the
    // bytes end after 3.
    std::vector<std::uint8_t> cut(float_bytes.begin(),
                                  float_bytes.begin() + level0_at + 4 + 3 * 4);
    EXPECT_THROW(read(cut), MlxError);
  }
  {
    // A level of kLevelCap + 1 items.
    std::vector<std::uint8_t> bad = float_bytes;
    bad[level0_at] = QuantileSketch::kLevelCap + 1;
    EXPECT_THROW(read(bad), MlxError);
  }
}

TEST(Trace, MissingKeyThrows) {
  FrameTrace f;
  EXPECT_THROW(f.tensor("nope"), MlxError);
  EXPECT_THROW(f.scalar("nope"), MlxError);
}

TEST(Trace, FileRoundTrip) {
  Trace t;
  t.pipeline_name = "p";
  t.frames.emplace_back();
  auto path = std::filesystem::temp_directory_path() / "mlx_trace.mlxtrace";
  save_trace(t, path);
  Trace back = load_trace(path);
  EXPECT_EQ(back.frames.size(), 1u);
  std::filesystem::remove(path);
}

TEST(Monitor, CollectsDefaultTelemetry) {
  ZooModel zm = tiny_image_model();
  RefOpResolver ref;
  MonitorOptions opts;
  opts.per_layer_outputs = true;
  Trace trace = run_classification_playback(
      zm.model, ref, sensors(), {zm.model.input_spec, PreprocBug::kNone},
      opts, "test-pipeline");
  ASSERT_EQ(trace.frames.size(), 12u);
  const FrameTrace& f = trace.frames[0];
  EXPECT_TRUE(f.has_tensor(trace_keys::kSensorRaw));
  EXPECT_TRUE(f.has_tensor(trace_keys::kPreprocessOut));
  EXPECT_TRUE(f.has_tensor(trace_keys::kModelOutput));
  EXPECT_GT(f.scalar(trace_keys::kInferenceLatencyMs), 0.0);
  EXPECT_GT(f.scalar(trace_keys::kPeakMemoryBytes), 0.0);
  EXPECT_EQ(static_cast<int>(f.layer_names.size()), zm.model.layer_count());
  EXPECT_EQ(f.layer_names.size(), f.layer_outputs.size());
  EXPECT_EQ(f.layer_names.size(), f.layer_latency_ms.size());
}

TEST(Monitor, PeakMemoryReportsHighWaterNotCurrentLevel) {
  // A large transient tensor allocated and released *before* the frame must
  // still show up in the reported peak: the seed monitor snapshotted
  // AllocStats::current_bytes(), which misses every transient.
  constexpr std::int64_t kTransientBytes = 32 * 1024 * 1024;
  { Tensor transient = Tensor::u8(Shape{kTransientBytes}); }
  ZooModel zm = tiny_image_model();
  RefOpResolver ref;
  MonitorOptions opts;
  Trace trace = run_classification_playback(
      zm.model, ref, sensors(), {zm.model.input_spec, PreprocBug::kNone},
      opts, "peak");
  const double reported =
      trace.frames[0].scalar(trace_keys::kPeakMemoryBytes);
  EXPECT_GE(reported, static_cast<double>(kTransientBytes))
      << "reported peak misses a released transient allocation";
  // A peak is by definition at or above the instantaneous level.
  EXPECT_GE(reported,
            static_cast<double>(AllocStats::instance().current_bytes()));
}

TEST(Monitor, LightModeSkipsLayerOutputs) {
  ZooModel zm = tiny_image_model();
  RefOpResolver ref;
  MonitorOptions opts;  // defaults: no per-layer outputs, latency only
  Trace trace = run_classification_playback(
      zm.model, ref, sensors(), {zm.model.input_spec, PreprocBug::kNone},
      opts, "light");
  EXPECT_TRUE(trace.frames[0].layer_outputs.empty());
  EXPECT_FALSE(trace.frames[0].layer_latency_ms.empty());
  // The default logs are small — well under a few KB per frame once the
  // custom sensor logs are excluded (paper Table 2 reports 0.41 KB/frame).
}

TEST(Validator, AccuracyComparison) {
  ZooModel zm = tiny_image_model();
  RefOpResolver ref;
  auto data = sensors(2);
  std::vector<int> labels;
  for (const auto& s : data) labels.push_back(s.label);
  MonitorOptions opts;
  Trace a = run_classification_playback(
      zm.model, ref, data, {zm.model.input_spec, PreprocBug::kNone}, opts, "a");
  Trace b = run_reference_classification(zm.model, data, opts);
  DeploymentValidator validator;
  AccuracyReport report = validator.validate_accuracy(a, b, labels);
  // Same model, same pipeline: identical accuracy, not degraded.
  EXPECT_DOUBLE_EQ(report.edge_accuracy, report.reference_accuracy);
  EXPECT_FALSE(report.degraded);
}

TEST(Validator, PerLayerDriftLocalisesQuantBug) {
  ZooModel zm = tiny_image_model();
  Graph mobile = convert_for_inference(zm.model);
  auto data = sensors(1);
  ImagePipelineConfig correct{zm.model.input_spec, PreprocBug::kNone};
  Calibrator calib(&mobile);
  for (const auto& s : data) calib.observe({run_image_pipeline(s.image_u8, correct)});
  Graph quant = quantize_model(mobile, calib);

  MonitorOptions opts;
  opts.per_layer_outputs = true;
  BuiltinOpResolver buggy(KernelBugConfig::as_shipped());
  RefOpResolver good;
  Trace edge = run_classification_playback(quant, buggy, data, correct, opts,
                                           "edge-quant");
  Trace reference =
      run_classification_playback(mobile, good, data, correct, opts, "ref");

  DeploymentValidator validator;
  PerLayerReport report = validator.per_layer_drift(edge, reference);
  ASSERT_TRUE(report.first_suspect.has_value());
  // The first suspect layer must be the first DepthwiseConv2D ("block0_dw").
  EXPECT_NE(report.first_suspect->find("dwconv"), std::string::npos)
      << "suspect was " << *report.first_suspect;
}

TEST(Validator, DriftOnLatencyOnlyTraceIsEmptyNotFatal) {
  // Traces recorded without per-layer outputs (the default light monitoring
  // mode) must yield an empty drift report, not an error.
  ZooModel zm = tiny_image_model();
  RefOpResolver ref;
  auto data = sensors(1);
  MonitorOptions opts;  // per_layer_outputs = false
  Trace edge = run_classification_playback(
      zm.model, ref, data, {zm.model.input_spec, PreprocBug::kNone}, opts, "a");
  Trace reference = run_reference_classification(zm.model, data, opts);
  DeploymentValidator validator;
  PerLayerReport report = validator.per_layer_drift(edge, reference);
  EXPECT_TRUE(report.drifts.empty());
  EXPECT_FALSE(report.first_suspect.has_value());
}

TEST(Validator, LatencyReportFindsStragglers) {
  Trace t;
  FrameTrace f;
  f.layer_names = {"a", "b", "c", "slow"};
  f.layer_latency_ms = {0.1, 0.1, 0.1, 5.0};
  t.frames.push_back(f);
  DeploymentValidator validator;
  LatencyReport report = validator.per_layer_latency(t);
  EXPECT_NEAR(report.total_ms, 5.3, 1e-9);
  EXPECT_TRUE(report.layers[3].straggler);
  EXPECT_FALSE(report.layers[0].straggler);

  // A trace recorded without per-layer latency has nothing to rank: an
  // error, not a read of an empty median.
  ZooModel zm = tiny_image_model();
  RefOpResolver ref;
  MonitorOptions opts;
  opts.per_layer_latency = false;
  Trace untimed = run_classification_playback(
      zm.model, ref, sensors(1), {zm.model.input_spec, PreprocBug::kNone},
      opts, "untimed");
  ASSERT_FALSE(untimed.frames.empty());
  EXPECT_THROW(validator.per_layer_latency(untimed), MlxError);
}

TEST(Assertions, ChannelSwapDetected) {
  ZooModel zm = tiny_image_model();
  RefOpResolver ref;
  auto data = sensors(1);
  MonitorOptions opts;
  Trace edge = run_classification_playback(
      zm.model, ref, data, {zm.model.input_spec, PreprocBug::kWrongChannelOrder},
      opts, "edge");
  Trace reference = run_reference_classification(zm.model, data, opts);
  AssertionResult r = make_channel_arrangement_assertion()(edge, reference);
  EXPECT_TRUE(r.triggered) << r.message;
}

TEST(Assertions, ChannelAssertionSilentWhenCorrect) {
  ZooModel zm = tiny_image_model();
  RefOpResolver ref;
  auto data = sensors(1);
  MonitorOptions opts;
  Trace edge = run_classification_playback(
      zm.model, ref, data, {zm.model.input_spec, PreprocBug::kNone}, opts, "e");
  Trace reference = run_reference_classification(zm.model, data, opts);
  EXPECT_FALSE(make_channel_arrangement_assertion()(edge, reference).triggered);
}

class PreprocBugAssertions : public ::testing::TestWithParam<PreprocBug> {};

// One row of the bug matrix: the playback injects GetParam(), and each of
// the four recompute-and-match assertions must trigger exactly when it
// names that bug. The kNone row is a clean playback that trips none.
TEST_P(PreprocBugAssertions, RecomputeAndMatchIdentifiesInjectedBug) {
  PreprocBug injected = GetParam();
  ZooModel zm = tiny_image_model();
  RefOpResolver ref;
  auto data = sensors(1);
  MonitorOptions opts;
  Trace edge = run_classification_playback(
      zm.model, ref, data, {zm.model.input_spec, injected}, opts, "edge");
  Trace reference = run_reference_classification(zm.model, data, opts);
  for (PreprocBug asserted :
       {PreprocBug::kWrongResize, PreprocBug::kWrongChannelOrder,
        PreprocBug::kWrongNormalization, PreprocBug::kRotated90}) {
    AssertionFn assertion =
        make_preproc_bug_assertion(zm.model.input_spec, asserted);
    const AssertionResult r = assertion(edge, reference);
    EXPECT_EQ(r.triggered, asserted == injected)
        << "injected " << preproc_bug_name(injected) << ", asserted "
        << preproc_bug_name(asserted) << ": " << r.message;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBugs, PreprocBugAssertions,
    ::testing::Values(PreprocBug::kWrongResize, PreprocBug::kWrongChannelOrder,
                      PreprocBug::kWrongNormalization, PreprocBug::kRotated90,
                      PreprocBug::kNone));

// Device-supplied traces are hostile: deserialize_tensor accepts a
// [0,96,3] u8 sensor.raw with no payload. The resize_function assertion
// recomputes the pipeline from it and must fail with MlxError before
// reading a byte.
TEST(Assertions, EmptySensorInCraftedTraceThrows) {
  Trace crafted;
  FrameTrace f;
  f.tensors[trace_keys::kSensorRaw] = Tensor::u8(Shape{0, 96, 3});
  f.tensors[trace_keys::kPreprocessOut] = Tensor::f32(Shape{1, 32, 32, 3});
  crafted.frames.push_back(std::move(f));
  const Trace edge = deserialize_trace(serialize_trace(crafted));
  ASSERT_EQ(edge.frames.size(), 1u);
  ASSERT_EQ(edge.frames[0].tensor(trace_keys::kSensorRaw).shape(),
            (Shape{0, 96, 3}));
  AssertionFn resize_function = make_preproc_bug_assertion(
      tiny_image_model().model.input_spec, PreprocBug::kWrongResize);
  EXPECT_THROW(resize_function(edge, Trace{}), MlxError);
}

TEST(Assertions, NormalizationRangeDetected) {
  ZooModel zm = tiny_image_model();
  RefOpResolver ref;
  auto data = sensors(1);
  MonitorOptions opts;
  Trace edge = run_classification_playback(
      zm.model, ref, data,
      {zm.model.input_spec, PreprocBug::kWrongNormalization}, opts, "edge");
  Trace reference = run_reference_classification(zm.model, data, opts);
  EXPECT_TRUE(make_normalization_range_assertion()(edge, reference).triggered);
}

TEST(Assertions, ConstantOutputDetected) {
  Trace edge;
  for (int i = 0; i < 4; ++i) {
    FrameTrace f;
    f.tensors[trace_keys::kModelOutput] = Tensor::f32(Shape{1, 3}, {0.1f, 0.2f, 0.7f});
    edge.frames.push_back(std::move(f));
  }
  Trace ref;  // unused
  EXPECT_TRUE(make_constant_output_assertion()(edge, ref).triggered);
}

TEST(Assertions, VaryingOutputNotFlagged) {
  Trace edge;
  for (int i = 0; i < 4; ++i) {
    FrameTrace f;
    float v = 0.1f * static_cast<float>(i);
    f.tensors[trace_keys::kModelOutput] = Tensor::f32(Shape{1, 2}, {v, 1.0f - v});
    edge.frames.push_back(std::move(f));
  }
  Trace ref;
  EXPECT_FALSE(make_constant_output_assertion()(edge, ref).triggered);
}

TEST(Assertions, BudgetsTrigger) {
  Trace edge;
  FrameTrace f;
  f.scalars[trace_keys::kInferenceLatencyMs] = 100.0;
  f.scalars[trace_keys::kPeakMemoryBytes] = 1e9;
  edge.frames.push_back(std::move(f));
  Trace ref;
  EXPECT_TRUE(make_latency_budget_assertion(10.0)(edge, ref).triggered);
  EXPECT_FALSE(make_latency_budget_assertion(200.0)(edge, ref).triggered);
  EXPECT_TRUE(make_memory_budget_assertion(1e6)(edge, ref).triggered);
}

TEST(Assertions, MissingLogsSkipGracefully) {
  Trace empty_edge, empty_ref;
  AssertionResult r = make_channel_arrangement_assertion()(empty_edge, empty_ref);
  EXPECT_FALSE(r.triggered);
  EXPECT_NE(r.message.find("skipped"), std::string::npos);
}

// The Fig-2 flowchart end-to-end: degraded accuracy -> drift -> root cause.
TEST(Integration, FullValidationFlowCatchesChannelBug) {
  ZooModel zm = tiny_image_model();
  RefOpResolver ref;
  auto data = sensors(2);
  std::vector<int> labels;
  for (const auto& s : data) labels.push_back(s.label);
  MonitorOptions opts;
  opts.per_layer_outputs = true;
  Trace edge = run_classification_playback(
      zm.model, ref, data, {zm.model.input_spec, PreprocBug::kWrongChannelOrder},
      opts, "edge-app");
  Trace reference = run_reference_classification(zm.model, data, opts);

  DeploymentValidator validator;
  register_builtin_image_assertions(validator, zm.model.input_spec);
  auto results = validator.run_assertions(edge, reference);
  int triggered = 0;
  bool channel_hit = false;
  for (const auto& r : results) {
    triggered += r.triggered ? 1 : 0;
    if (r.name == "channel_arrangement" && r.triggered) channel_hit = true;
    // Assertions for bugs that are NOT present must stay silent.
    if (r.name == "orientation" || r.name == "resize_function") {
      EXPECT_FALSE(r.triggered) << r.name << ": " << r.message;
    }
  }
  EXPECT_TRUE(channel_hit);
  EXPECT_GE(triggered, 1);

  AccuracyReport acc = validator.validate_accuracy(edge, reference, labels);
  PerLayerReport drift = validator.per_layer_drift(edge, reference);
  std::string report = validator.report(acc, drift, results);
  EXPECT_NE(report.find("channel_arrangement"), std::string::npos);
}

}  // namespace
}  // namespace mlexray
