// Drift-subsystem benchmark: digest capture overhead and fleet aggregation
// throughput (src/drift/).
//
// Part 1 — digest overhead. The fleet-monitoring pitch is "always on": a
// digest-mode monitored invoke must cost within a small margin of a bare
// invoke (the same Table-2 framing the paper uses for logging overhead).
// For a zoo model in f32 and int8 it times three interleaved loops:
//
//   bare    plain session invokes, no observer;
//   digest  per-layer digest capture (moments + sketch / histogram-256),
//           retain_frames=false — the always-on fleet configuration;
//   raw     full per-layer raw-output capture, for scale (the offline
//           validation mode digests replace in steady-state serving).
//
// Each mode runs three interleaved repetitions and keeps the fastest, so
// one scheduling hiccup cannot fake a regression; run_benches.sh refuses to
// stamp BENCH_drift.json when digest overhead exceeds its gate (15%).
//
// Part 2 — aggregation throughput. Merges N simulated devices' digest
// traces into a DriftAggregator and builds the fleet report, recording
// traces/sec and frames/sec for the merge pass and the report build time —
// the "thousands of devices" path the aggregator exists for.
//
// Emits google-benchmark-shaped JSON on stdout (context + benchmarks[]) so
// bench/run_benches.sh digests it with the same tooling as the gbench
// harnesses. Pass --quick for a CI smoke run.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/convert/converter.h"
#include "src/core/monitor.h"
#include "src/drift/aggregator.h"
#include "src/interpreter/session.h"
#include "src/models/zoo.h"
#include "src/quant/quantizer.h"

namespace mlexray {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kSeed = 23;

Tensor random_model_input(const Graph& graph, std::uint64_t seed) {
  const Shape& shape = graph.node(graph.input_ids()[0]).output_shape;
  Tensor input = Tensor::f32(shape);
  Pcg32 rng(seed);
  float* p = input.data<float>();
  for (std::int64_t i = 0; i < input.num_elements(); ++i) {
    p[i] = rng.uniform(-1, 1);
  }
  return input;
}

struct OverheadRow {
  std::string name;
  std::int64_t invokes = 0;
  double bare_us = 0.0;
  double digest_us = 0.0;
  double raw_us = 0.0;
  double overhead_pct = 0.0;      // digest vs bare
  double raw_overhead_pct = 0.0;  // raw capture vs bare, for scale
  double digest_frame_kb = 0.0;
  double raw_frame_kb = 0.0;
  int layers = 0;
};

enum class Mode { kBare, kDigest, kRaw };

// One timed loop of `invokes` monitored (or bare) frames; returns us/invoke.
double time_mode(Session& session, const Tensor& input, Mode mode,
                 std::int64_t invokes, std::size_t* frame_kb) {
  MonitorOptions opts;
  opts.retain_frames = false;
  opts.per_layer_digests = mode == Mode::kDigest;
  opts.per_layer_outputs = mode == Mode::kRaw;
  EdgeMLMonitor monitor(opts);
  if (mode != Mode::kBare) monitor.observe(session);
  session.set_input(0, input);
  // Warm arenas and both capture buffers before the timed window.
  for (int i = 0; i < 3; ++i) {
    if (mode == Mode::kBare) {
      session.invoke();
    } else {
      monitor.on_inf_start();
      session.invoke();
      monitor.on_inf_stop(session);
      monitor.next_frame();
    }
  }
  const auto start = Clock::now();
  for (std::int64_t i = 0; i < invokes; ++i) {
    if (mode == Mode::kBare) {
      session.invoke();
    } else {
      monitor.on_inf_start();
      session.invoke();
      monitor.on_inf_stop(session);
      monitor.next_frame();
    }
  }
  const double us =
      std::chrono::duration<double, std::micro>(Clock::now() - start).count() /
      static_cast<double>(invokes);
  if (frame_kb != nullptr && mode != Mode::kBare) {
    *frame_kb = monitor.buffer().frame_capture_bytes();
  }
  if (mode != Mode::kBare) monitor.unobserve(session);
  return us;
}

OverheadRow digest_overhead(const std::string& model_name, Graph graph,
                            const std::string& dtype, bool quick) {
  BuiltinOpResolver resolver;
  Model model(&graph, &resolver);
  Session session(&model);
  Tensor input = random_model_input(graph, kSeed + 7);

  // Calibrate the loop length off a short probe so every mode runs a
  // comparable wall clock.
  session.set_input(0, input);
  const auto probe_start = Clock::now();
  for (int i = 0; i < 5; ++i) session.invoke();
  const double probe_us =
      std::chrono::duration<double, std::micro>(Clock::now() - probe_start)
          .count() /
      5.0;
  const double target_us = quick ? 30e3 : 300e3;
  const auto invokes = static_cast<std::int64_t>(
      std::max(4.0, target_us / std::max(probe_us, 1.0)));

  OverheadRow row;
  row.name = "drift/digest_overhead/" + model_name + "/" + dtype;
  row.invokes = invokes;
  row.layers = graph.layer_count();
  row.bare_us = 1e30;
  row.digest_us = 1e30;
  row.raw_us = 1e30;
  std::size_t digest_bytes = 0;
  std::size_t raw_bytes = 0;
  // Interleave repetitions so a load spike hits all modes alike; keep the
  // fastest pass per mode (the standard min-time noise filter).
  for (int rep = 0; rep < 3; ++rep) {
    row.bare_us = std::min(
        row.bare_us, time_mode(session, input, Mode::kBare, invokes, nullptr));
    row.digest_us =
        std::min(row.digest_us, time_mode(session, input, Mode::kDigest,
                                          invokes, &digest_bytes));
    row.raw_us = std::min(
        row.raw_us, time_mode(session, input, Mode::kRaw, invokes, &raw_bytes));
  }
  row.overhead_pct = 100.0 * (row.digest_us - row.bare_us) / row.bare_us;
  row.raw_overhead_pct = 100.0 * (row.raw_us - row.bare_us) / row.bare_us;
  row.digest_frame_kb = static_cast<double>(digest_bytes) / 1024.0;
  row.raw_frame_kb = static_cast<double>(raw_bytes) / 1024.0;
  return row;
}

struct AggregateRow {
  std::string name;
  std::size_t devices = 0;
  std::size_t frames = 0;  // per device
  double merge_us_per_trace = 0.0;
  double traces_per_sec = 0.0;
  double frames_per_sec = 0.0;
  double report_ms = 0.0;
  std::size_t report_layers = 0;
  std::size_t trace_kb = 0;  // one device's serialized digest trace
};

AggregateRow aggregation_throughput(const std::string& model_name, Graph graph,
                                    bool quick) {
  const std::size_t devices = quick ? 32 : 256;
  const int frames = quick ? 4 : 8;

  // One recorded digest trace stands in for every device: the aggregator's
  // merge cost depends on layer count and frame count, not on which device
  // produced the digests.
  BuiltinOpResolver resolver;
  Model model(&graph, &resolver);
  Session session(&model);
  MonitorOptions opts;
  opts.per_layer_digests = true;
  EdgeMLMonitor monitor(opts);
  monitor.observe(session);
  for (int i = 0; i < frames; ++i) {
    session.set_input(0, random_model_input(graph, kSeed + 100 + i));
    monitor.on_inf_start();
    session.invoke();
    monitor.on_inf_stop(session);
    monitor.next_frame();
  }
  Trace device_trace = monitor.take_trace();
  monitor.unobserve(session);

  AggregateRow row;
  row.name = "drift/aggregate/" + model_name;
  row.devices = devices;
  row.frames = static_cast<std::size_t>(frames);
  row.trace_kb = device_trace.serialized_bytes() / 1024;

  DriftAggregator agg;
  agg.set_reference(device_trace);
  const auto merge_start = Clock::now();
  for (std::size_t d = 0; d < devices; ++d) {
    agg.add_trace("device-" + std::to_string(d), device_trace);
  }
  const double merge_s =
      std::chrono::duration<double>(Clock::now() - merge_start).count();
  const auto report_start = Clock::now();
  const FleetReport report = agg.report();
  row.report_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - report_start)
          .count();
  row.report_layers = report.layers.size();
  row.merge_us_per_trace = 1e6 * merge_s / static_cast<double>(devices);
  row.traces_per_sec = static_cast<double>(devices) / merge_s;
  row.frames_per_sec =
      static_cast<double>(devices * static_cast<std::size_t>(frames)) /
      merge_s;
  MLX_CHECK_EQ(report.devices, devices);
  return row;
}

int run(bool quick) {
  const ZooEntry* entry = nullptr;
  for (const ZooEntry& e : image_zoo()) {
    if (e.name == "mobilenet_v2_mini") entry = &e;
  }
  MLX_CHECK(entry != nullptr) << "mobilenet_v2_mini missing from the zoo";

  Graph f32_graph = convert_for_inference(entry->build(kSeed, 1).model);
  Graph int8_graph;
  {
    Graph g = convert_for_inference(entry->build(kSeed, 1).model);
    Calibrator calib(&g);
    for (int i = 0; i < 2; ++i) {
      calib.observe({random_model_input(g, kSeed + 200 + i)});
    }
    int8_graph = quantize_model(g, calib);
  }

  std::vector<OverheadRow> overhead;
  overhead.push_back(
      digest_overhead(entry->name, std::move(f32_graph), "f32", quick));
  overhead.push_back(
      digest_overhead(entry->name, std::move(int8_graph), "int8", quick));
  for (const OverheadRow& r : overhead) {
    std::fprintf(stderr,
                 "%-44s bare %8.1f us, digest %8.1f us (+%5.2f%%), raw "
                 "%8.1f us (+%5.1f%%)\n",
                 r.name.c_str(), r.bare_us, r.digest_us, r.overhead_pct,
                 r.raw_us, r.raw_overhead_pct);
  }

  Graph agg_graph = convert_for_inference(entry->build(kSeed, 1).model);
  AggregateRow agg = aggregation_throughput(entry->name, std::move(agg_graph),
                                            quick);
  std::fprintf(stderr,
               "%-44s %zu devices x %zu frames: %.1f traces/s, %.1f "
               "frames/s, report %.2f ms\n",
               agg.name.c_str(), agg.devices, agg.frames, agg.traces_per_sec,
               agg.frames_per_sec, agg.report_ms);

  std::printf("{\n");
  std::printf("  \"context\": {\n");
  std::printf("    \"executable\": \"bench_drift\",\n");
  std::printf("    \"quick\": %s\n", quick ? "true" : "false");
  std::printf("  },\n");
  std::printf("  \"benchmarks\": [\n");
  for (const OverheadRow& r : overhead) {
    std::printf("    {\n");
    std::printf("      \"name\": \"%s\",\n", r.name.c_str());
    std::printf("      \"run_type\": \"iteration\",\n");
    std::printf("      \"iterations\": %lld,\n",
                static_cast<long long>(r.invokes));
    std::printf("      \"real_time\": %.4f,\n", r.digest_us);
    std::printf("      \"cpu_time\": %.4f,\n", r.digest_us);
    std::printf("      \"time_unit\": \"us\",\n");
    std::printf("      \"layers\": %d,\n", r.layers);
    std::printf("      \"bare_us_per_invoke\": %.4f,\n", r.bare_us);
    std::printf("      \"digest_us_per_invoke\": %.4f,\n", r.digest_us);
    std::printf("      \"raw_us_per_invoke\": %.4f,\n", r.raw_us);
    std::printf("      \"digest_overhead_pct\": %.4f,\n", r.overhead_pct);
    std::printf("      \"raw_overhead_pct\": %.4f,\n", r.raw_overhead_pct);
    std::printf("      \"digest_frame_kb\": %.2f,\n", r.digest_frame_kb);
    std::printf("      \"raw_frame_kb\": %.2f\n", r.raw_frame_kb);
    std::printf("    },\n");
  }
  {
    const AggregateRow& r = agg;
    std::printf("    {\n");
    std::printf("      \"name\": \"%s\",\n", r.name.c_str());
    std::printf("      \"run_type\": \"iteration\",\n");
    std::printf("      \"iterations\": %zu,\n", r.devices);
    std::printf("      \"real_time\": %.4f,\n", r.merge_us_per_trace);
    std::printf("      \"cpu_time\": %.4f,\n", r.merge_us_per_trace);
    std::printf("      \"time_unit\": \"us\",\n");
    std::printf("      \"devices\": %zu,\n", r.devices);
    std::printf("      \"frames_per_device\": %zu,\n", r.frames);
    std::printf("      \"traces_per_sec\": %.2f,\n", r.traces_per_sec);
    std::printf("      \"frames_per_sec\": %.2f,\n", r.frames_per_sec);
    std::printf("      \"report_ms\": %.4f,\n", r.report_ms);
    std::printf("      \"report_layers\": %zu,\n", r.report_layers);
    std::printf("      \"device_trace_kb\": %zu\n", r.trace_kb);
    std::printf("    }\n");
  }
  std::printf("  ]\n}\n");
  return 0;
}

}  // namespace
}  // namespace mlexray

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  return mlexray::run(quick);
}
