// Instrumentation overhead across the model zoo — the paper's headline
// claim (Table 2: <0.4% e2e latency for default logging, single-digit
// percent with per-layer logging) as a tracked artifact.
//
// For every zoo model (six classifiers + two SSD-mini detectors, f32 and
// int8, batch 1) this measures a full monitored frame loop —
// on_inf_start / invoke / on_inf_stop / next_frame — in four modes:
//
//   bare     no monitor attached (the baseline denominator)
//   io       log_model_io only (per_layer_latency off)
//   latency  per-layer latency capture (the always-on default)
//   outputs  per-layer raw-dtype output capture (offline validation mode)
//
// The monitor runs push-based (TraceBuffer attached as InvokeObserver) with
// retain_frames = false, so the numbers isolate steady-state capture cost:
// zero heap allocations, no trace accumulation, no serialization.
// bench/run_benches.sh pairs the modes per model, stamps the overhead
// ratios into BENCH_monitor_overhead.json, and prints them.
#include <benchmark/benchmark.h>

#include <functional>
#include <string>

#include "src/convert/converter.h"
#include "src/core/monitor.h"
#include "src/models/detection.h"
#include "src/models/zoo.h"
#include "src/quant/quantizer.h"

namespace mlexray {
namespace {

constexpr std::uint64_t kSeed = 23;

Tensor random_model_input(const Graph& model, std::uint64_t seed) {
  const Shape& shape = model.node(model.input_ids()[0]).output_shape;
  Tensor input = Tensor::f32(shape);
  Pcg32 rng(seed);
  float* p = input.data<float>();
  for (std::int64_t i = 0; i < input.num_elements(); ++i) {
    p[i] = rng.uniform(-1, 1);
  }
  return input;
}

using FloatModelBuilder = std::function<Graph()>;

enum class Mode { kBare, kModelIo, kPerLayerLatency, kPerLayerOutputs };

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kBare: return "bare";
    case Mode::kModelIo: return "io";
    case Mode::kPerLayerLatency: return "latency";
    case Mode::kPerLayerOutputs: return "outputs";
  }
  return "?";
}

MonitorOptions mode_options(Mode m) {
  MonitorOptions o;
  o.retain_frames = false;  // isolate capture cost; memory stays flat
  switch (m) {
    case Mode::kBare: break;
    case Mode::kModelIo:
      o.per_layer_latency = false;
      break;
    case Mode::kPerLayerLatency:
      break;  // the default instrumentation mode
    case Mode::kPerLayerOutputs:
      o.per_layer_outputs = true;
      break;
  }
  return o;
}

struct OverheadCase {
  std::string name;
  FloatModelBuilder build;
  bool quantized;
  Mode mode;
};

void run_overhead(benchmark::State& state, const OverheadCase& c) {
  Graph graph = c.build();
  Graph quantized;
  if (c.quantized) {
    Calibrator calib(&graph);
    for (int i = 0; i < 2; ++i) {
      calib.observe({random_model_input(graph, kSeed + 100 + i)});
    }
    quantized = quantize_model(graph, calib);
  }
  const Graph& bench_model = c.quantized ? quantized : graph;
  BuiltinOpResolver opt;
  // Session before monitor: the monitor detaches itself at destruction.
  Model model(&bench_model, &opt, /*num_threads=*/2);
  Session session(&model);
  EdgeMLMonitor monitor(mode_options(c.mode));
  const bool instrumented = c.mode != Mode::kBare;
  if (instrumented) monitor.observe(session);
  session.set_input(0, random_model_input(bench_model, kSeed + 7));
  // Warm up: arena high-water + both capture buffers (double-buffered).
  for (int i = 0; i < 3; ++i) {
    session.invoke();
    if (instrumented) {
      monitor.on_inf_stop(session);
      monitor.next_frame();
    }
  }
  for (auto _ : state) {
    if (instrumented) {
      monitor.on_inf_start();
      session.invoke();
      monitor.on_inf_stop(session);
      monitor.next_frame();
    } else {
      session.invoke();
    }
    benchmark::DoNotOptimize(session.output(0).raw_data());
  }
  state.SetItemsProcessed(state.iterations());
  if (instrumented) {
    state.counters["capture_kb_per_frame"] =
        static_cast<double>(monitor.buffer().frame_capture_bytes()) / 1024.0;
  }
}

void register_cases() {
  std::vector<std::pair<std::string, FloatModelBuilder>> models;
  for (const ZooEntry& entry : image_zoo()) {
    models.emplace_back(entry.name, [build = entry.build] {
      return convert_for_inference(build(kSeed, /*batch=*/1).model);
    });
  }
  for (const std::string backbone : {"mobilenet", "resnet"}) {
    models.emplace_back("ssd_" + backbone, [backbone] {
      return convert_for_inference(
          build_ssd_mini(backbone, kSeed, /*batch=*/1).model);
    });
  }
  for (const auto& [name, build] : models) {
    for (bool quantized : {false, true}) {
      for (Mode mode : {Mode::kBare, Mode::kModelIo, Mode::kPerLayerLatency,
                        Mode::kPerLayerOutputs}) {
        const std::string bench_name = "Monitor/" + name + "/" +
                                       (quantized ? "int8" : "f32") + "/" +
                                       mode_name(mode);
        OverheadCase c{name, build, quantized, mode};
        benchmark::RegisterBenchmark(
            bench_name.c_str(),
            [c](benchmark::State& state) { run_overhead(state, c); })
            ->Unit(benchmark::kMicrosecond);
      }
    }
  }
}

}  // namespace
}  // namespace mlexray

int main(int argc, char** argv) {
  mlexray::register_cases();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
