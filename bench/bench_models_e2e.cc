// End-to-end Prepare-once / Invoke-many latency of whole deployed models —
// the measurement ML-EXray's per-layer instrumentation sits on top of
// (PAPER.md §4, Tables 2-5 profile full classification and detection models
// in float and int8).
//
// Each benchmark builds a deployment graph at batch 1/4/16, constructs the
// Model once (Prepare: plan, packed weight panels, requant tables) and
// times steady-state invoke() only. items_per_second counts images, so the
// batch rows expose the batched-GEMM win directly. Counters surface the
// memory side: plan-owned prepared storage and the scratch-arena high-water
// mark from SessionStats.
//
// Run via bench/run_benches.sh, which records BENCH_models_e2e.json at the
// repo root.
#include <benchmark/benchmark.h>

#include <functional>
#include <string>

#include "src/convert/converter.h"
#include "src/interpreter/session.h"
#include "src/models/detection.h"
#include "src/models/zoo.h"
#include "src/quant/quantizer.h"

namespace mlexray {
namespace {

constexpr std::uint64_t kSeed = 17;

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

// Builds the float deployment graph at the given batch size.
using FloatModelBuilder = std::function<Graph(int batch)>;

struct E2ECase {
  std::string name;
  FloatModelBuilder build;
  bool quantized;
  int batch;
};

void run_e2e(benchmark::State& state, const E2ECase& c) {
  Graph graph = c.build(c.batch);
  Graph quantized;
  if (c.quantized) {
    // Calibrate on the batch-1 twin: node ids are batch-independent (batch
    // only changes the input shape) and quantize_model reads ranges by node
    // id, so this avoids paying reference-kernel invokes at batch 16.
    Graph calib_model = c.batch == 1 ? graph : c.build(1);
    MLX_CHECK_EQ(calib_model.nodes.size(), graph.nodes.size());
    Calibrator calib(&calib_model);
    for (int i = 0; i < 2; ++i) {
      calib.observe({random_model_input(calib_model, kSeed + 100 + i)});
    }
    quantized = quantize_model(graph, calib);
  }
  const Graph& bench_model = c.quantized ? quantized : graph;
  BuiltinOpResolver opt;
  Model model(&bench_model, &opt, /*num_threads=*/2);
  Session session(&model);
  session.set_input(0, random_model_input(bench_model, kSeed + 7));
  session.invoke();  // warmup: grows the scratch arena to its high-water mark
  for ([[maybe_unused]] auto _ : state) {
    session.invoke();
    benchmark::DoNotOptimize(session.output(0).raw_data());
  }
  const SessionStats& stats = session.last_stats();
  state.SetItemsProcessed(state.iterations() * c.batch);
  state.counters["prepare_ms"] = stats.prepare_ms;
  state.counters["prepared_kb"] =
      static_cast<double>(model.prepared_bytes()) / 1024.0;
  state.counters["arena_hw_kb"] =
      static_cast<double>(stats.arena_high_water_bytes) / 1024.0;
  state.counters["activation_kb"] =
      static_cast<double>(session.activation_bytes()) / 1024.0;
}

void register_cases() {
  std::vector<std::pair<std::string, FloatModelBuilder>> models;
  for (const ZooEntry& entry : image_zoo()) {
    models.emplace_back(entry.name, [build = entry.build](int batch) {
      return convert_for_inference(build(kSeed, batch).model);
    });
  }
  for (const std::string backbone : {"mobilenet", "resnet"}) {
    models.emplace_back("ssd_" + backbone, [backbone](int batch) {
      return convert_for_inference(build_ssd_mini(backbone, kSeed, batch).model);
    });
  }
  for (const auto& [name, build] : models) {
    for (bool quantized : {false, true}) {
      for (int batch : {1, 4, 16}) {
        const std::string bench_name = "E2E/" + name + "/" +
                                       (quantized ? "int8" : "f32") + "/b" +
                                       std::to_string(batch);
        E2ECase c{name, build, quantized, batch};
        benchmark::RegisterBenchmark(
            bench_name.c_str(),
            [c](benchmark::State& state) { run_e2e(state, c); })
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
