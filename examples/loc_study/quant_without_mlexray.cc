// LoC study — debugging target: quantization (WITHOUT ML-EXray).
// Hand-rolled per-layer dumping, reloading, and comparison — the weeks-long
// workflow the paper describes in §1. A session reuses a layer's bytes once
// its consumers have run, so the dump is a hand-written InvokeObserver that
// writes each layer out while its step runs.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "src/interpreter/invoke_observer.h"
#include "src/interpreter/session.h"

using namespace mlexray;

void debug_quantization_manually(const Graph& model, Session& session,
                                 Session& ref_session, const Tensor& input) {
  // [mlx-inst-begin]
  std::ofstream meta("layers_meta.txt");
  for (const Node& n : model.nodes) {
    if (n.type == OpType::kInput) continue;
    meta << n.id << " " << n.name << " "
         << op_type_name(n.type) << " "
         << n.output_shape.to_string() << "\n";
  }
  struct LayerDump : InvokeObserver {
    std::string prefix;
    void on_step(const Node& n, const Tensor& output, double) override {
      Tensor out = output.to_f32();
      std::ofstream dump(prefix + std::to_string(n.id) + ".bin",
                         std::ios::binary);
      dump.write(static_cast<const char*>(out.raw_data()),
                 static_cast<std::streamsize>(out.byte_size()));
    }
  };
  LayerDump edge_dump;
  edge_dump.prefix = "layer_";
  session.set_observer(&edge_dump);
  session.set_input(0, input);
  session.invoke();
  session.set_observer(nullptr);
  LayerDump ref_dump;
  ref_dump.prefix = "ref_layer_";
  ref_session.set_observer(&ref_dump);
  ref_session.set_input(0, input);
  ref_session.invoke();
  ref_session.set_observer(nullptr);
  std::ifstream meta_in("layers_meta.txt");
  std::map<int, std::string> names;
  std::map<std::string, int> ref_ids;
  int id;
  std::string name, type, shape;
  while (meta_in >> id >> name >> type >> shape) {
    names[id] = name;
    ref_ids[name] = id;
  }
  std::map<int, std::vector<float>> edge_layers;
  std::map<int, std::vector<float>> ref_layers;
  for (const auto& [lid, lname] : names) {
    std::ifstream in("layer_" + std::to_string(lid) + ".bin",
                     std::ios::binary);
    in.seekg(0, std::ios::end);
    std::size_t bytes = static_cast<std::size_t>(in.tellg());
    in.seekg(0);
    std::vector<float> vals(bytes / sizeof(float));
    in.read(reinterpret_cast<char*>(vals.data()),
            static_cast<std::streamsize>(bytes));
    edge_layers[lid] = std::move(vals);
    std::ifstream rin("ref_layer_" + std::to_string(lid) + ".bin",
                      std::ios::binary);
    rin.seekg(0, std::ios::end);
    bytes = static_cast<std::size_t>(rin.tellg());
    rin.seekg(0);
    std::vector<float> rvals(bytes / sizeof(float));
    rin.read(reinterpret_cast<char*>(rvals.data()),
             static_cast<std::streamsize>(bytes));
    ref_layers[lid] = std::move(rvals);
  }
  // [mlx-inst-end]

  // [mlx-asrt-begin]
  for (const auto& [lid, edge_vals] : edge_layers) {
    const std::vector<float>& ref_vals = ref_layers[lid];
    if (edge_vals.size() != ref_vals.size()) {
      std::printf("layer %d size mismatch\n", lid);
      continue;
    }
    double sum_sq = 0.0;
    float ref_min = 3.4e38f;
    float ref_max = -3.4e38f;
    for (std::size_t i = 0; i < edge_vals.size(); ++i) {
      double d = static_cast<double>(edge_vals[i]) - ref_vals[i];
      sum_sq += d * d;
      ref_min = std::min(ref_min, ref_vals[i]);
      ref_max = std::max(ref_max, ref_vals[i]);
    }
    double rmse = std::sqrt(sum_sq / edge_vals.size());
    double range = static_cast<double>(ref_max) - ref_min;
    double normalized = range > 0 ? rmse / range : 0.0;
    if (normalized > 0.1)
      std::printf("layer %d (%s) drift %.4f\n", lid,
                  names[lid].c_str(), normalized);
  }
  std::vector<float> first;
  std::vector<float> second;
  bool constant = true;
  for (const auto& [lid, vals] : edge_layers) {
    if (first.empty()) {
      first = vals;
    } else if (second.empty()) {
      second = vals;
    }
  }
  for (std::size_t i = 0; i < first.size() && i < second.size(); ++i)
    constant &= std::abs(first[i] - second[i]) < 1e-6f;
  if (constant && !first.empty())
    std::printf("WARNING: output looks constant\n");
  // [mlx-asrt-end]
}
