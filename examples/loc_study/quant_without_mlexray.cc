// LoC study — debugging target: quantization (WITHOUT ML-EXray).
// Hand-rolled per-layer dumping, reloading, and comparison — the weeks-long
// workflow the paper describes in §1. Both sessions passed in are
// Retention::kPreserveAll: the dump reads every layer after invoke, which a
// lean session (the default) refuses.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <vector>

#include "src/interpreter/session.h"

using namespace mlexray;

void debug_quantization_manually(const Graph& model, const Session& session,
                                 const Graph& ref_model,
                                 const Session& ref_session) {
  // [mlx-inst-begin]
  std::ofstream meta("layers_meta.txt");
  for (const Node& n : model.nodes) {
    if (n.type == OpType::kInput) continue;
    meta << n.id << " " << n.name << " "
         << op_type_name(n.type) << " "
         << n.output_shape.to_string() << "\n";
  }
  for (const Node& n : model.nodes) {
    if (n.type == OpType::kInput) continue;
    Tensor out = session.node_output(n.id).to_f32();
    std::string path = "layer_" + std::to_string(n.id) + ".bin";
    std::ofstream dump(path, std::ios::binary);
    dump.write(static_cast<const char*>(out.raw_data()),
               static_cast<std::streamsize>(out.byte_size()));
  }
  for (const Node& n : ref_model.nodes) {
    if (n.type == OpType::kInput) continue;
    Tensor out = ref_session.node_output(n.id).to_f32();
    std::string path = "ref_layer_" + std::to_string(n.id) + ".bin";
    std::ofstream dump(path, std::ios::binary);
    dump.write(static_cast<const char*>(out.raw_data()),
               static_cast<std::streamsize>(out.byte_size()));
  }
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
