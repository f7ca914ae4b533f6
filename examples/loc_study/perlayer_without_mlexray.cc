// LoC study — debugging target: per-layer latency (WITHOUT ML-EXray).
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "src/interpreter/session.h"

using namespace mlexray;

void debug_per_layer_latency_manually(const Graph& model, Session& session,
                                      const Tensor& input) {
  // [mlx-inst-begin]
  std::vector<std::vector<double>> per_layer(model.nodes.size());
  for (int frame = 0; frame < 10; ++frame) {
    session.set_input(0, input);
    session.invoke();
    const SessionStats& stats = session.last_stats();
    for (std::size_t i = 0; i < stats.per_node_ms.size(); ++i)
      per_layer[i].push_back(stats.per_node_ms[i]);
  }
  std::ofstream log("per_layer_latency.csv");
  for (std::size_t i = 0; i < per_layer.size(); ++i) {
    log << model.nodes[i].name;
    for (double v : per_layer[i]) log << "," << v;
    log << "\n";
  }
  // [mlx-inst-end]

  // [mlx-asrt-begin]
  std::ifstream in("per_layer_latency.csv");
  std::string line;
  std::vector<std::pair<std::string, double>> means;
  while (std::getline(in, line)) {
    std::stringstream ss(line);
    std::string name;
    std::getline(ss, name, ',');
    double sum = 0.0;
    int count = 0;
    std::string cell;
    while (std::getline(ss, cell, ',')) {
      sum += std::stod(cell);
      ++count;
    }
    if (count > 0) means.emplace_back(name, sum / count);
  }
  std::vector<double> sorted;
  for (const auto& [name, mean] : means) sorted.push_back(mean);
  std::sort(sorted.begin(), sorted.end());
  double median = sorted.empty() ? 0.0 : sorted[sorted.size() / 2];
  for (const auto& [name, mean] : means)
    if (median > 0 && mean > 8.0 * median)
      std::printf("straggler: %s %.3f ms\n", name.c_str(), mean);
  // [mlx-asrt-end]
}
