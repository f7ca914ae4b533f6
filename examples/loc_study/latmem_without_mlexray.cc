// LoC study — debugging target: latency & memory budget (WITHOUT ML-EXray).
#include <chrono>
#include <cstdio>
#include <fstream>
#include <vector>

#include "src/interpreter/session.h"

using namespace mlexray;

void debug_latency_memory_manually(Session& session, const Tensor& input) {
  // [mlx-inst-begin]
  using Clock = std::chrono::steady_clock;
  std::vector<double> latencies;
  auto start = Clock::now();
  session.set_input(0, input);
  session.invoke();
  auto stop = Clock::now();
  latencies.push_back(
      std::chrono::duration<double, std::milli>(stop - start).count());
  std::ifstream statm("/proc/self/statm");
  long pages = 0;
  statm >> pages;
  std::ofstream log("latency_log.txt", std::ios::app);
  log << latencies.back() << " " << pages * 4096 << "\n";
  // [mlx-inst-end]

  // [mlx-asrt-begin]
  double total = 0.0;
  for (double v : latencies) total += v;
  double mean = total / static_cast<double>(latencies.size());
  if (mean > 30.0)
    std::printf("latency budget exceeded: %.2f ms\n", mean);
  long bytes = pages * 4096;
  if (bytes > 64 * 1000 * 1000)
    std::printf("memory budget exceeded: %ld bytes\n", bytes);
  // [mlx-asrt-end]
}
