// LoC study — debugging target: latency & memory budget (WITH ML-EXray).
#include "src/core/assertions.h"
#include "src/core/validation.h"
#include "src/core/monitor.h"

using namespace mlexray;

void debug_latency_memory(EdgeMLMonitor& monitor, Session& session,
                          const Trace& edge, const Trace& reference) {
  // [mlx-inst-begin]
  monitor.observe(session);
  monitor.on_inf_start();
  // ... session.invoke() ...
  monitor.on_inf_stop(session);
  monitor.next_frame();
  // [mlx-inst-end]

  // [mlx-asrt-begin]
  DeploymentValidator validator;
  validator.add_assertion("latency", make_latency_budget_assertion(30.0));
  validator.add_assertion("memory", make_memory_budget_assertion(64e6));
  for (const AssertionResult& r : validator.run_assertions(edge, reference))
    if (r.triggered) std::printf("BUDGET: %s\n", r.message.c_str());
  // [mlx-asrt-end]
}
