// LoC study — debugging target: quantization (WITH ML-EXray).
#include "src/core/assertions.h"
#include "src/core/pipelines.h"
#include "src/core/validation.h"

using namespace mlexray;

void debug_quantization(EdgeMLMonitor& monitor, Session& session,
                        const Trace& edge, const Trace& reference) {
  // [mlx-inst-begin]
  monitor.observe(session);
  monitor.on_inf_start();
  // ... session.invoke() in the app loop ...
  monitor.on_inf_stop(session);
  MonitorOptions per_layer{.per_layer_outputs = true};
  EdgeMLMonitor offline_monitor(per_layer);
  // [mlx-inst-end]

  // [mlx-asrt-begin]
  DeploymentValidator validator;
  validator.add_assertion("quant_drift", make_quantization_drift_assertion(0.1));
  validator.add_assertion("constant_out", make_constant_output_assertion());
  PerLayerReport drift = validator.per_layer_drift(edge, reference);
  if (drift.first_suspect)
    std::printf("suspect layer: %s\n", drift.first_suspect->c_str());
  for (const AssertionResult& r : validator.run_assertions(edge, reference))
    if (r.triggered) std::printf("BUG: %s\n", r.message.c_str());
  // [mlx-asrt-end]
}
