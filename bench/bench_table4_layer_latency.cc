// Table 4: per-layer-type latency of MobileNetV2-mini and MobileNetV3-mini
// across execution variants:
//   Mobile           — converted float, optimized kernels (measured, host)
//   Mobile Quant     — int8, optimized kernels (measured, host)
//   Mobile Quant Ref — int8, reference kernels (measured, host)
//   Emulator (x86)   — float, modeled with the x86-emulation profile
//
// Paper shape: reference kernels are orders of magnitude slower on conv /
// depthwise / pad; the emulator is pathological on float convolutions.
//
// The V3 table splits out the squeeze-excite elementwise groups (Add, Mul,
// Mean, Logistic, HSwish) that src/kernels/elementwise.h moved onto the
// integer-only Q31/LUT path, and verifies — from the plan's steps — that
// every int8 elementwise node in the plan was prepared by that family, i.e.
// no reference elementwise loop remains on the int8 path.
#include "bench/bench_util.h"
#include "src/convert/converter.h"
#include "src/interpreter/device_profile.h"
#include "src/interpreter/execution_plan.h"
#include "src/models/trained_models.h"
#include "src/quant/quantizer.h"

#include <map>

namespace mlexray {
namespace {

constexpr int kInvokes = 5;

std::map<std::string, double> measure_by_group(const Graph& graph,
                                               const OpResolver& resolver,
                                               const Tensor& input,
                                               int num_threads) {
  Model model(&graph, &resolver, num_threads);
  Session session(&model);
  session.set_input(0, input);
  session.invoke();  // warm-up
  std::map<std::string, double> totals;
  for (int i = 0; i < kInvokes; ++i) {
    session.invoke();
    for (const Node& n : graph.nodes) {
      if (n.type == OpType::kInput) continue;
      totals[op_latency_group(n.type)] +=
          session.last_stats().per_node_ms[static_cast<std::size_t>(n.id)] /
          kInvokes;
    }
  }
  return totals;
}

std::map<std::string, double> modeled_by_group(const Graph& model,
                                               const DeviceProfile& profile) {
  std::map<std::string, double> totals;
  for (const Node& n : model.nodes) {
    if (n.type == OpType::kInput) continue;
    totals[op_latency_group(n.type)] += modeled_node_latency_ms(model, n, profile);
  }
  return totals;
}

bool is_elementwise_type(OpType type) {
  switch (type) {
    case OpType::kAdd:
    case OpType::kSub:
    case OpType::kMul:
    case OpType::kMean:
    case OpType::kSigmoid:
    case OpType::kHardSwish:
    case OpType::kTanh:
      return true;
    default:
      return false;
  }
}

int run_model(const char* checkpoint, const char* title) {
  bench::print_header(title, "ML-EXray Table 4");
  Graph ckpt = trained_image_checkpoint(checkpoint);
  Graph mobile = convert_for_inference(ckpt);
  ImagePipelineConfig correct{ckpt.input_spec, PreprocBug::kNone};
  auto sensors = SynthImageNet::make(1, 9200);
  Tensor input = run_image_pipeline(sensors[0].image_u8, correct);

  Calibrator calib(&mobile);
  for (const auto& s : SynthImageNet::make(4, 777)) {
    calib.observe({run_image_pipeline(s.image_u8, correct)});
  }
  Graph quant = quantize_model(mobile, calib);

  BuiltinOpResolver opt;
  RefOpResolver ref;

  // Integer-only verification: every int8 elementwise node must be
  // plan-prepared by the Q31/LUT family (the reference kernels have no
  // prepare hook, so a node falling back to a reference loop would have no
  // prepared storage in the plan).
  int elementwise_nodes = 0;
  int prepared = 0;
  const ExecutionPlan plan(quant, opt, PoolRef());
  for (const PlanStep& step : plan.steps()) {
    if (!is_elementwise_type(step.node->type)) continue;
    ++elementwise_nodes;
    if (step.kernel->prepare && step.prepared != nullptr) ++prepared;
  }

  auto float_opt = measure_by_group(mobile, opt, input, 2);
  auto quant_opt = measure_by_group(quant, opt, input, 2);
  auto quant_ref = measure_by_group(quant, ref, input, 1);
  auto emu = modeled_by_group(mobile, DeviceProfile::emulator_x86());

  // Layer counts per group.
  std::map<std::string, int> counts;
  for (const Node& n : mobile.nodes) {
    if (n.type != OpType::kInput) ++counts[op_latency_group(n.type)];
  }

  const char* order[] = {"D-Conv", "Conv",     "FC",      "Pool",
                         "Mean",   "Pad",      "Add",     "Mul",
                         "Logistic", "HSwish", "Tanh",    "Softmax",
                         "Quantize", "Other"};
  std::vector<std::vector<std::string>> rows;
  double t_fo = 0, t_qo = 0, t_qr = 0, t_em = 0;
  for (const char* group : order) {
    auto has = [&](std::map<std::string, double>& m) {
      return m.count(group) ? m[group] : 0.0;
    };
    double fo = has(float_opt), qo = has(quant_opt), qr = has(quant_ref),
           em = has(emu);
    if (fo == 0 && qo == 0 && qr == 0 && em == 0) continue;
    t_fo += fo;
    t_qo += qo;
    t_qr += qr;
    t_em += em;
    int count = counts.count(group) ? counts[group] : 0;
    rows.push_back({std::string(group) + "(" + std::to_string(count) + ")",
                    format_float(fo, 3), format_float(qo, 3),
                    format_float(qr, 3), format_float(em, 3)});
  }
  rows.push_back({"Total", format_float(t_fo, 3), format_float(t_qo, 3),
                  format_float(t_qr, 3), format_float(t_em, 3)});
  bench::print_table({"layer type", "Mobile (ms)", "Mobile Quant (ms)",
                      "Mobile Quant Ref (ms)", "Emulator x86 (ms, modeled)"},
                     rows);
  std::printf(
      "\nint8 elementwise nodes: %d, plan-prepared by the Q31/LUT family: %d\n",
      elementwise_nodes, prepared);
  if (prepared != elementwise_nodes) {
    std::printf(
        "ERROR: %d int8 elementwise node(s) ran without the plan-prepared "
        "Q31/LUT tables on the int8 path\n",
        elementwise_nodes - prepared);
    return 1;
  }
  return 0;
}

int run() {
  int rc = run_model("mobilenet_v2_mini",
                     "Table 4 — latency by layer type (MobileNetV2-mini)");
  rc |= run_model(
      "mobilenet_v3_mini",
      "Table 4b — latency by layer type (MobileNetV3-mini, SE elementwise)");
  std::printf(
      "\nexpected shape: reference kernels are orders of magnitude slower on\n"
      "Conv/D-Conv/Pad; the x86 emulator is pathological on float convs\n"
      "(paper Table 4; Mobile/Quant columns measured on host). The V3 split\n"
      "shows the SE elementwise groups (Add/Mul/Mean/Logistic/HSwish) served\n"
      "by the vectorized Q31/LUT family, not the reference loops.\n");
  return rc;
}

}  // namespace
}  // namespace mlexray

int main() { return mlexray::run(); }
