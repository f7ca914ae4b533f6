// Figure 6: per-layer normalized rMSE of the quantized model against the
// float baseline, for MobileNetV2-mini and V3-mini, under both resolvers.
//
// Paper shape: with the as-shipped optimized resolver, rMSE jumps at the
// FIRST DepthwiseConv2D layer (v2: 2nd layer; v3: 13th); with the as-shipped
// reference resolver, V3 shows peaks at every squeeze-excite AvgPool2D. The
// exit code checks it: non-zero unless the OpResolver's first suspect is
// block0_dwconv on both models and the RefOpResolver's is block0_se_pool on
// V3.
#include "bench/bench_util.h"
#include "src/convert/converter.h"
#include "src/core/pipelines.h"
#include "src/core/validation.h"
#include "src/models/trained_models.h"
#include "src/quant/quantizer.h"

namespace mlexray {
namespace {

// Each resolver's first suspect layer ("" for none).
struct FirstSuspects {
  std::string opt, ref;
};

FirstSuspects run_model(const std::string& name) {
  Graph ckpt = trained_image_checkpoint(name);
  Graph mobile = convert_for_inference(ckpt);
  ImagePipelineConfig correct{ckpt.input_spec, PreprocBug::kNone};
  auto sensors = SynthImageNet::make(2, 4242);

  Calibrator calib(&mobile);
  for (const auto& s : SynthImageNet::make(8, 777)) {
    calib.observe({run_image_pipeline(s.image_u8, correct)});
  }
  Graph quant = quantize_model(mobile, calib);

  MonitorOptions opts;
  opts.per_layer_outputs = true;
  RefOpResolver ref_fixed;
  BuiltinOpResolver opt_shipped(KernelBugConfig::as_shipped());
  RefOpResolver ref_shipped(KernelBugConfig::as_shipped());

  Trace baseline = run_classification_playback(mobile, ref_fixed, sensors,
                                               correct, opts, "baseline");
  Trace quant_opt = run_classification_playback(quant, opt_shipped, sensors,
                                                correct, opts, "quant-opt");
  Trace quant_ref = run_classification_playback(quant, ref_shipped, sensors,
                                                correct, opts, "quant-ref");

  DeploymentValidator validator;
  PerLayerReport opt_report = validator.per_layer_drift(quant_opt, baseline);
  PerLayerReport ref_report = validator.per_layer_drift(quant_ref, baseline);

  std::printf("\n--- %s: normalized rMSE per layer (quant vs float baseline)\n",
              name.c_str());
  std::vector<std::vector<std::string>> rows;
  for (std::size_t i = 0; i < opt_report.drifts.size(); ++i) {
    const LayerDrift& o = opt_report.drifts[i];
    const LayerDrift& r = ref_report.drifts[i];
    std::string flag;
    if (o.suspect) flag += " <-- OpResolver drift";
    if (r.suspect) flag += " <-- RefOpResolver drift";
    rows.push_back({std::to_string(i), o.layer, format_float(o.error, 4),
                    format_float(r.error, 4), flag});
  }
  bench::print_table({"#", "layer", "Mobile Quant", "Mobile Quant Ref", ""},
                     rows);
  if (opt_report.first_suspect) {
    std::printf("OpResolver first suspect layer:    %s\n",
                opt_report.first_suspect->c_str());
  }
  if (ref_report.first_suspect) {
    std::printf("RefOpResolver first suspect layer: %s\n",
                ref_report.first_suspect->c_str());
  }
  return {opt_report.first_suspect.value_or(""),
          ref_report.first_suspect.value_or("")};
}

// Prints an error and returns 1 unless `got` is `want`.
int expect_suspect(const char* resolver, const char* model,
                   const std::string& got, const char* want) {
  if (got == want) return 0;
  std::printf("ERROR: %s first suspect on %s is '%s', expected '%s'\n",
              resolver, model, got.c_str(), want);
  return 1;
}

int run() {
  bench::print_header("Fig 6 — per-layer normalized rMSE localisation",
                      "ML-EXray Fig. 6 (left: v2, right: v3)");
  const FirstSuspects v2 = run_model("mobilenet_v2_mini");
  const FirstSuspects v3 = run_model("mobilenet_v3_mini");
  std::printf(
      "\nexpected shape: OpResolver drift starts at the first DepthwiseConv2D;\n"
      "RefOpResolver drift (v3 only) peaks at squeeze-excite AvgPool2D layers.\n");
  int failures = 0;
  failures += expect_suspect("OpResolver", "mobilenet_v2_mini", v2.opt,
                             "block0_dwconv");
  failures += expect_suspect("OpResolver", "mobilenet_v3_mini", v3.opt,
                             "block0_dwconv");
  failures += expect_suspect("RefOpResolver", "mobilenet_v3_mini", v3.ref,
                             "block0_se_pool");
  return failures > 0 ? 1 : 0;
}

}  // namespace
}  // namespace mlexray

int main() { return mlexray::run(); }
