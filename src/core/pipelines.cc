#include "src/core/pipelines.h"

#include "src/train/train_loop.h"

namespace mlexray {

ClassificationPipeline::ClassificationPipeline(
    ClassificationPipelineOptions options)
    : options_(options),
      model_(options.graph, options.resolver, options.num_threads),
      session_(&model_) {
  // Push-based capture: per-layer telemetry is recorded during invoke by
  // the monitor's TraceBuffer instead of a post-hoc model walk.
  if (options_.monitor != nullptr) options_.monitor->observe(session_);
}

ClassificationPipeline::~ClassificationPipeline() {
  // If the monitor died first its destructor already detached and cleared
  // the session's observer — only call back into it while its buffer is
  // still attached, so either destruction order is safe.
  if (options_.monitor != nullptr && session_.observer() != nullptr) {
    options_.monitor->unobserve(session_);
  }
}

int ClassificationPipeline::process_frame(const Tensor& sensor_u8) {
  EdgeMLMonitor* mon = options_.monitor;
  if (mon != nullptr) mon->log_tensor(trace_keys::kSensorRaw, sensor_u8);

  Tensor input = run_image_pipeline(sensor_u8, options_.preprocess);
  if (mon != nullptr) {
    mon->log_tensor(trace_keys::kPreprocessOut, input);
    mon->log_tensor(trace_keys::kModelInput, input);
  }

  session_.set_input(0, input);
  if (mon != nullptr) mon->on_inf_start();
  session_.invoke();
  if (mon != nullptr) mon->on_inf_stop(session_);

  int predicted = argmax(session_.output(0));
  if (mon != nullptr) {
    mon->log_scalar(trace_keys::kPredictedLabel, predicted);
    mon->next_frame();
  }
  return predicted;
}

SpeechPipeline::SpeechPipeline(SpeechPipelineOptions options)
    : options_(options),
      model_(options.graph, options.resolver),
      session_(&model_) {
  if (options_.monitor != nullptr) options_.monitor->observe(session_);
}

SpeechPipeline::~SpeechPipeline() {
  if (options_.monitor != nullptr && session_.observer() != nullptr) {
    options_.monitor->unobserve(session_);
  }
}

int SpeechPipeline::process_frame(const std::vector<float>& waveform) {
  EdgeMLMonitor* mon = options_.monitor;
  Tensor input = run_audio_pipeline(waveform, options_.preprocess);
  if (mon != nullptr) {
    mon->log_tensor(trace_keys::kPreprocessOut, input);
    mon->log_tensor(trace_keys::kModelInput, input);
  }
  session_.set_input(0, input);
  if (mon != nullptr) mon->on_inf_start();
  session_.invoke();
  if (mon != nullptr) mon->on_inf_stop(session_);
  int predicted = argmax(session_.output(0));
  if (mon != nullptr) {
    mon->log_scalar(trace_keys::kPredictedLabel, predicted);
    mon->next_frame();
  }
  return predicted;
}

Trace run_classification_playback(const Graph& graph,
                                  const OpResolver& resolver,
                                  const std::vector<SensorExample>& sensors,
                                  const ImagePipelineConfig& preprocess,
                                  const MonitorOptions& monitor_options,
                                  const std::string& pipeline_name,
                                  int num_threads,
                                  const std::filesystem::path& spool_path) {
  EdgeMLMonitor monitor(monitor_options);
  monitor.set_pipeline_name(pipeline_name);
  if (!spool_path.empty()) monitor.spool_to(spool_path);
  ClassificationPipelineOptions opts;
  opts.graph = &graph;
  opts.resolver = &resolver;
  opts.preprocess = preprocess;
  opts.num_threads = num_threads;
  opts.monitor = &monitor;
  ClassificationPipeline pipeline(opts);
  for (const SensorExample& s : sensors) {
    pipeline.process_frame(s.image_u8);
  }
  if (!spool_path.empty()) monitor.finish_spool();
  return monitor.take_trace();
}

Trace run_reference_classification(const Graph& reference_graph,
                                   const std::vector<SensorExample>& sensors,
                                   const MonitorOptions& monitor_options) {
  static const RefOpResolver kRefResolver{};  // correct reference kernels
  ImagePipelineConfig correct{reference_graph.input_spec, PreprocBug::kNone};
  return run_classification_playback(reference_graph, kRefResolver, sensors,
                                     correct, monitor_options,
                                     reference_graph.name + "(reference)");
}

Trace run_speech_playback(const Graph& graph, const OpResolver& resolver,
                          const std::vector<SpeechExample>& waves,
                          const AudioPipelineConfig& preprocess,
                          const MonitorOptions& monitor_options,
                          const std::string& pipeline_name) {
  EdgeMLMonitor monitor(monitor_options);
  monitor.set_pipeline_name(pipeline_name);
  SpeechPipelineOptions opts;
  opts.graph = &graph;
  opts.resolver = &resolver;
  opts.preprocess = preprocess;
  opts.monitor = &monitor;
  SpeechPipeline pipeline(opts);
  for (const SpeechExample& w : waves) {
    pipeline.process_frame(w.wave);
  }
  return monitor.take_trace();
}

double trace_accuracy(const Trace& trace, const std::vector<int>& labels) {
  MLX_CHECK_EQ(trace.frames.size(), labels.size());
  if (trace.frames.empty()) return 0.0;
  int correct = 0;
  for (std::size_t i = 0; i < trace.frames.size(); ++i) {
    if (static_cast<int>(trace.frames[i].scalar(trace_keys::kPredictedLabel)) ==
        labels[i]) {
      ++correct;
    }
  }
  return static_cast<double>(correct) / static_cast<double>(labels.size());
}

}  // namespace mlexray
