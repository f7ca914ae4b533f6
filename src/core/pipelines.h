// Instrumented inference pipelines + data playback (paper §3.3).
//
// The same pipeline class plays both roles in the Fig-1 workflow:
//  - the "edge app": deployed model variant + possibly buggy preprocessing;
//  - the "reference pipeline": checkpoint model + the preprocessing the
//    training pipeline actually used (from the model's InputSpec).
// run_*_playback feeds identical sensor data through a pipeline and returns
// the EXray trace for offline validation.
//
// Pipelines are built on the Model/Session serving API: each pipeline
// prepares its own Model and runs a Session over it, with the monitor's
// TraceBuffer attached per-session.
#pragma once

#include "src/core/monitor.h"
#include "src/datasets/synth_image.h"
#include "src/datasets/synth_speech.h"
#include "src/preprocess/audio.h"
#include "src/preprocess/image.h"

namespace mlexray {

struct ClassificationPipelineOptions {
  // Both must outlive the pipeline.
  const Graph* graph = nullptr;
  const OpResolver* resolver = nullptr;
  ImagePipelineConfig preprocess;
  int num_threads = 1;
  EdgeMLMonitor* monitor = nullptr;  // optional
};

class ClassificationPipeline {
 public:
  // Attaches the monitor (if any) to the session as an InvokeObserver;
  // the destructor detaches it, so the monitor may outlive the pipeline.
  explicit ClassificationPipeline(ClassificationPipelineOptions options);
  ~ClassificationPipeline();

  // Sensor frame (u8 HWC RGB) -> predicted label, with instrumentation.
  int process_frame(const Tensor& sensor_u8);

  const Session& session() const { return session_; }

 private:
  ClassificationPipelineOptions options_;
  Model model_;
  Session session_;
};

struct SpeechPipelineOptions {
  const Graph* graph = nullptr;
  const OpResolver* resolver = nullptr;
  AudioPipelineConfig preprocess;
  EdgeMLMonitor* monitor = nullptr;
};

class SpeechPipeline {
 public:
  explicit SpeechPipeline(SpeechPipelineOptions options);
  ~SpeechPipeline();
  int process_frame(const std::vector<float>& waveform);
  const Session& session() const { return session_; }

 private:
  SpeechPipelineOptions options_;
  Model model_;
  Session session_;
};

// Plays a dataset through an instrumented pipeline; returns the trace.
// When spool_path is non-empty, frames are streamed to that .mlxtrace file
// by the monitor's background spooler instead of being retained — the
// returned Trace then carries the pipeline name but no frames.
Trace run_classification_playback(const Graph& graph,
                                  const OpResolver& resolver,
                                  const std::vector<SensorExample>& sensors,
                                  const ImagePipelineConfig& preprocess,
                                  const MonitorOptions& monitor_options,
                                  const std::string& pipeline_name,
                                  int num_threads = 1,
                                  const std::filesystem::path& spool_path = {});

// Reference playback: correct preprocessing straight from the model's
// InputSpec, reference kernels.
Trace run_reference_classification(const Graph& reference_graph,
                                   const std::vector<SensorExample>& sensors,
                                   const MonitorOptions& monitor_options);

Trace run_speech_playback(const Graph& graph, const OpResolver& resolver,
                          const std::vector<SpeechExample>& waves,
                          const AudioPipelineConfig& preprocess,
                          const MonitorOptions& monitor_options,
                          const std::string& pipeline_name);

// Accuracy of a playback trace against dataset labels.
double trace_accuracy(const Trace& trace, const std::vector<int>& labels);

}  // namespace mlexray
