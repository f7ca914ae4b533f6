// mlexray_cli — record EXray traces from a simulated edge app and validate
// edge traces against reference traces offline (the paper's workstation-side
// workflow: logs ship from the device, validation runs in the cloud).
//
//   mlexray_cli record <model> <bug> <frames> <out.mlxtrace> [--digest-only]
//       model: one of the image zoo (e.g. mobilenet_v2_mini)
//       bug:   none|resize|channel|normalization|rotation
//       --digest-only: capture per-layer streaming digests instead of raw
//                      tensors (the always-on fleet monitoring mode)
//   mlexray_cli reference <model> <frames> <out.mlxtrace>
//   mlexray_cli validate <edge.mlxtrace> <reference.mlxtrace> <model>
//   mlexray_cli inspect <trace.mlxtrace>
//   mlexray_cli trace-info <trace.mlxtrace> [--digest-only]
//   mlexray_cli fleet-report <ref.mlxtrace> <device.mlxtrace...>
//                            [--threshold <drift>]
//   mlexray_cli serve <model> <threads> <frames-per-thread>
//
// record streams frames straight to the output file via the monitor's
// background spooler (the on-device path); trace-info is the workstation
// side, reading raw-dtype captures back through Tensor::to_f32; serve
// demonstrates the full serving stack — requests from several client
// threads enter through the FrontDoor (bounded admission, dynamic batching,
// circuit breaker) and are dispatched onto pooled Engine sessions sharing
// one prepared Model.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <thread>

#include "src/core/assertions.h"
#include "src/core/pipelines.h"
#include "src/drift/aggregator.h"
#include "src/interpreter/engine.h"
#include "src/interpreter/front_door.h"
#include "src/models/trained_models.h"
#include "src/tensor/tensor_stats.h"

namespace mlexray {
namespace {

PreprocBug parse_bug(const std::string& name) {
  if (name == "none") return PreprocBug::kNone;
  if (name == "resize") return PreprocBug::kWrongResize;
  if (name == "channel") return PreprocBug::kWrongChannelOrder;
  if (name == "normalization") return PreprocBug::kWrongNormalization;
  if (name == "rotation") return PreprocBug::kRotated90;
  MLX_FAIL() << "unknown bug '" << name
             << "' (none|resize|channel|normalization|rotation)";
}

std::vector<SensorExample> frames_for(int count) {
  auto sensors = SynthImageNet::make((count + SynthImageNet::kClasses - 1) /
                                         SynthImageNet::kClasses,
                                     /*seed=*/5150);
  sensors.resize(static_cast<std::size_t>(count));
  return sensors;
}

int cmd_record(const std::string& model_name, const std::string& bug,
               int frames, const std::string& out, bool reference,
               bool digest_only = false) {
  Graph model = trained_image_checkpoint(model_name);
  RefOpResolver resolver;
  MonitorOptions opts;
  // Digest-only is the always-on fleet mode: fixed-size per-layer sketches
  // in place of raw activations, a fraction of the trace size.
  opts.per_layer_outputs = !digest_only;
  opts.per_layer_digests = digest_only;
  auto sensors = frames_for(frames);
  if (reference) {
    Trace trace = run_reference_classification(model, sensors, opts);
    save_trace(trace, out);
    std::printf("wrote %s (%zu frames, %.1f KB)\n", out.c_str(),
                trace.frames.size(),
                static_cast<double>(trace.serialized_bytes()) / 1e3);
    return 0;
  }
  // Edge recording spools frames to disk from a background thread as they
  // are captured — the device never holds the whole trace in memory.
  run_classification_playback(model, resolver, sensors,
                              {model.input_spec, parse_bug(bug)}, opts,
                              model_name + "-edge", /*num_threads=*/1, out);
  std::printf("spooled %s (%d frames, %.1f KB)\n", out.c_str(), frames,
              static_cast<double>(std::filesystem::file_size(out)) / 1e3);
  return 0;
}

int cmd_validate(const std::string& edge_path, const std::string& ref_path,
                 const std::string& model_name) {
  Trace edge = load_trace(edge_path);
  Trace reference = load_trace(ref_path);
  Graph model = trained_image_checkpoint(model_name);

  auto sensors = frames_for(static_cast<int>(edge.frames.size()));
  std::vector<int> labels;
  for (const auto& s : sensors) labels.push_back(s.label);

  DeploymentValidator validator;
  register_builtin_image_assertions(validator, model.input_spec);
  AccuracyReport acc = validator.validate_accuracy(edge, reference, labels);
  PerLayerReport drift = validator.per_layer_drift(edge, reference);
  auto assertions = validator.run_assertions(edge, reference);
  std::printf("%s", validator.report(acc, drift, assertions).c_str());
  return 0;
}

int cmd_inspect(const std::string& path) {
  Trace trace = load_trace(path);
  std::printf("pipeline: %s\nframes:   %zu\n", trace.pipeline_name.c_str(),
              trace.frames.size());
  if (trace.frames.empty()) return 0;
  const FrameTrace& f = trace.frames[0];
  std::printf("tensor keys (frame 0):\n");
  for (const auto& [key, tensor] : f.tensors) {
    std::printf("  %-20s %s %s\n", key.c_str(),
                dtype_name(tensor.dtype()).c_str(),
                tensor.shape().to_string().c_str());
  }
  std::printf("scalar keys (frame 0):\n");
  for (const auto& [key, value] : f.scalars) {
    std::printf("  %-28s %.4f\n", key.c_str(), value);
  }
  std::printf("per-layer entries: %zu\n", f.layer_names.size());
  return 0;
}

// Largest |value| of a summarized tensor. summarize() dequantizes raw-dtype
// captures through to_f32: offline, never on the device.
double abs_max(const TensorSummary& s) {
  return std::max(std::abs(static_cast<double>(s.min)),
                  std::abs(static_cast<double>(s.max)));
}

// Workstation-side trace digest: frame count, keys, per-model-output and
// per-layer stats (raw dtype captures dequantized through the offline
// to_f32 path), and the overhead scalars aggregated across frames.
int cmd_trace_info(const std::string& path, bool digest_only = false) {
  // Tolerant load: a device killed mid-recording leaves a crash-safe prefix
  // plus at most one torn tail frame — digest what is readable instead of
  // refusing the whole file.
  std::size_t truncated = 0;
  Trace trace = load_trace_tolerant(path, &truncated);
  std::printf("pipeline: %s\nframes:   %zu\n", trace.pipeline_name.c_str(),
              trace.frames.size());
  if (truncated != 0) {
    std::printf("warning:  truncated trace — %zu frame(s) promised by the "
                "header were torn or missing (killed writer?)\n",
                truncated);
  }
  if (trace.frames.empty()) return 0;

  // Aggregate over the union of scalar keys: a key may first appear after
  // frame 0 (e.g. a conditional custom log).
  struct ScalarAgg {
    double sum = 0.0;
    double max_v = -1e300;
    std::size_t count = 0;
  };
  std::map<std::string, ScalarAgg> scalar_aggs;
  for (const FrameTrace& f : trace.frames) {
    for (const auto& [key, value] : f.scalars) {
      ScalarAgg& agg = scalar_aggs[key];
      agg.sum += value;
      agg.max_v = std::max(agg.max_v, value);
      ++agg.count;
    }
  }
  std::printf("\nscalars (aggregated over frames):\n");
  for (const auto& [key, agg] : scalar_aggs) {
    std::printf("  %-28s mean %12.4f  max %12.4f  (%zu frames)\n", key.c_str(),
                agg.sum / static_cast<double>(agg.count), agg.max_v,
                agg.count);
  }

  const FrameTrace& f0 = trace.frames[0];
  if (!digest_only) {
    std::printf("\ntensor keys (frame 0):\n");
    for (const auto& [key, tensor] : f0.tensors) {
      std::printf("  %-20s %s %s\n", key.c_str(),
                  dtype_name(tensor.dtype()).c_str(),
                  tensor.shape().to_string().c_str());
    }

    // Multi-output capture: one digest per model output head (SSD traces
    // carry box + class heads under model.output / model.output:1 / ...).
    std::printf("\nmodel outputs (frame 0, digests):\n");
    for (int i = 0;; ++i) {
      const std::string key = trace_keys::model_output_key(i);
      auto it = f0.tensors.find(key);
      if (it == f0.tensors.end()) break;
      const Tensor& raw = it->second;
      const TensorSummary d = summarize(raw);
      std::printf("  %-20s %-6s %-14s mean %10.4f  |max| %10.4f\n",
                  key.c_str(), dtype_name(raw.dtype()).c_str(),
                  raw.shape().to_string().c_str(), d.mean, abs_max(d));
    }
  }

  // Streaming digest frames (trace format v2, fleet monitoring mode): the
  // per-layer summaries merged across every frame of the trace — what the
  // DriftAggregator would see from this device.
  if (!f0.layer_digests.empty()) {
    std::map<std::string, LayerDigest> merged;
    std::vector<std::string> order;
    merge_trace_digests(trace, merged, &order);
    const auto digest_frames = std::count_if(
        trace.frames.begin(), trace.frames.end(), [](const FrameTrace& f) {
          return !f.layer_digests.empty() || !f.layer_outputs.empty();
        });
    std::printf("\nper-layer digests (%zu layers, merged over %td frames):\n",
                order.size(), digest_frames);
    std::printf("  %-24s %-6s %10s %10s %10s %10s %10s %10s\n", "layer",
                "dtype", "count", "mean", "stddev", "min", "p50", "max");
    for (const std::string& name : order) {
      auto it = merged.find(name);
      if (it == merged.end()) continue;
      const LayerDigest& d = it->second;
      std::printf(
          "  %-24s %-6s %10llu %10.4f %10.4f %10.4f %10.4f %10.4f\n",
          name.c_str(), dtype_name(d.dtype).c_str(),
          static_cast<unsigned long long>(d.count), d.mean(), d.stddev(),
          d.real_min(), d.quantile(0.5), d.real_max());
    }
  } else if (digest_only) {
    std::printf("\nno digest frames in this trace (record with "
                "--digest-only to capture them)\n");
  }

  if (!digest_only && !f0.layer_names.empty()) {
    std::printf("\nper-layer (%zu layers, frame 0):\n", f0.layer_names.size());
    std::printf("  %-24s %-6s %-14s %10s %10s %10s\n", "layer", "dtype",
                "shape", "mean", "|max|", "lat ms");
    for (std::size_t i = 0; i < f0.layer_names.size(); ++i) {
      std::string dtype = "-", shape = "-", mean = "-", absmax = "-";
      if (i < f0.layer_outputs.size()) {
        const Tensor& raw = f0.layer_outputs[i];
        dtype = dtype_name(raw.dtype());
        shape = raw.shape().to_string();
        const TensorSummary d = summarize(raw);
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.4f", d.mean);
        mean = buf;
        std::snprintf(buf, sizeof(buf), "%.4f", abs_max(d));
        absmax = buf;
      }
      std::string lat = "-";
      if (i < f0.layer_latency_ms.size()) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.4f", f0.layer_latency_ms[i]);
        lat = buf;
      }
      std::printf("  %-24s %-6s %-14s %10s %10s %10s\n",
                  f0.layer_names[i].c_str(), dtype.c_str(), shape.c_str(),
                  mean.c_str(), absmax.c_str(), lat.c_str());
    }
  }
  return 0;
}

// Fleet aggregation: merge digest streams from many device traces against a
// reference trace (digest or raw per-layer capture) and print the fleet
// drift report — per-layer drift distributions, outlier-device ranking, and
// the modal first-suspect localization.
int cmd_fleet_report(const std::vector<std::string>& args) {
  double threshold = 0.1;
  std::vector<std::string> paths;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--threshold") {
      if (i + 1 >= args.size()) {
        std::fprintf(stderr, "fleet-report: --threshold needs a value\n");
        return 1;
      }
      threshold = std::atof(args[++i].c_str());
    } else {
      paths.push_back(args[i]);
    }
  }
  if (paths.size() < 2) {
    std::fprintf(stderr,
                 "fleet-report: need a reference trace and at least one "
                 "device trace\n");
    return 1;
  }
  DriftAggregator agg(threshold);
  agg.set_reference(load_trace_tolerant(paths[0]));
  for (std::size_t i = 1; i < paths.size(); ++i) {
    // Device id = the file's stem; tolerant load so a fleet report still
    // covers devices that died mid-recording.
    agg.add_trace(std::filesystem::path(paths[i]).stem().string(),
                  load_trace_tolerant(paths[i]));
  }
  std::printf("%s", render_fleet_report(agg.report()).c_str());
  return 0;
}

// Concurrent serving demo: load the graph into an Engine once, then drive
// requests from `threads` client threads through the FrontDoor — the
// overload-safe request path a deployment daemon uses. Every request is a
// typed outcome (ok / shed / rejected / error), never a crash; the summary
// prints the admission-queue and circuit-breaker counters alongside the
// prepare-once/serve-many numbers.
int cmd_serve(const std::string& model_name, int threads, int frames) {
  using Clock = std::chrono::steady_clock;
  if (threads <= 0 || frames <= 0) {
    std::fprintf(stderr,
                 "serve: <threads> and <frames-per-thread> must be positive, "
                 "got %d and %d\n",
                 threads, frames);
    return 1;
  }
  // A daemon must report a bad model name, not crash: resolve the
  // checkpoint up front and translate the failure into a usage message.
  Graph graph;
  try {
    graph = trained_image_checkpoint(model_name);
  } catch (const MlxError& e) {
    std::fprintf(stderr, "serve: cannot load model '%s': %s\n",
                 model_name.c_str(), e.what());
    return 1;
  }
  // Production path: the optimized resolver's prepare hooks pack weights at
  // load, so prepared bytes below show what the sessions share.
  BuiltinOpResolver resolver;
  Engine engine(&resolver);

  const auto load_start = Clock::now();
  const Model& model = engine.load(model_name, std::move(graph));
  const double load_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - load_start)
          .count();

  // One preprocessed input reused by every worker (serving benchmark shape).
  auto sensors = frames_for(1);
  ImagePipelineConfig correct{model.graph().input_spec, PreprocBug::kNone};
  Tensor input = run_image_pipeline(sensors[0].image_u8, correct);

  // The front door owns admission: `threads` scheduler workers so the demo
  // keeps the same session-level parallelism the old raw-Engine loop had.
  // Trained checkpoints are batch-1 graphs, so the single registered
  // variant serves every request individually; the queue, shedding, and
  // breaker machinery in front of it is the point of the demo.
  FrontDoorOptions door_opts;
  door_opts.workers = threads;
  FrontDoor door(&engine, door_opts);
  door.register_model(model_name, {});

  std::atomic<std::int64_t> ok_requests{0};
  std::atomic<std::int64_t> dropped_requests{0};
  const auto serve_start = Clock::now();
  std::vector<std::thread> clients;
  clients.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    clients.emplace_back([&] {
      // Closed-loop client: submit -> wait -> release per frame. Every
      // outcome is a typed code (queue-full, shed, breaker-open, contained
      // error) counted here, never an unwinding daemon.
      for (int f = 0; f < frames; ++f) {
        Ticket ticket = door.submit(model_name, input);
        const RequestResult& result = ticket.wait();
        if (result.code == RequestCode::kOk) {
          ok_requests.fetch_add(1, std::memory_order_relaxed);
        } else {
          dropped_requests.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& w : clients) w.join();
  const double serve_s =
      std::chrono::duration<double>(Clock::now() - serve_start).count();

  const EnginePoolStats stats = engine.pool_stats(model_name);
  const FrontDoorStats door_stats = door.stats(model_name);
  std::printf("model:            %s (prepared once in %.1f ms)\n",
              model_name.c_str(), load_ms);
  std::printf("prepared bytes:   %.1f KB (shared across all sessions)\n",
              static_cast<double>(stats.prepared_bytes) / 1e3);
  std::printf("sessions created: %zu for %llu leases (%d client threads)\n",
              stats.sessions_created,
              static_cast<unsigned long long>(stats.leases_issued), threads);
  std::printf("throughput:       %.1f requests/s (%lld ok in %.2f s)\n",
              static_cast<double>(ok_requests.load()) / serve_s,
              static_cast<long long>(ok_requests.load()), serve_s);
  std::printf("front door:       %llu submitted, %llu admitted, %llu batches "
              "(max queue depth %zu)\n",
              static_cast<unsigned long long>(door_stats.submitted),
              static_cast<unsigned long long>(door_stats.admitted),
              static_cast<unsigned long long>(door_stats.batches),
              door_stats.max_queue_depth);
  std::printf("breaker:          %s (%llu trips, service estimate %.0f us)\n",
              breaker_state_name(door_stats.breaker_state),
              static_cast<unsigned long long>(door_stats.breaker_trips),
              door_stats.service_estimate_us);
  if (dropped_requests.load() != 0) {
    std::printf("dropped:          %lld (%llu errors, %llu shed, %llu "
                "queue-full, %llu breaker-open; %llu invoke errors, %zu "
                "sessions destroyed)\n",
                static_cast<long long>(dropped_requests.load()),
                static_cast<unsigned long long>(door_stats.failed),
                static_cast<unsigned long long>(door_stats.shed),
                static_cast<unsigned long long>(
                    door_stats.rejected_queue_full),
                static_cast<unsigned long long>(
                    door_stats.rejected_breaker_open),
                static_cast<unsigned long long>(stats.invoke_errors),
                stats.sessions_destroyed);
  }
  return 0;
}

int usage() {
  std::printf(
      "usage:\n"
      "  mlexray_cli record <model> <bug> <frames> <out.mlxtrace> "
      "[--digest-only]\n"
      "  mlexray_cli reference <model> <frames> <out.mlxtrace>\n"
      "  mlexray_cli validate <edge.mlxtrace> <ref.mlxtrace> <model>\n"
      "  mlexray_cli inspect <trace.mlxtrace>\n"
      "  mlexray_cli trace-info <trace.mlxtrace> [--digest-only]\n"
      "  mlexray_cli fleet-report <ref.mlxtrace> <device.mlxtrace...> "
      "[--threshold <drift>]\n"
      "  mlexray_cli serve <model> <threads> <frames-per-thread>\n");
  return 1;
}

int dispatch(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  const bool digest_only =
      argc >= 3 && std::string(argv[argc - 1]) == "--digest-only";
  if (cmd == "record" && (argc == 6 || (argc == 7 && digest_only))) {
    return cmd_record(argv[2], argv[3], std::atoi(argv[4]), argv[5], false,
                      digest_only);
  }
  if (cmd == "reference" && argc == 5) {
    return cmd_record(argv[2], "none", std::atoi(argv[3]), argv[4], true);
  }
  if (cmd == "validate" && argc == 5) {
    return cmd_validate(argv[2], argv[3], argv[4]);
  }
  if (cmd == "inspect" && argc == 3) {
    return cmd_inspect(argv[2]);
  }
  if (cmd == "trace-info" && (argc == 3 || (argc == 4 && digest_only))) {
    return cmd_trace_info(argv[2], digest_only);
  }
  if (cmd == "fleet-report" && argc >= 4) {
    return cmd_fleet_report(std::vector<std::string>(argv + 2, argv + argc));
  }
  if (cmd == "serve" && argc == 5) {
    return cmd_serve(argv[2], std::atoi(argv[3]), std::atoi(argv[4]));
  }
  return usage();
}

}  // namespace
}  // namespace mlexray

int main(int argc, char** argv) {
  try {
    return mlexray::dispatch(argc, argv);
  } catch (const mlexray::MlxError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
