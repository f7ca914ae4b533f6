// bench_workloads: the workload benchmark. One process runs one named
// workload for a fixed window and prints one JSON object on stdout:
//
//   bench_workloads --workload <name> --seed <n> --seconds <s>
//                   [--trace-out <trace.json>] [--rps <requests/s>]
//
// workload_bench/run.py builds this binary, runs it and turns the object
// into the benchmark's result line. workload_bench/README.md lists the
// workloads, why each exists, the metrics and which end-to-end metric each
// layer metric should move.
//
// Every workload follows the same rules:
//  - Inputs (sensor frames, tensors, arrival schedules, device traces) are
//    generated from --seed before anything is timed. Model weights and the
//    calibration set come from fixed seeds, like a shipped model.
//  - Kernels run single-threaded (num_threads = 1). The only concurrency is
//    the FrontDoor's two workers, so a process runs at most 3 threads.
//  - setup_s is the median of 2 x kSetupRepeats complete prepares, half
//    before the window and half after it: one prepare takes milliseconds,
//    and a shared host slows whole stretches of a run.
//  - The window starts after a warm-up that grows arenas and capture rings.
//  - End-to-end timings are steady_clock around the outermost public calls
//    of one frame, item, request or round. Throughput is the median over
//    kSliceSeconds slices of the window, so a stall on a shared host moves
//    one slice instead of the reported number.
//  - latency_p50_us is the bounded latency metric. The tails go to `info`
//    with the sample count: p90 always, p99 where at least 1000 samples
//    leave ten beyond it. On a shared host a run's tail moves with how much
//    of the window the host slowed, by more than any useful bound.
//  - Outputs are checked after the window; every mismatch counts as failed.
//
// With --trace-out the same workload runs with spans recorded around every
// public call (and every plan step, through a bench-side InvokeObserver);
// per-layer metrics are derived from those spans and the sampled spans are
// written as Chrome trace-event JSON.
#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/convert/converter.h"
#include "src/core/monitor.h"
#include "src/core/pipelines.h"
#include "src/core/validation.h"
#include "src/drift/aggregator.h"
#include "src/interpreter/front_door.h"
#include "src/models/zoo.h"
#include "src/quant/quantizer.h"
#include "src/tensor/alloc_stats.h"

namespace mlexray {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kModelSeed = 17;
constexpr std::uint64_t kCalibrationSeed = 4242;
constexpr int kCalibrationSamples = 8;
constexpr int kSetupRepeats = 5;  // before the window, and again after it
constexpr double kSliceSeconds = 0.5;
// Output gates against the reference kernels: max-abs difference of the
// (dequantized) output probabilities. The optimized and reference int8
// kernels requantize differently: over 230 seeds x 16 held-out images,
// resnet50v2_mini's outputs differed by up to 14 output quanta (0.055) and
// mobilenet_v3_mini's by 1, while a broken kernel moves them by far more.
// The worst difference a run sees is reported as info.ref_max_abs_diff_<dtype>.
constexpr double kF32Tolerance = 1e-5;
constexpr double kInt8Tolerance = 0.1;
constexpr int kHeldOutInputs = 16;

// Open-loop rates, frozen so the parent and the change see identical offered
// load. Capacity is serve_overload's goodput at a saturating rate (measured
// once with --rps on a 4-core x86-64 host, kernels single-threaded): ~6,800
// requests/s. serve_steady offers ~45% of it, serve_overload ~2x.
constexpr double kSteadyRps = 3000.0;
constexpr double kOverloadRps = 13600.0;
constexpr double kLatencyLimitUs = 5000.0;
// The generator may fall behind its schedule by this share of the limit
// (p99) before a serve run is marked invalid.
constexpr double kMaxLatenessShare = 0.10;
constexpr auto kSpinBeforeDue = std::chrono::microseconds(200);

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// Independent sub-seeds for the different inputs of one run.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Nearest-rank quantile of an unsorted sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const auto k = static_cast<std::size_t>(std::clamp(
      rank - 1.0, 0.0, static_cast<double>(v.size() - 1)));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

double max_abs_diff(const Tensor& a, const Tensor& b) {
  const Tensor fa = a.dtype() == DType::kF32 ? a : a.to_f32();
  const Tensor fb = b.dtype() == DType::kF32 ? b : b.to_f32();
  MLX_CHECK(fa.shape() == fb.shape());
  const float* pa = fa.data<float>();
  const float* pb = fb.data<float>();
  double worst = 0.0;
  for (std::int64_t i = 0; i < fa.num_elements(); ++i) {
    worst = std::max(worst, static_cast<double>(std::fabs(pa[i] - pb[i])));
  }
  return worst;
}

// --- inputs ------------------------------------------------------------------

std::vector<SensorExample> sensor_examples(int count, std::uint64_t seed) {
  auto examples = SynthImageNet::make(
      (count + SynthImageNet::kClasses - 1) / SynthImageNet::kClasses, seed);
  examples.resize(static_cast<std::size_t>(count));
  return examples;
}

// u8 [96,96,3] sensor frames.
std::vector<Tensor> sensor_frames(int count, std::uint64_t seed) {
  std::vector<Tensor> frames;
  for (SensorExample& e : sensor_examples(count, seed)) {
    frames.push_back(std::move(e.image_u8));
  }
  return frames;
}

// Model-ready [1,h,w,3] tensors, preprocessed the way the model expects.
std::vector<Tensor> model_inputs(const InputSpec& spec, int count,
                                 std::uint64_t seed) {
  const ImagePipelineConfig correct{spec, PreprocBug::kNone};
  std::vector<Tensor> inputs;
  for (const Tensor& frame : sensor_frames(count, seed)) {
    inputs.push_back(run_image_pipeline(frame, correct));
  }
  return inputs;
}

// Stacks `batch` [1,h,w,c] tensors starting at `first` into one [batch,...].
Tensor stack_batch(const std::vector<Tensor>& rows, std::size_t first,
                   int batch) {
  const Shape& row = rows[first].shape();
  Tensor out = Tensor::f32({batch, row.dim(1), row.dim(2), row.dim(3)});
  auto* dst = static_cast<std::uint8_t*>(out.raw_data());
  for (int b = 0; b < batch; ++b) {
    const Tensor& src =
        rows[(first + static_cast<std::size_t>(b)) % rows.size()];
    std::memcpy(dst + static_cast<std::size_t>(b) * src.byte_size(),
                src.raw_data(), src.byte_size());
  }
  return out;
}

// --- result ------------------------------------------------------------------

struct Result {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  // First few check failures; plain text without quotes or backslashes.
  std::vector<std::string> problems;
  std::map<std::string, double> metrics;  // end to end
  std::map<std::string, double> layers;   // per layer (traced runs only)
  std::map<std::string, double> info;     // context, never compared

  void fail(const std::string& what) {
    ++failed;
    if (problems.size() < 8) problems.push_back(what);
  }
};

void print_map(const char* key, const std::map<std::string, double>& m) {
  std::printf(", \"%s\": {", key);
  bool first = true;
  for (const auto& [name, value] : m) {
    std::printf("%s\"%s\": %.17g", first ? "" : ", ", name.c_str(),
                std::isfinite(value) ? value : 0.0);
    first = false;
  }
  std::printf("}");
}

// Per-prepare stage timings; each stage reports its median over the repeats.
class Stages {
 public:
  // Adds the milliseconds since `t` to this repeat's `stage`.
  void add_since(const std::string& stage, Clock::time_point t) {
    current_[stage] += us_between(t, Clock::now()) / 1e3;
  }
  void set(const std::string& stage, double value) { current_[stage] = value; }
  void end_repeat() {
    for (const auto& [stage, v] : current_) samples_[stage].push_back(v);
    current_.clear();
  }
  void report(std::map<std::string, double>& out) const {
    for (const auto& [stage, v] : samples_) out[stage] = quantile(v, 0.5);
  }

 private:
  std::map<std::string, double> current_;
  std::map<std::string, std::vector<double>> samples_;
};

// Times a workload's complete prepare kSetupRepeats times before the window
// and as many times after it, and reports setup_s as the median of all.
template <typename State>
class Setup {
 public:
  using Prepare = std::function<std::unique_ptr<State>(Stages&)>;
  explicit Setup(Prepare prepare) : prepare_(std::move(prepare)) {}

  // Returns the last state; earlier ones are destroyed first, so one copy
  // is resident while serving.
  std::unique_ptr<State> before() { return time(); }

  // Discards its states. Reports setup_s, and the per-stage medians when
  // traced.
  void after(Result& r, bool traced) {
    time();
    r.metrics["setup_s"] = quantile(seconds_, 0.5);
    if (traced) stages_.report(r.layers);
  }

 private:
  std::unique_ptr<State> time() {
    std::unique_ptr<State> state;
    for (int i = 0; i < kSetupRepeats; ++i) {
      state.reset();
      const auto t0 = Clock::now();
      state = prepare_(stages_);
      seconds_.push_back(us_between(t0, Clock::now()) / 1e6);
      stages_.end_repeat();
    }
    return state;
  }

  Prepare prepare_;
  Stages stages_;
  std::vector<double> seconds_;
};

// Per-slice tallies over the timed window; positions are microseconds from
// the window start (completion time for closed loops, due time for open).
class Slices {
 public:
  explicit Slices(double seconds)
      : count_(std::max(
            1, static_cast<int>(std::lround(seconds / kSliceSeconds)))),
        items_(static_cast<std::size_t>(count_), 0.0),
        busy_us_(static_cast<std::size_t>(count_), 0.0) {}

  // `items` finished (or, open loop, were due) at `at_us`; a closed-loop
  // item also reports the `busy_us` it took.
  void add(double at_us, double items, double busy_us = 0.0) {
    items_[slice(at_us)] += items;
    busy_us_[slice(at_us)] += busy_us;
  }

  // Median over slices of items per second of busy time (closed loops).
  double busy_rate() const {
    std::vector<double> rates;
    for (std::size_t s = 0; s < items_.size(); ++s) {
      if (busy_us_[s] > 0) rates.push_back(items_[s] * 1e6 / busy_us_[s]);
    }
    return quantile(rates, 0.5);
  }
  // Median over slices of items per second of wall time (open loops).
  double rate() const {
    std::vector<double> rates;
    for (double n : items_) rates.push_back(n / kSliceSeconds);
    return quantile(rates, 0.5);
  }

 private:
  std::size_t slice(double us) const {
    const int s = static_cast<int>(us / (kSliceSeconds * 1e6));
    return static_cast<std::size_t>(std::clamp(s, 0, count_ - 1));
  }
  int count_;
  std::vector<double> items_;
  std::vector<double> busy_us_;
};

// --- tracing -----------------------------------------------------------------

// Spans recorded from the benchmark's own files around calls into each
// layer. Self time (a span minus the part its children cover) is aggregated
// online for every span; the Chrome trace keeps the first item that starts
// in each kTraceIntervalUs, so the file grows with the window, not the rate.
// When disabled every call is a no-op and mark() does not read the clock.
class Tracer {
 public:
  static constexpr double kTraceIntervalUs = 100e3;
  static constexpr std::size_t kMaxEvents = 400000;

  // Event timestamps are written relative to `origin`.
  explicit Tracer(bool enabled, Clock::time_point origin = Clock::now())
      : enabled_(enabled), origin_(origin) {
    if (enabled_) events_.reserve(kMaxEvents);
  }

  bool enabled() const { return enabled_; }

  int id(const std::string& name) {
    for (std::size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return static_cast<int>(i);
    }
    names_.push_back(name);
    aggs_.emplace_back();
    return static_cast<int>(names_.size() - 1);
  }

  Clock::time_point mark() const {
    return enabled_ ? Clock::now() : Clock::time_point{};
  }

  // Starts a new frame/item/round: its spans share `item` as their id.
  void begin_item(std::int64_t item) {
    item_ = item;
    keep_ = false;
    if (!enabled_) return;
    const double now_us = us_between(origin_, Clock::now());
    if (now_us >= next_keep_us_) {
      keep_ = true;
      next_keep_us_ = now_us + kTraceIntervalUs;
    }
  }

  void open(int name, Clock::time_point t) {
    if (!enabled_) return;
    MLX_CHECK_LT(depth_, kMaxDepth);
    stack_[depth_++] = {name, t, 0.0};
  }
  void close(Clock::time_point t) {
    if (!enabled_) return;
    const Open o = stack_[--depth_];
    finish(o.name, o.start, t, o.child_us);
  }
  void leaf(int name, Clock::time_point t0, Clock::time_point t1) {
    if (!enabled_) return;
    finish(name, t0, t1, 0.0);
  }

  // A span reconstructed after the fact (FrontDoor requests; times relative
  // to the origin), written as a nestable async event so overlapping
  // requests get their own tracks.
  void async_span(int name, std::int64_t item, double start_us,
                  double end_us) {
    if (!enabled_ || events_.size() >= kMaxEvents) return;
    events_.push_back({name, -1, item, start_us, end_us, true});
  }

  // Drops everything recorded so far (the warm-up).
  void clear() {
    for (Agg& a : aggs_) a = Agg{};
    events_.clear();
    next_keep_us_ = 0.0;
  }

  double self_us(const std::string& name) const { return agg(name).self_us; }
  double total_us(const std::string& name) const { return agg(name).total_us; }
  std::int64_t count(const std::string& name) const { return agg(name).count; }

  // Share of the root spans' wall time that named child spans account for.
  double attributed_share(const std::string& root) const {
    const Agg& r = agg(root);
    return r.total_us > 0 ? 1.0 - r.self_us / r.total_us : 0.0;
  }

  void write_chrome(const std::string& path) const {
    std::ofstream out(path);
    MLX_CHECK(out.good()) << "cannot write " << path;
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    for (std::size_t i = 0; i < events_.size(); ++i) {
      const Event& e = events_[i];
      const std::string& name = names_[static_cast<std::size_t>(e.name)];
      char line[512];
      if (e.async) {
        std::snprintf(line, sizeof(line),
                      "{\"name\": \"%s\", \"cat\": \"request\", \"ph\": \"b\", "
                      "\"id\": %lld, \"pid\": 1, \"tid\": 1, \"ts\": %.3f},\n"
                      "{\"name\": \"%s\", \"cat\": \"request\", \"ph\": \"e\", "
                      "\"id\": %lld, \"pid\": 1, \"tid\": 1, \"ts\": %.3f}",
                      name.c_str(), static_cast<long long>(e.item),
                      e.start_us, name.c_str(),
                      static_cast<long long>(e.item), e.end_us);
      } else {
        const char* parent =
            e.parent < 0 ? ""
                         : names_[static_cast<std::size_t>(e.parent)].c_str();
        std::snprintf(line, sizeof(line),
                      "{\"name\": \"%s\", \"cat\": \"layer\", \"ph\": \"X\", "
                      "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                      "\"args\": {\"item\": %lld, \"parent\": \"%s\"}}",
                      name.c_str(), e.start_us, e.end_us - e.start_us,
                      static_cast<long long>(e.item), parent);
      }
      out << line << (i + 1 < events_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    MLX_CHECK(out.good()) << "failed writing " << path;
  }

 private:
  static constexpr int kMaxDepth = 8;
  struct Open {
    int name = 0;
    Clock::time_point start;
    double child_us = 0.0;
  };
  struct Agg {
    double self_us = 0.0;
    double total_us = 0.0;
    std::int64_t count = 0;
  };
  struct Event {
    int name = 0;
    int parent = -1;
    std::int64_t item = 0;
    double start_us = 0.0;  // relative to origin_
    double end_us = 0.0;
    bool async = false;
  };

  const Agg& agg(const std::string& name) const {
    static const Agg kNone;
    for (std::size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return aggs_[i];
    }
    return kNone;
  }

  void finish(int name, Clock::time_point t0, Clock::time_point t1,
              double child_us) {
    const double dur = us_between(t0, t1);
    Agg& a = aggs_[static_cast<std::size_t>(name)];
    a.self_us += dur - child_us;
    a.total_us += dur;
    ++a.count;
    if (depth_ > 0) stack_[depth_ - 1].child_us += dur;
    if (keep_ && events_.size() < kMaxEvents) {
      events_.push_back({name, depth_ > 0 ? stack_[depth_ - 1].name : -1,
                         item_, us_between(origin_, t0),
                         us_between(origin_, t1), false});
    }
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<std::string> names_;
  std::vector<Agg> aggs_;
  Open stack_[kMaxDepth];
  int depth_ = 0;
  std::int64_t item_ = 0;
  bool keep_ = false;
  double next_keep_us_ = 0.0;
  std::vector<Event> events_;
};

// Kernel groups: op_latency_group() lowercased ("d-conv", "conv", ...).
std::string kernel_group(OpType type) {
  std::string g = op_latency_group(type);
  std::transform(g.begin(), g.end(), g.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return g;
}

// The groups the workload models contain; each gets .us and .share metrics.
const char* const kKernelGroups[] = {"conv", "d-conv", "fc",       "add",
                                     "mul",  "mean",   "pool",     "pad",
                                     "hswish", "logistic", "softmax",
                                     "quantize", "other"};
const char* const kFlopGroups[] = {"conv", "d-conv", "fc"};

// Plan-time multiply-add FLOPs of one invoke, per kernel group, from node
// shapes (conv OHWI, depthwise 1HWC, FC [out, in] weights).
std::map<std::string, double> plan_flops(const Graph& graph) {
  std::map<std::string, double> flops;
  for (const Node& n : graph.nodes) {
    const double out = static_cast<double>(n.output_shape.num_elements());
    if (n.type == OpType::kConv2D) {
      const Shape& w = n.weights[0].shape();
      flops["conv"] +=
          2.0 * out * static_cast<double>(w.dim(1) * w.dim(2) * w.dim(3));
    } else if (n.type == OpType::kDepthwiseConv2D) {
      const Shape& w = n.weights[0].shape();
      flops["d-conv"] += 2.0 * out * static_cast<double>(w.dim(1) * w.dim(2));
    } else if (n.type == OpType::kFullyConnected) {
      flops["fc"] +=
          2.0 * out * static_cast<double>(n.weights[0].shape().dim(1));
    }
  }
  return flops;
}

// Bench-side InvokeObserver: timestamps every hook itself, so each plan
// step becomes a span named after its kernel group, and forwards every hook
// to `forward` (the monitor's TraceBuffer, or nothing for a bare invoke),
// timing that forwarded call separately as monitor.step_hook.
class StepTracer : public InvokeObserver {
 public:
  explicit StepTracer(Tracer* tracer) : tracer_(tracer) {
    hook_ = tracer_->id("monitor.step_hook");
    for (int t = 0; t <= static_cast<int>(OpType::kTanh); ++t) {
      group_[t] =
          tracer_->id("kernels." + kernel_group(static_cast<OpType>(t)));
    }
  }

  void set_forward(InvokeObserver* forward) { forward_ = forward; }

  void on_invoke_begin(std::size_t step_count) override {
    if (forward_ != nullptr) {
      const auto h0 = Clock::now();
      forward_->on_invoke_begin(step_count);
      last_ = Clock::now();
      tracer_->leaf(hook_, h0, last_);
    } else {
      last_ = Clock::now();
    }
  }

  void on_step(const Node& node, const Tensor& output,
               double latency_ms) override {
    const auto t = Clock::now();
    tracer_->leaf(group_[static_cast<int>(node.type)], last_, t);
    last_ = t;
    if (forward_ != nullptr) {
      forward_->on_step(node, output, latency_ms);
      last_ = Clock::now();
      tracer_->leaf(hook_, t, last_);
    }
  }

  void on_invoke_end(const SessionStats& stats) override {
    if (forward_ == nullptr) return;
    const auto h0 = Clock::now();
    forward_->on_invoke_end(stats);
    tracer_->leaf(hook_, h0, Clock::now());
  }

  void on_invoke_error(const InvokeStatus& status) override {
    if (forward_ != nullptr) forward_->on_invoke_error(status);
  }

 private:
  Tracer* tracer_;
  InvokeObserver* forward_ = nullptr;
  int hook_ = 0;
  int group_[static_cast<int>(OpType::kTanh) + 1] = {};
  Clock::time_point last_;
};

// Kernel-group and session metrics shared by edge_stream and batch_offline.
// `per` is the number of items the spans cover (frames or batch pairs);
// `flops_per_item` the plan-time FLOPs one item executes.
void report_kernel_layers(const Tracer& tracer, double per,
                          const std::map<std::string, double>& flops_per_item,
                          Result& r) {
  const double invoke_us = tracer.total_us("session.invoke");
  for (const char* g : kKernelGroups) {
    const double us = tracer.self_us(std::string("kernels.") + g);
    r.layers[std::string("kernels.") + g + ".us"] = us / per;
    r.layers[std::string("kernels.") + g + ".share"] =
        invoke_us > 0 ? us / invoke_us : 0.0;
  }
  for (const char* g : kFlopGroups) {
    const double us = tracer.self_us(std::string("kernels.") + g);
    const auto it = flops_per_item.find(g);
    const double flops = it == flops_per_item.end() ? 0.0 : it->second;
    r.layers[std::string("kernels.") + g + ".gflops"] =
        us > 0 ? flops * per / (us * 1e3) : 0.0;
  }
  r.layers["session.invoke_us"] = invoke_us / per;
  r.layers["session.self_us"] = tracer.self_us("session.invoke") / per;
  r.layers["session.set_input_us"] = tracer.self_us("session.set_input") / per;
}

void report_session_memory(const std::vector<const Session*>& sessions,
                           Result& r) {
  double arena = 0, activations = 0, prepared = 0;
  for (const Session* s : sessions) {
    arena += static_cast<double>(s->last_stats().arena_high_water_bytes);
    activations += static_cast<double>(s->activation_bytes());
    prepared += static_cast<double>(s->model().prepared_bytes());
  }
  r.layers["session.arena_hw_kb"] = arena / 1024.0;
  r.layers["session.activation_kb"] = activations / 1024.0;
  r.layers["model.prepared_kb"] = prepared / 1024.0;
}

void report_latency(const std::vector<double>& us, Result& r) {
  r.metrics["latency_p50_us"] = quantile(us, 0.5);
  r.info["latency_samples"] = static_cast<double>(us.size());
  r.info["latency_p90_us"] = quantile(us, 0.90);
  if (us.size() >= 1000) r.info["latency_p99_us"] = quantile(us, 0.99);
}

double peak_tensor_mb() {
  return static_cast<double>(AllocStats::instance().peak_bytes()) /
         (1024.0 * 1024.0);
}

// Converts a zoo training graph, timing the builder and the converter.
Graph build_converted(const std::function<ZooModel()>& build, Stages& st) {
  auto t = Clock::now();
  ZooModel zoo = build();
  st.add_since("graph.build_ms", t);
  t = Clock::now();
  Graph g = convert_for_inference(zoo.model);
  st.add_since("convert.ms", t);
  return g;
}

// Calibrates on the batch-1 float graph and quantizes each of `targets` (the
// same network at any batch: node ids do not depend on the batch).
std::vector<Graph> quantize_all(const Graph& calibration_graph,
                                const std::vector<Tensor>& calibration,
                                const std::vector<const Graph*>& targets,
                                Stages& st) {
  auto t = Clock::now();
  Calibrator calib(&calibration_graph);
  for (const Tensor& x : calibration) calib.observe({x});
  st.add_since("quant.calibrate_ms", t);
  std::vector<Graph> out;
  for (const Graph* g : targets) {
    t = Clock::now();
    out.push_back(quantize_model(*g, calib));
    st.add_since("quant.quantize_ms", t);
  }
  return out;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string trace_out;  // empty: untraced run
  double rps = 0.0;       // 0: the workload's frozen rate
};

void finish_trace(const Tracer& tracer, const Options& o, Result& r) {
  if (!tracer.enabled()) return;
  r.layers["tracing.items_per_s"] = r.metrics["items_per_s"];
  tracer.write_chrome(o.trace_out);
}

// --- edge_stream -------------------------------------------------------------

// The paper's instrumented edge app: mobilenet_v3_mini int8 at batch 1 with
// the monitor capturing per-layer latency and digests.
struct EdgeApp {
  BuiltinOpResolver resolver;
  std::unique_ptr<Model> model;
  std::unique_ptr<Session> session;
  std::unique_ptr<EdgeMLMonitor> monitor;  // destroyed first: it detaches
};

std::unique_ptr<EdgeApp> prepare_edge_app(
    const std::vector<Tensor>& calibration, Stages& st) {
  auto app = std::make_unique<EdgeApp>();
  Graph f32 = build_converted(
      [] { return build_mobilenet_v3_mini(kModelSeed, 1); }, st);
  std::vector<Graph> int8 = quantize_all(f32, calibration, {&f32}, st);
  app->model = std::make_unique<Model>(std::move(int8[0]), &app->resolver);
  st.set("model.prepare_ms", app->model->prepare_ms());
  app->session = std::make_unique<Session>(app->model.get());
  MonitorOptions opts;
  opts.per_layer_latency = true;
  opts.per_layer_digests = true;
  opts.retain_frames = false;
  app->monitor = std::make_unique<EdgeMLMonitor>(opts);
  app->monitor->observe(*app->session);
  return app;
}

Result run_edge_stream(const Options& o) {
  constexpr int kBlock = 256;  // every 4th block of frames runs bare
  Result r;
  const InputSpec spec =
      build_mobilenet_v3_mini(kModelSeed, 1).model.input_spec;
  const auto calibration =
      model_inputs(spec, kCalibrationSamples, kCalibrationSeed);
  const auto frames = sensor_frames(48, derive_seed(o.seed, 1));
  const auto held_out = sensor_frames(kHeldOutInputs, derive_seed(o.seed, 2));

  Setup<EdgeApp> setup(
      [&](Stages& st) { return prepare_edge_app(calibration, st); });
  auto app = setup.before();
  Session& session = *app->session;
  EdgeMLMonitor& monitor = *app->monitor;
  const ImagePipelineConfig config{session.graph().input_spec,
                                   PreprocBug::kNone};

  Tracer tracer(!o.trace_out.empty());
  StepTracer steps(&tracer);
  const int k_frame = tracer.id("frame");
  const int k_pre = tracer.id("preprocess");
  const int k_set = tracer.id("session.set_input");
  const int k_start = tracer.id("monitor.start");
  const int k_invoke = tracer.id("session.invoke");
  const int k_stop = tracer.id("monitor.stop");
  // Traced runs route every hook through StepTracer, bare blocks included,
  // so the monitored-vs-bare difference stays the monitor's own cost.
  auto set_monitored = [&](bool monitored) {
    if (tracer.enabled()) {
      steps.set_forward(monitored ? &monitor.buffer() : nullptr);
      session.set_observer(&steps);
    } else {
      session.set_observer(monitored ? &monitor.buffer() : nullptr);
    }
  };

  std::int64_t frame_id = 0;
  auto run_frame = [&](const Tensor& sensor, bool monitored) {
    tracer.begin_item(frame_id++);
    const auto t0 = Clock::now();
    tracer.open(k_frame, t0);
    Tensor x = run_image_pipeline(sensor, config);
    const auto t1 = tracer.mark();
    tracer.leaf(k_pre, t0, t1);
    session.set_input(0, x);
    auto t2 = tracer.mark();
    tracer.leaf(k_set, t1, t2);
    if (monitored) {
      monitor.on_inf_start();
      const auto t3 = tracer.mark();
      tracer.leaf(k_start, t2, t3);
      t2 = t3;
    }
    tracer.open(k_invoke, t2);
    session.invoke();
    const auto t4 = tracer.mark();
    tracer.close(t4);
    if (monitored) {
      monitor.on_inf_stop(session);
      monitor.next_frame();
      tracer.leaf(k_stop, t4, tracer.mark());
    }
    const auto end = Clock::now();
    tracer.close(end);
    return end;
  };

  // Warm-up: arenas, both capture buffers, the preprocessing allocator.
  for (int i = 0; i < 64; ++i) {
    const bool monitored = i % 4 != 3;
    set_monitored(monitored);
    run_frame(frames[static_cast<std::size_t>(i) % frames.size()], monitored);
  }
  tracer.clear();
  AllocStats::instance().reset_peak();

  std::vector<double> monitored_us, bare_us;
  monitored_us.reserve(1 << 20);
  bare_us.reserve(1 << 18);
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(o.seconds));
  Slices slices(o.seconds);
  std::size_t next = 0;
  for (int block = 0;; ++block) {
    const bool monitored = block % 4 != 3;
    set_monitored(monitored);
    bool done = false;
    for (int i = 0; i < kBlock && !done; ++i) {
      const auto t0 = Clock::now();
      const auto t1 = run_frame(frames[next++ % frames.size()], monitored);
      const double us = us_between(t0, t1);
      if (monitored) {
        monitored_us.push_back(us);
        slices.add(us_between(start, t1), 1.0, us);
      } else {
        bare_us.push_back(us);
      }
      done = t1 >= deadline;
    }
    if (done) break;
  }
  r.metrics["peak_tensor_mb"] = peak_tensor_mb();
  r.attempted = static_cast<std::int64_t>(monitored_us.size() + bare_us.size());

  r.metrics["items_per_s"] = slices.busy_rate();
  report_latency(monitored_us, r);
  const double bare_p50 = quantile(bare_us, 0.5);
  const double overhead_pct =
      bare_p50 > 0 ? 100.0 * (r.metrics["latency_p50_us"] - bare_p50) / bare_p50
                   : 0.0;
  r.info["monitor_overhead_pct"] = overhead_pct;

  if (tracer.enabled()) {
    const double invokes = static_cast<double>(tracer.count("session.invoke"));
    const double stops = static_cast<double>(
        std::max<std::int64_t>(1, tracer.count("monitor.stop")));
    report_kernel_layers(tracer, invokes, plan_flops(session.graph()), r);
    report_session_memory({&session}, r);
    r.layers["preprocess.us"] = tracer.self_us("preprocess") / invokes;
    r.layers["monitor.stop_us"] = tracer.self_us("monitor.stop") / stops;
    r.layers["monitor.step_hook_us"] =
        tracer.self_us("monitor.step_hook") / stops;
    r.layers["monitor.overhead_pct"] = overhead_pct;
    r.layers["monitor.capture_kb"] =
        static_cast<double>(monitor.buffer().frame_capture_bytes()) / 1024.0;
    r.layers["tracing.attributed_share"] = tracer.attributed_share("frame");
    finish_trace(tracer, o, r);
  }

  // Held-out frames against the reference kernels on the same int8 graph.
  session.set_observer(nullptr);
  RefOpResolver ref_resolver;
  Model ref_model(&session.graph(), &ref_resolver);
  Session ref(&ref_model);
  for (const Tensor& frame : held_out) {
    const Tensor x = run_image_pipeline(frame, config);
    session.set_input(0, x);
    session.invoke();
    ref.set_input(0, x);
    ref.invoke();
    ++r.attempted;
    const double diff = max_abs_diff(session.output(0), ref.output(0));
    double& worst = r.info["ref_max_abs_diff_int8"];
    worst = std::max(worst, diff);
    if (diff > kInt8Tolerance) {
      r.fail("edge_stream: int8 output differs from the reference by " +
             std::to_string(diff));
    }
  }
  setup.after(r, tracer.enabled());
  return r;
}

// --- batch_offline -----------------------------------------------------------

// resnet50v2_mini at batch 8, f32 and int8, through Session: no monitor.
struct BatchApp {
  BuiltinOpResolver resolver;
  std::unique_ptr<Model> f32_model;
  std::unique_ptr<Model> int8_model;
  std::unique_ptr<Session> f32;
  std::unique_ptr<Session> int8;
};

constexpr int kOfflineBatch = 8;

std::unique_ptr<BatchApp> prepare_batch_app(
    const std::vector<Tensor>& calibration, Stages& st) {
  auto app = std::make_unique<BatchApp>();
  Graph b1 = build_converted(
      [] { return build_resnet50v2_mini(kModelSeed, 1); }, st);
  Graph b8 = build_converted(
      [] { return build_resnet50v2_mini(kModelSeed, kOfflineBatch); }, st);
  std::vector<Graph> int8 = quantize_all(b1, calibration, {&b8}, st);
  app->f32_model = std::make_unique<Model>(std::move(b8), &app->resolver);
  app->int8_model = std::make_unique<Model>(std::move(int8[0]), &app->resolver);
  st.set("model.prepare_ms",
         app->f32_model->prepare_ms() + app->int8_model->prepare_ms());
  app->f32 = std::make_unique<Session>(app->f32_model.get());
  app->int8 = std::make_unique<Session>(app->int8_model.get());
  return app;
}

Result run_batch_offline(const Options& o) {
  Result r;
  const InputSpec spec = build_resnet50v2_mini(kModelSeed, 1).model.input_spec;
  const auto calibration =
      model_inputs(spec, kCalibrationSamples, kCalibrationSeed);
  const auto rows =
      model_inputs(spec, 4 * kOfflineBatch, derive_seed(o.seed, 1));
  const auto held_rows =
      model_inputs(spec, kHeldOutInputs, derive_seed(o.seed, 2));
  std::vector<Tensor> batches, held_out;
  for (std::size_t i = 0; i < rows.size(); i += kOfflineBatch) {
    batches.push_back(stack_batch(rows, i, kOfflineBatch));
  }
  for (std::size_t i = 0; i < held_rows.size(); i += kOfflineBatch) {
    held_out.push_back(stack_batch(held_rows, i, kOfflineBatch));
  }

  Setup<BatchApp> setup(
      [&](Stages& st) { return prepare_batch_app(calibration, st); });
  auto app = setup.before();

  Tracer tracer(!o.trace_out.empty());
  StepTracer steps(&tracer);
  if (tracer.enabled()) {
    app->f32->set_observer(&steps);
    app->int8->set_observer(&steps);
  }
  const int k_item = tracer.id("item");
  const int k_set = tracer.id("session.set_input");
  const int k_invoke = tracer.id("session.invoke");
  std::int64_t item_id = 0;
  auto run_item = [&](const Tensor& batch) {
    tracer.begin_item(item_id++);
    const auto t0 = Clock::now();
    tracer.open(k_item, t0);
    auto t = t0;
    for (Session* s : {app->f32.get(), app->int8.get()}) {
      s->set_input(0, batch);
      const auto t1 = tracer.mark();
      tracer.leaf(k_set, t, t1);
      tracer.open(k_invoke, t1);
      s->invoke();
      t = tracer.mark();
      tracer.close(t);
    }
    const auto end = Clock::now();
    tracer.close(end);
    return end;
  };

  for (int i = 0; i < 2; ++i) run_item(batches[static_cast<std::size_t>(i)]);
  tracer.clear();
  AllocStats::instance().reset_peak();

  std::vector<double> item_us;
  item_us.reserve(1 << 16);
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(o.seconds));
  Slices slices(o.seconds);
  for (std::size_t i = 0;; ++i) {
    const auto t0 = Clock::now();
    const auto t1 = run_item(batches[i % batches.size()]);
    const double us = us_between(t0, t1);
    item_us.push_back(us);
    slices.add(us_between(start, t1), kOfflineBatch, us);
    if (t1 >= deadline) break;
  }
  r.metrics["peak_tensor_mb"] = peak_tensor_mb();
  r.attempted = static_cast<std::int64_t>(item_us.size());
  r.metrics["items_per_s"] = slices.busy_rate();
  report_latency(item_us, r);

  if (tracer.enabled()) {
    std::map<std::string, double> flops = plan_flops(app->f32->graph());
    for (const auto& [g, f] : plan_flops(app->int8->graph())) flops[g] += f;
    report_kernel_layers(tracer, static_cast<double>(tracer.count("item")),
                         flops, r);
    report_session_memory({app->f32.get(), app->int8.get()}, r);
    r.layers["tracing.attributed_share"] = tracer.attributed_share("item");
    finish_trace(tracer, o, r);
    app->f32->set_observer(nullptr);
    app->int8->set_observer(nullptr);
  }

  // Held-out batches against the reference kernels, per dtype.
  RefOpResolver ref_resolver;
  struct Check {
    Session* session;
    double tolerance;
    const char* dtype;
  };
  for (const Check& c : {Check{app->f32.get(), kF32Tolerance, "f32"},
                         Check{app->int8.get(), kInt8Tolerance, "int8"}}) {
    Model ref_model(&c.session->graph(), &ref_resolver);
    Session ref(&ref_model);
    for (const Tensor& batch : held_out) {
      c.session->set_input(0, batch);
      c.session->invoke();
      ref.set_input(0, batch);
      ref.invoke();
      ++r.attempted;
      const double diff = max_abs_diff(c.session->output(0), ref.output(0));
      double& worst = r.info[std::string("ref_max_abs_diff_") + c.dtype];
      worst = std::max(worst, diff);
      if (diff > c.tolerance) {
        r.fail(std::string("batch_offline: ") + c.dtype +
               " output differs from the reference by " + std::to_string(diff));
      }
    }
  }
  setup.after(r, tracer.enabled());
  return r;
}

// --- serve_steady / serve_overload -------------------------------------------

// Two front-door models with batch-1 and batch-4 variants on one Engine:
// 80% of requests go to mobilenet_v1_mini f32, 20% to mobilenet_v3_mini int8.
struct ServeStack {
  BuiltinOpResolver resolver;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<FrontDoor> door;  // destroyed before the engine
};

struct ServedModel {
  std::string name;
  std::string b1;  // engine name of the batch-1 variant
  double share = 0.0;
  std::vector<Tensor> inputs;
  std::vector<Tensor> golden;
};

constexpr int kServeInputs = 64;
// Engine names of every loaded variant.
const char* const kServeVariants[] = {
    "mobilenet_v1_mini/f32@b1", "mobilenet_v1_mini/f32@b4",
    "mobilenet_v3_mini/int8@b1", "mobilenet_v3_mini/int8@b4"};

std::unique_ptr<ServeStack> prepare_serve_stack(
    const std::vector<Tensor>& calibration, Stages& st) {
  auto stack = std::make_unique<ServeStack>();
  stack->engine = std::make_unique<Engine>(&stack->resolver);
  Engine& engine = *stack->engine;
  auto load = [&](const std::string& name, Graph g) {
    const auto t = Clock::now();
    engine.load(name, std::move(g));
    st.add_since("engine.load_ms", t);
  };
  for (int b : {1, 4}) {
    load("mobilenet_v1_mini/f32@b" + std::to_string(b),
         build_converted([b] { return build_mobilenet_v1_mini(kModelSeed, b); },
                         st));
  }
  Graph v3_b1 = build_converted(
      [] { return build_mobilenet_v3_mini(kModelSeed, 1); }, st);
  Graph v3_b4 = build_converted(
      [] { return build_mobilenet_v3_mini(kModelSeed, 4); }, st);
  std::vector<Graph> int8 =
      quantize_all(v3_b1, calibration, {&v3_b1, &v3_b4}, st);
  load("mobilenet_v3_mini/int8@b1", std::move(int8[0]));
  load("mobilenet_v3_mini/int8@b4", std::move(int8[1]));

  stack->door =
      std::make_unique<FrontDoor>(&engine, FrontDoorOptions{.workers = 2});
  for (const char* name : {"mobilenet_v1_mini/f32", "mobilenet_v3_mini/int8"}) {
    FrontDoorModelOptions opts;
    opts.queue_capacity = 64;
    opts.max_batch = 4;
    opts.max_wait_ms = 0.5;
    opts.default_deadline_ms = kLatencyLimitUs / 1e3;
    opts.variants = {{1, std::string(name) + "@b1"},
                     {4, std::string(name) + "@b4"}};
    const auto t = Clock::now();
    stack->door->register_model(name, opts);
    st.add_since("front_door.register_ms", t);
  }
  double prepare_ms = 0.0;
  for (const char* m : kServeVariants) {
    prepare_ms += engine.find(m)->prepare_ms();
  }
  st.set("model.prepare_ms", prepare_ms);
  return stack;
}

// One scheduled request: the schedule is generated before the window, the
// generator fills the send fields, the completion callback the rest.
struct ServeRun;
struct Request {
  double due_us = 0.0;  // scheduled send time, from the window start
  std::uint8_t model = 0;
  std::uint8_t input = 0;
  RequestCode admission = RequestCode::kOk;
  RequestCode code = RequestCode::kUnknownModel;
  bool match = false;
  float submit_us = 0.0f;  // time inside submit_async
  float queue_us = 0.0f;   // from RequestResult (submit -> dispatch)
  float service_us = 0.0f; // RequestResult latency minus queue
  double sent_us = 0.0;
  double done_us = 0.0;
  const Tensor* golden = nullptr;
  ServeRun* run = nullptr;
};

struct ServeRun {
  Clock::time_point start;
  std::atomic<std::int64_t> completed{0};
};

bool same_bytes(const Tensor& a, const Tensor& b) {
  return a.byte_size() == b.byte_size() &&
         std::memcmp(a.raw_data(), b.raw_data(), a.byte_size()) == 0;
}

// Completion callback (scheduler thread). The release increment publishes
// the record to the generator thread, which reads records only after it
// has observed every admitted completion.
void on_request_done(void* ctx, const RequestResult& res) {
  auto* q = static_cast<Request*>(ctx);
  q->done_us = us_between(q->run->start, Clock::now());
  q->code = res.code;
  q->queue_us = static_cast<float>(res.queue_us);
  q->service_us = static_cast<float>(res.latency_us - res.queue_us);
  q->match = res.code == RequestCode::kOk && res.output_count >= 1 &&
             same_bytes(res.outputs[0], *q->golden);
  q->run->completed.fetch_add(1, std::memory_order_release);
}

Result run_serve(const Options& o, double default_rps) {
  Result r;
  const double rps = o.rps > 0 ? o.rps : default_rps;
  const InputSpec spec =
      build_mobilenet_v1_mini(kModelSeed, 1).model.input_spec;
  const auto calibration =
      model_inputs(spec, kCalibrationSamples, kCalibrationSeed);
  std::vector<ServedModel> models = {
      {"mobilenet_v1_mini/f32", "mobilenet_v1_mini/f32@b1", 0.8, {}, {}},
      {"mobilenet_v3_mini/int8", "mobilenet_v3_mini/int8@b1", 0.2, {}, {}}};
  for (std::size_t m = 0; m < models.size(); ++m) {
    models[m].inputs =
        model_inputs(spec, kServeInputs, derive_seed(o.seed, 10 + m));
  }
  // Poisson arrivals with an 80/20 model mix, all drawn before the window.
  std::vector<Request> requests;
  {
    Pcg32 rng(derive_seed(o.seed, 3));
    requests.reserve(static_cast<std::size_t>(rps * o.seconds * 1.1) + 1024);
    double t_us = 0.0;
    while (true) {
      t_us += -std::log(1.0 - rng.next_double()) * 1e6 / rps;
      if (t_us >= o.seconds * 1e6) break;
      Request q;
      q.due_us = t_us;
      q.model = rng.next_double() < models[0].share ? 0 : 1;
      q.input = static_cast<std::uint8_t>(rng.next_below(kServeInputs));
      requests.push_back(q);
    }
  }

  Setup<ServeStack> setup(
      [&](Stages& st) { return prepare_serve_stack(calibration, st); });
  auto stack = setup.before();
  Engine& engine = *stack->engine;
  FrontDoor& door = *stack->door;

  // Goldens: a batch-1 Session over the engine's own batch-1 model.
  for (ServedModel& m : models) {
    Session s(engine.find(m.b1));
    for (const Tensor& x : m.inputs) {
      s.set_input(0, x);
      s.invoke();
      m.golden.push_back(s.output(0));
    }
  }
  // Warm-up. Each variant gets one session per FrontDoor worker with a grown
  // arena, so sessions are not created inside the window (they would move
  // peak_tensor_mb from run to run); then bursts arm the service-time
  // estimate admission control uses.
  for (const char* variant : kServeVariants) {
    const Model* model = engine.find(variant);
    const Tensor x = Tensor::f32(
        model->graph().node(model->input_ids()[0]).output_shape);
    SessionLease a = engine.acquire(variant);
    SessionLease b = engine.acquire(variant);
    for (Session* s : {a.get(), b.get()}) {
      s->set_input(0, x);
      s->invoke();
    }
  }
  for (int round = 0; round < 8; ++round) {
    for (const ServedModel& m : models) {
      std::vector<Ticket> tickets;
      for (int i = 0; i < 8; ++i) {
        tickets.push_back(
            door.submit(m.name, m.inputs[static_cast<std::size_t>(i)]));
      }
      for (Ticket& t : tickets) t.wait();
    }
  }
  std::vector<FrontDoorStats> warm;
  for (const ServedModel& m : models) warm.push_back(door.stats(m.name));
  for (Request& q : requests) q.golden = &models[q.model].golden[q.input];

  AllocStats::instance().reset_peak();
  ServeRun run;
  std::int64_t admitted = 0;
  run.start = Clock::now();
  for (Request& q : requests) {
    q.run = &run;
    const auto due =
        run.start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::micro>(q.due_us));
    // Open loop: an overdue request is sent at once, never skipped. Sleeping
    // to the due time itself would add the host's wake-up delay to every
    // request, so the generator sleeps to just before it and spins the rest.
    if (Clock::now() + kSpinBeforeDue < due) {
      std::this_thread::sleep_until(due - kSpinBeforeDue);
    }
    while (Clock::now() < due) {
    }
    const ServedModel& m = models[q.model];
    const auto s0 = Clock::now();
    q.admission =
        door.submit_async(m.name, m.inputs[q.input], kLatencyLimitUs / 1e3,
                          0, on_request_done, &q);
    const auto s1 = Clock::now();
    q.sent_us = us_between(run.start, s0);
    q.submit_us = static_cast<float>(us_between(s0, s1));
    if (q.admission == RequestCode::kOk) ++admitted;
  }
  const auto drain_deadline = Clock::now() + std::chrono::seconds(20);
  while (run.completed.load(std::memory_order_acquire) < admitted) {
    MLX_CHECK(Clock::now() < drain_deadline)
        << "front door did not complete every admitted request";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  r.metrics["peak_tensor_mb"] = peak_tensor_mb();

  Slices good(o.seconds);
  std::vector<double> latency, lateness, submit, queue, service;
  latency.reserve(requests.size());
  std::int64_t rejected = 0, shed = 0, expired = 0, good_count = 0;
  for (const Request& q : requests) {
    lateness.push_back(q.sent_us - q.due_us);
    submit.push_back(q.submit_us);
    ++r.attempted;
    if (q.admission != RequestCode::kOk) {
      if (q.admission == RequestCode::kUnknownModel) {
        r.fail("serve: model unknown at admission");
      } else {
        ++rejected;
      }
      continue;
    }
    switch (q.code) {
      case RequestCode::kOk: {
        queue.push_back(q.queue_us);
        service.push_back(q.service_us);
        const double lat = q.done_us - q.due_us;
        latency.push_back(lat);
        if (!q.match) {
          r.fail("serve: output differs from the batch-1 golden");
        } else if (lat <= kLatencyLimitUs) {
          ++good_count;
          good.add(q.due_us, 1.0);
        }
        break;
      }
      case RequestCode::kShed: ++shed; break;
      case RequestCode::kDeadlineExceeded: ++expired; break;
      default:
        r.fail(std::string("serve: request ended ") +
               request_code_name(q.code));
        break;
    }
  }
  const double n = static_cast<double>(std::max<std::int64_t>(1, r.attempted));
  r.metrics["items_per_s"] = good.rate();
  report_latency(latency, r);
  const double lateness_p99 = quantile(lateness, 0.99);
  r.info["offered_rps"] = rps;
  r.info["slo_miss_ratio"] = 1.0 - static_cast<double>(good_count) / n;
  r.info["gen_lateness_us_p99"] = lateness_p99;
  r.info["valid"] =
      lateness_p99 <= kMaxLatenessShare * kLatencyLimitUs ? 1.0 : 0.0;

  if (!o.trace_out.empty()) {
    Tracer tracer(true, run.start);
    const int k_req = tracer.id("request");
    const int k_late = tracer.id("gen.lateness");
    const int k_submit = tracer.id("front_door.submit");
    const int k_queue = tracer.id("front_door.queue");
    const int k_service = tracer.id("front_door.service");
    double next_keep_us = 0.0;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const Request& q = requests[i];
      if (q.due_us < next_keep_us) continue;
      next_keep_us = q.due_us + Tracer::kTraceIntervalUs;
      const auto id = static_cast<std::int64_t>(i);
      const bool served = q.admission == RequestCode::kOk;
      tracer.async_span(k_req, id, q.due_us,
                        served ? q.done_us : q.sent_us + q.submit_us);
      tracer.async_span(k_late, id, q.due_us, q.sent_us);
      tracer.async_span(k_submit, id, q.sent_us, q.sent_us + q.submit_us);
      if (served) {
        tracer.async_span(k_queue, id, q.sent_us, q.sent_us + q.queue_us);
        tracer.async_span(k_service, id, q.sent_us + q.queue_us, q.done_us);
      }
    }
    std::uint64_t batches = 0, coalesced = 0;
    std::size_t max_depth = 0;
    for (std::size_t m = 0; m < models.size(); ++m) {
      const FrontDoorStats s = door.stats(models[m].name);
      batches += s.batches - warm[m].batches;
      for (std::size_t b = 1; b < s.batch_size_hist.size(); ++b) {
        coalesced += b * (s.batch_size_hist[b] - warm[m].batch_size_hist[b]);
      }
      max_depth = std::max(max_depth, s.max_queue_depth);
    }
    std::size_t sessions = 0;
    for (const char* m : kServeVariants) {
      sessions += engine.pool_stats(m).sessions_created;
    }
    r.layers["front_door.submit_us_p50"] = quantile(submit, 0.5);
    r.layers["front_door.submit_us_p99"] = quantile(submit, 0.99);
    r.layers["front_door.queue_us_p50"] = quantile(queue, 0.5);
    r.layers["front_door.queue_us_p99"] = quantile(queue, 0.99);
    r.layers["front_door.service_us_p50"] = quantile(service, 0.5);
    r.layers["front_door.mean_batch"] =
        batches > 0 ? static_cast<double>(coalesced) /
                          static_cast<double>(batches)
                    : 0.0;
    r.layers["front_door.shed_ratio"] = static_cast<double>(shed) / n;
    r.layers["front_door.reject_ratio"] = static_cast<double>(rejected) / n;
    r.layers["front_door.deadline_exceeded_ratio"] =
        static_cast<double>(expired) / n;
    r.layers["front_door.max_queue_depth"] = static_cast<double>(max_depth);
    r.layers["engine.sessions_created"] = static_cast<double>(sessions);
    r.layers["model.prepared_kb"] =
        static_cast<double>(engine.prepared_bytes_total()) / 1024.0;
    r.layers["gen.lateness_us_p99"] = lateness_p99;
    finish_trace(tracer, o, r);
  }
  // The serving stack's workers are stopped before more stacks are built.
  stack.reset();
  setup.after(r, !o.trace_out.empty());
  return r;
}

// --- fleet_validate ----------------------------------------------------------

// The workstation side of ML-EXray: device digest traces from 32 devices,
// every 8th one with a wrong-normalization preprocessing bug, aggregated
// against a raw reference trace; plus Fig-2 per-layer drift of one edge
// trace. No kernel runs in the window.
constexpr int kDevices = 32;
constexpr int kDeviceFrames = 12;

bool has_bug(int device) { return device % 8 == 3; }

struct FleetInputs {
  std::vector<std::vector<std::uint8_t>> devices;  // serialized digest traces
  std::vector<std::string> device_ids;
  std::vector<std::uint8_t> reference;  // raw f32 per-layer, ref kernels
  std::vector<std::uint8_t> edge;       // raw int8 per-layer outputs
};

FleetInputs make_fleet_inputs(std::uint64_t seed) {
  FleetInputs in;
  Graph f32 =
      convert_for_inference(build_mobilenet_v2_mini(kModelSeed, 1).model);
  Calibrator calib(&f32);
  for (const Tensor& x : model_inputs(f32.input_spec, kCalibrationSamples,
                                      kCalibrationSeed)) {
    calib.observe({x});
  }
  const Graph int8 = quantize_model(f32, calib);
  const BuiltinOpResolver resolver;

  MonitorOptions digests;
  digests.per_layer_digests = true;
  for (int d = 0; d < kDevices; ++d) {
    char id[32];
    std::snprintf(id, sizeof(id), "device-%02d", d);
    in.device_ids.push_back(id);
    const ImagePipelineConfig config{
        int8.input_spec,
        has_bug(d) ? PreprocBug::kWrongNormalization : PreprocBug::kNone};
    const auto frames =
        sensor_examples(kDeviceFrames, derive_seed(seed, 100 + d));
    in.devices.push_back(serialize_trace(run_classification_playback(
        int8, resolver, frames, config, digests, id)));
  }
  MonitorOptions raw;
  raw.per_layer_outputs = true;
  const auto frames = sensor_examples(kDeviceFrames, derive_seed(seed, 99));
  in.reference =
      serialize_trace(run_reference_classification(f32, frames, raw));
  in.edge = serialize_trace(run_classification_playback(
      int8, resolver, frames, {int8.input_spec, PreprocBug::kNone}, raw,
      "edge"));
  return in;
}

struct Workstation {
  Trace reference;
  Trace edge;
};

Result run_fleet_validate(const Options& o) {
  Result r;
  const FleetInputs in = make_fleet_inputs(o.seed);
  Setup<Workstation> setup([&](Stages&) {
    auto w = std::make_unique<Workstation>();
    w->reference = deserialize_trace(in.reference);
    w->edge = deserialize_trace(in.edge);
    return w;
  });
  auto ws = setup.before();

  Tracer tracer(!o.trace_out.empty());
  const int k_round = tracer.id("round");
  const int k_deser = tracer.id("trace.deserialize");
  const int k_ref = tracer.id("drift.set_reference");
  const int k_add = tracer.id("drift.add_trace");
  const int k_report = tracer.id("drift.report");
  const int k_drift = tracer.id("validation.per_layer_drift");
  const DeploymentValidator validator;
  std::int64_t round_id = 0;
  auto run_round = [&](bool check) {
    tracer.begin_item(round_id++);
    const auto t0 = Clock::now();
    tracer.open(k_round, t0);
    std::vector<Trace> traces(kDevices);
    auto t = t0;
    for (int d = 0; d < kDevices; ++d) {
      traces[static_cast<std::size_t>(d)] =
          deserialize_trace(in.devices[static_cast<std::size_t>(d)]);
      const auto t1 = tracer.mark();
      tracer.leaf(k_deser, t, t1);
      t = t1;
    }
    DriftAggregator agg;
    agg.set_reference(ws->reference);
    auto t1 = tracer.mark();
    tracer.leaf(k_ref, t, t1);
    for (int d = 0; d < kDevices; ++d) {
      agg.add_trace(in.device_ids[static_cast<std::size_t>(d)],
                    traces[static_cast<std::size_t>(d)]);
      const auto t2 = tracer.mark();
      tracer.leaf(k_add, t1, t2);
      t1 = t2;
    }
    const FleetReport report = agg.report();
    const auto t2 = tracer.mark();
    tracer.leaf(k_report, t1, t2);
    const PerLayerReport drift =
        validator.per_layer_drift(ws->edge, ws->reference);
    const auto end = Clock::now();
    tracer.leaf(k_drift, t2, end);
    tracer.close(end);
    if (check) {
      // Every injected-bug device must outrank every clean device.
      std::size_t bug_seen = 0;
      bool ok = report.outliers.size() == kDevices && !drift.drifts.empty();
      for (std::size_t i = 0; ok && i < report.outliers.size(); ++i) {
        const auto id = std::find(in.device_ids.begin(), in.device_ids.end(),
                                  report.outliers[i].device_id);
        const bool bug = has_bug(static_cast<int>(id - in.device_ids.begin()));
        if (bug) ++bug_seen;
        if (bug != (i < kDevices / 8)) ok = false;
      }
      if (!ok || bug_seen != kDevices / 8) {
        r.fail("fleet_validate: injected-bug devices do not lead the "
               "outlier ranking");
      }
    }
    return end;
  };

  run_round(false);
  tracer.clear();
  AllocStats::instance().reset_peak();
  std::vector<double> round_us;
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(o.seconds));
  Slices slices(o.seconds);
  const double frames = kDevices * kDeviceFrames;
  while (true) {
    const auto t0 = Clock::now();
    const auto t1 = run_round(true);
    const double us = us_between(t0, t1);
    round_us.push_back(us);
    slices.add(us_between(start, t1), frames, us);
    ++r.attempted;
    if (t1 >= deadline) break;
  }
  r.metrics["peak_tensor_mb"] = peak_tensor_mb();
  r.metrics["items_per_s"] = slices.busy_rate();
  report_latency(round_us, r);

  if (tracer.enabled()) {
    const double rounds = static_cast<double>(tracer.count("round"));
    std::size_t bytes = 0;
    for (const auto& d : in.devices) bytes += d.size();
    r.layers["trace.deserialize_us_per_frame"] =
        tracer.self_us("trace.deserialize") / (rounds * frames);
    r.layers["trace.kb_per_frame"] =
        static_cast<double>(bytes) / frames / 1024.0;
    r.layers["drift.set_reference_ms"] =
        tracer.self_us("drift.set_reference") / rounds / 1e3;
    r.layers["drift.add_trace_us_per_frame"] =
        tracer.self_us("drift.add_trace") / (rounds * frames);
    r.layers["drift.report_ms"] = tracer.self_us("drift.report") / rounds / 1e3;
    r.layers["validation.per_layer_drift_ms"] =
        tracer.self_us("validation.per_layer_drift") / rounds / 1e3;
    r.layers["tracing.attributed_share"] = tracer.attributed_share("round");
    finish_trace(tracer, o, r);
  }
  setup.after(r, tracer.enabled());
  return r;
}

// --- main --------------------------------------------------------------------

int usage() {
  std::fprintf(stderr,
               "usage: bench_workloads --workload <edge_stream|batch_offline|"
               "serve_steady|serve_overload|fleet_validate> --seed <n> "
               "--seconds <s> [--trace-out <file.json>] [--rps <r>]\n");
  return 2;
}

int run(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      o.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value);
    } else if (arg == "--trace-out") {
      o.trace_out = value;
    } else if (arg == "--rps") {
      o.rps = std::stod(value);
    } else {
      return usage();
    }
  }
  if (o.seconds <= 0) return usage();

  Result r;
  if (o.workload == "edge_stream") {
    r = run_edge_stream(o);
  } else if (o.workload == "batch_offline") {
    r = run_batch_offline(o);
  } else if (o.workload == "serve_steady") {
    r = run_serve(o, kSteadyRps);
  } else if (o.workload == "serve_overload") {
    r = run_serve(o, kOverloadRps);
  } else if (o.workload == "fleet_validate") {
    r = run_fleet_validate(o);
  } else {
    return usage();
  }
  r.info["hardware_concurrency"] = std::thread::hardware_concurrency();

  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
              "\"traced\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"problems\": [",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace_out.empty() ? "false" : "true",
              static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed));
  for (std::size_t i = 0; i < r.problems.size(); ++i) {
    std::printf("%s\"%s\"", i ? ", " : "", r.problems[i].c_str());
  }
  std::printf("]");
  print_map("metrics", r.metrics);
  print_map("layers", r.layers);
  print_map("info", r.info);
  std::printf("}\n");
  return 0;
}

}  // namespace
}  // namespace mlexray

int main(int argc, char** argv) {
  try {
    return mlexray::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_workloads: %s\n", e.what());
    return 1;
  }
}
