// Engine canary mode: online Fig-6 drift localization in the serving path.
//
// The paper's per-layer validation is offline and pairwise — record full
// traces on two pipelines, diff later. Canary mode streams the same signal
// live: the Engine shadows a sampled fraction of production invokes through
// a Session built from a *reference* graph + resolver (e.g. the float model,
// or the production graph under the reference kernel set), replays the
// production inputs, and accumulates per-layer normalized RMSE between the
// production activations and the reference's. The running report is the
// PerLayerReport DeploymentValidator::per_layer_drift returns offline, built
// by the same suspect rule, but without raw tensor capture and while the
// model keeps serving. The canary's code lives in src/interpreter/engine.cc.
//
// Sampling contract: shadowing happens on the releasing thread when a lease
// comes home, 1 out of every CanaryOptions::shadow_every releases whose
// invoke completed cleanly (partial frames from deadline expiry or contained
// faults are never diffed). One reference session is shared per model name;
// if another release is mid-shadow the sample is dropped and counted
// (skipped_busy) instead of blocking the pool. The canary survives hot-swaps
// — layers are re-mapped to the new serving version by node name, and layers
// the reference cannot map are skipped (skipped_layout counts whole frames
// whose input layout no longer matches).
//
// The canary reads a production session's layers after invoke, so while it
// is enabled the Engine builds that name's pooled sessions (and the
// reference session) with Retention::kPreserveAll. A lean session leased
// before enable_canary reused its layers' bytes: its sampled frame is not
// diffed but counted in skipped_layout, and release() rebuilds the session
// instead of re-pooling it.
#pragma once

#include <cstdint>
#include <functional>

#include "src/drift/per_layer_report.h"

namespace mlexray {

struct CanaryOptions {
  // Shadow 1 out of every N cleanly-completed releases (1 = every invoke).
  std::uint32_t shadow_every = 8;
  // A layer whose running mean normalized RMSE exceeds this is a suspect;
  // the first suspect in execution order is the Fig-6 localization. Matches
  // per_layer_drift's default so online and offline verdicts compare.
  double drift_threshold = 0.1;
};

struct CanaryReport {
  bool enabled = false;
  std::uint64_t shadowed = 0;          // frames diffed against the reference
  std::uint64_t skipped_busy = 0;      // reference session held by another shadow
  // Sampled frames not diffed: an input layout mismatch after a hot-swap,
  // or a lean session leased before the canary was enabled.
  std::uint64_t skipped_layout = 0;
  std::uint64_t reference_errors = 0;  // reference invoke failures
  // One row per reference plan step, in reference execution order: the
  // running mean normalized RMSE, and as samples the shadowed frames that
  // mapped the layer (a layer never mapped reports error 0, no suspect).
  // drift.first_suspect is the online counterpart of per_layer_drift's.
  PerLayerReport drift;
};

// Fired on the releasing thread after each shadowed frame (sampled slow
// path — allocation is fine, but the hook must not call back into the
// Engine's lease API for the same model).
struct CanaryShadowEvent {
  std::uint64_t shadow_index = 0;  // 1-based count of shadowed frames
  // This frame's verdict: one row per mapped layer, samples 1. Built only
  // while an observer is attached.
  PerLayerReport frame;
};

using CanaryObserver = std::function<void(const CanaryShadowEvent&)>;

}  // namespace mlexray
