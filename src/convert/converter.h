// Checkpoint -> deployment model conversion.
//
// Reproduces the paper's §2 "Model Optimization" step: BatchNorm folding
// into the preceding conv/depthwise/fc weights, fusion of ReLU/ReLU6
// activation nodes into their producers, and dead-node elimination. The
// result is the "Mobile" (optimized 32-bit float) model variant of Fig 5.
#pragma once

#include "src/graph/graph.h"

namespace mlexray {

// Returns the converted inference model; the input (training) model is
// untouched. Weights are deep-copied. BatchNorm is always folded and
// ReLU/ReLU6 always fused where the graph allows.
Graph convert_for_inference(const Graph& checkpoint);

}  // namespace mlexray
