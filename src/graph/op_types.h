// Operation catalogue for the inference/training graph IR.
//
// The set mirrors what the paper's evaluation models need: MobileNet V1-V3
// (conv, depthwise conv, squeeze-excite avg-pool + mul, hard-swish),
// ResNet/Inception/DenseNet (add, concat, pools), detection heads, speech
// conv nets, and embedding-based text models. BatchNorm exists only in
// training graphs and is folded away by the converter.
#pragma once

#include <cstdint>
#include <string>

#include "src/common/error.h"

namespace mlexray {

enum class OpType : std::uint8_t {
  kInput = 0,
  kConv2D,
  kDepthwiseConv2D,
  kFullyConnected,
  kAvgPool2D,
  kMaxPool2D,
  kMean,        // global spatial mean, keepdims (TFLite "Mean")
  kPad,         // spatial zero padding
  kAdd,         // elementwise add (residual)
  kMul,         // elementwise mul with [N,1,1,C] broadcast (squeeze-excite)
  kConcat,      // channel-axis concatenation
  kRelu,
  kRelu6,
  kHardSwish,
  kSigmoid,
  kSoftmax,
  kReshape,
  kBatchNorm,   // training-only; folded by the converter
  kQuantize,    // f32 -> i8 at quantized-graph entry
  kDequantize,  // i8 -> f32 at quantized-graph exit
  kEmbedding,   // token ids -> embedding vectors
  kUpsampleNearest2x,
  // Appended post-serialization-freeze (OpType round-trips as a raw u8, so
  // appending keeps old model files loadable).
  kSub,         // elementwise subtract (same broadcast rules as add)
  kTanh,
};

// Activation functions fusable into conv/depthwise/fc/add.
enum class Activation : std::uint8_t {
  kNone = 0,
  kRelu,
  kRelu6,
  kHardSwish,
};

enum class Padding : std::uint8_t { kSame = 0, kValid = 1 };

std::string op_type_name(OpType type);

// Layer-type grouping used by the Table-4 bench ("D-Conv", "Conv", "FC", ...).
std::string op_latency_group(OpType type);

}  // namespace mlexray
