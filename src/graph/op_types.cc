#include "src/graph/op_types.h"

namespace mlexray {

std::string op_type_name(OpType type) {
  switch (type) {
    case OpType::kInput: return "Input";
    case OpType::kConv2D: return "Conv2D";
    case OpType::kDepthwiseConv2D: return "DepthwiseConv2D";
    case OpType::kFullyConnected: return "FullyConnected";
    case OpType::kAvgPool2D: return "AvgPool2D";
    case OpType::kMaxPool2D: return "MaxPool2D";
    case OpType::kMean: return "Mean";
    case OpType::kPad: return "Pad";
    case OpType::kAdd: return "Add";
    case OpType::kMul: return "Mul";
    case OpType::kConcat: return "Concat";
    case OpType::kRelu: return "Relu";
    case OpType::kRelu6: return "Relu6";
    case OpType::kHardSwish: return "HardSwish";
    case OpType::kSigmoid: return "Sigmoid";
    case OpType::kSoftmax: return "Softmax";
    case OpType::kReshape: return "Reshape";
    case OpType::kBatchNorm: return "BatchNorm";
    case OpType::kQuantize: return "Quantize";
    case OpType::kDequantize: return "Dequantize";
    case OpType::kEmbedding: return "Embedding";
    case OpType::kUpsampleNearest2x: return "UpsampleNearest2x";
    case OpType::kSub: return "Sub";
    case OpType::kTanh: return "Tanh";
  }
  MLX_FAIL() << "unknown op type";
}

std::string op_latency_group(OpType type) {
  switch (type) {
    case OpType::kDepthwiseConv2D: return "D-Conv";
    case OpType::kConv2D: return "Conv";
    case OpType::kFullyConnected: return "FC";
    case OpType::kMean: return "Mean";
    case OpType::kPad: return "Pad";
    case OpType::kAdd: return "Add";
    case OpType::kSub: return "Add";
    case OpType::kMul: return "Mul";
    case OpType::kHardSwish: return "HSwish";
    case OpType::kSigmoid: return "Logistic";
    case OpType::kTanh: return "Tanh";
    case OpType::kSoftmax: return "Softmax";
    case OpType::kQuantize: return "Quantize";
    case OpType::kDequantize: return "Quantize";
    case OpType::kAvgPool2D: return "Pool";
    case OpType::kMaxPool2D: return "Pool";
    default: return "Other";
  }
}

}  // namespace mlexray
