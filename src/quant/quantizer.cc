#include "src/quant/quantizer.h"

#include <algorithm>
#include <cmath>
#include <map>

namespace mlexray {

QuantParams activation_quant_params(float range_min, float range_max,
                                    bool symmetric) {
  if (symmetric) {
    float bound = std::max(std::abs(range_min), std::abs(range_max));
    bound = std::max(bound, 1e-6f);
    return QuantParams::per_tensor(bound / 127.0f, 0);
  }
  float scale = (range_max - range_min) / 255.0f;
  scale = std::max(scale, 1e-9f);
  auto zp = static_cast<std::int32_t>(
      std::lround(-128.0 - range_min / scale));
  zp = std::clamp<std::int32_t>(zp, -128, 127);
  return QuantParams::per_tensor(scale, zp);
}

Tensor quantize_weights(const Tensor& weights, int channel_axis,
                        bool per_channel) {
  MLX_CHECK(weights.dtype() == DType::kF32);
  const Shape& shape = weights.shape();
  const float* src = weights.data<float>();
  const std::int64_t total = weights.num_elements();

  std::int64_t channels = 1;
  std::int64_t stride = 1;
  if (per_channel) {
    channels = shape.dim(channel_axis);
    for (int d = shape.rank() - 1; d > channel_axis; --d) stride *= shape.dim(d);
  }

  std::vector<float> max_abs(static_cast<std::size_t>(channels), 1e-9f);
  for (std::int64_t i = 0; i < total; ++i) {
    std::int64_t c = per_channel ? (i / stride) % channels : 0;
    max_abs[static_cast<std::size_t>(c)] =
        std::max(max_abs[static_cast<std::size_t>(c)], std::abs(src[i]));
  }
  std::vector<float> scales(static_cast<std::size_t>(channels));
  for (std::int64_t c = 0; c < channels; ++c) {
    scales[static_cast<std::size_t>(c)] =
        max_abs[static_cast<std::size_t>(c)] / 127.0f;
  }

  Tensor out(DType::kI8, shape);
  std::int8_t* dst = out.data<std::int8_t>();
  for (std::int64_t i = 0; i < total; ++i) {
    std::int64_t c = per_channel ? (i / stride) % channels : 0;
    auto q = static_cast<std::int32_t>(
        std::lround(src[i] / scales[static_cast<std::size_t>(c)]));
    dst[i] = static_cast<std::int8_t>(std::clamp<std::int32_t>(q, -127, 127));
  }
  if (per_channel) {
    out.quant() = QuantParams::per_channel_params(
        std::move(scales),
        std::vector<std::int32_t>(static_cast<std::size_t>(channels), 0),
        channel_axis);
  } else {
    out.quant() = QuantParams::per_tensor(scales[0], 0);
  }
  return out;
}

namespace {

Tensor quantize_bias(const Tensor& bias, const QuantParams& in_q,
                     const QuantParams& w_q) {
  const float* src = bias.data<float>();
  Tensor out(DType::kI32, bias.shape());
  std::int32_t* dst = out.data<std::int32_t>();
  const std::int64_t n = bias.num_elements();
  std::vector<float> scales(static_cast<std::size_t>(n));
  std::vector<std::int32_t> zps(static_cast<std::size_t>(n), 0);
  for (std::int64_t c = 0; c < n; ++c) {
    float scale = in_q.scale() * w_q.scale(w_q.per_channel()
                                               ? static_cast<std::size_t>(c)
                                               : 0);
    scales[static_cast<std::size_t>(c)] = scale;
    dst[c] = static_cast<std::int32_t>(std::lround(src[c] / scale));
  }
  out.quant() = QuantParams::per_channel_params(std::move(scales),
                                                std::move(zps), 0);
  return out;
}

// Ops whose int8 output must reuse the producer's quantization parameters.
bool inherits_input_quant(OpType type) {
  switch (type) {
    case OpType::kAvgPool2D:
    case OpType::kMaxPool2D:
    case OpType::kMean:
    case OpType::kPad:
    case OpType::kReshape:
    case OpType::kRelu:
    case OpType::kRelu6:
    case OpType::kUpsampleNearest2x:
      return true;
    default:
      return false;
  }
}

bool fixed_unit_range(OpType type) {
  return type == OpType::kSoftmax || type == OpType::kSigmoid;
}

}  // namespace

Graph quantize_model(const Graph& float_model, const Calibrator& calibrator,
                     QuantizeOptions options) {
  Graph out;
  out.name = float_model.name + "-int8";
  out.input_spec = float_model.input_spec;

  std::map<int, int> id_map;
  for (const Node& n : float_model.nodes) {
    if (n.type == OpType::kBatchNorm) {
      MLX_FAIL() << "quantize_model requires a converted model "
                    "(BatchNorm present: '" << n.name << "')";
    }
    if (n.type == OpType::kInput) {
      Node input;
      input.type = OpType::kInput;
      input.name = n.name;
      input.output_shape = n.output_shape;
      input.output_dtype = n.output_dtype;
      int input_id = out.add_node(std::move(input));

      Node quant;
      quant.type = OpType::kQuantize;
      quant.name = n.name + "_quantize";
      quant.inputs = {input_id};
      Calibrator::Range r = calibrator.range(n.id);
      quant.output_quant =
          activation_quant_params(r.min, r.max, options.symmetric_activations);
      int quant_id = out.add_node(std::move(quant));
      id_map[n.id] = quant_id;
      continue;
    }

    Node copy;
    copy.type = n.type;
    copy.name = n.name;
    copy.attrs = n.attrs;
    for (int in : n.inputs) copy.inputs.push_back(id_map.at(in));

    // Weights.
    switch (n.type) {
      case OpType::kConv2D:
      case OpType::kFullyConnected: {
        Tensor w = quantize_weights(n.weights[0], /*channel_axis=*/0,
                                    options.per_channel_weights);
        const QuantParams& in_q =
            out.node(copy.inputs[0]).output_quant;
        copy.weights.push_back(std::move(w));
        copy.weights.push_back(
            quantize_bias(n.weights[1], in_q, copy.weights[0].quant()));
        break;
      }
      case OpType::kDepthwiseConv2D: {
        Tensor w = quantize_weights(n.weights[0], /*channel_axis=*/3,
                                    options.per_channel_weights);
        const QuantParams& in_q =
            out.node(copy.inputs[0]).output_quant;
        copy.weights.push_back(std::move(w));
        copy.weights.push_back(
            quantize_bias(n.weights[1], in_q, copy.weights[0].quant()));
        break;
      }
      case OpType::kEmbedding:
        MLX_FAIL() << "int8 embedding is not supported ('" << n.name << "')";
      default:
        for (const Tensor& w : n.weights) copy.weights.push_back(w);
        break;
    }

    // Output quantization parameters.
    if (n.type == OpType::kTanh) {
      // tanh's range is [-1, 1]: symmetric fixed params, zero point 0.
      copy.output_quant = QuantParams::per_tensor(1.0f / 128.0f, 0);
    } else if (fixed_unit_range(n.type)) {
      copy.output_quant = QuantParams::per_tensor(1.0f / 256.0f, -128);
    } else if (inherits_input_quant(n.type)) {
      copy.output_quant = out.node(copy.inputs[0]).output_quant;
    } else {
      Calibrator::Range r = calibrator.range(n.id);
      copy.output_quant =
          activation_quant_params(r.min, r.max, options.symmetric_activations);
    }
    int new_id = out.add_node(std::move(copy));
    id_map[n.id] = new_id;
  }

  for (int o : float_model.outputs) {
    Node dq;
    dq.type = OpType::kDequantize;
    dq.name = float_model.node(o).name + "_dequantize";
    dq.inputs = {id_map.at(o)};
    int dq_id = out.add_node(std::move(dq));
    out.outputs.push_back(dq_id);
  }
  out.validate();
  return out;
}

}  // namespace mlexray
