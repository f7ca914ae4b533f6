#include "src/convert/converter.h"

#include <cmath>
#include <map>
#include <set>

namespace mlexray {

namespace {

bool is_conv_like(OpType type) {
  return type == OpType::kConv2D || type == OpType::kDepthwiseConv2D ||
         type == OpType::kFullyConnected;
}

// Output-channel count and the per-element channel index stride pattern for
// weight folding. For Conv2D/FC the out-channel is the leading axis; for
// DepthwiseConv2D it is the trailing axis of the [1,kh,kw,ch] filter.
void fold_bn_into(Node& producer, const Node& bn) {
  const float* gamma = bn.weights[0].data<float>();
  const float* beta = bn.weights[1].data<float>();
  const float* mean = bn.weights[2].data<float>();
  const float* var = bn.weights[3].data<float>();
  const float eps = bn.attrs.epsilon;

  Tensor& filter = producer.weights[0];
  Tensor& bias = producer.weights[1];
  float* w = filter.data<float>();
  float* b = bias.data<float>();
  const std::int64_t out_ch = bias.num_elements();

  std::vector<float> scale(static_cast<std::size_t>(out_ch));
  for (std::int64_t c = 0; c < out_ch; ++c) {
    scale[static_cast<std::size_t>(c)] =
        gamma[c] / std::sqrt(var[c] + eps);
  }
  const std::int64_t total = filter.num_elements();
  if (producer.type == OpType::kDepthwiseConv2D) {
    // channel is the innermost axis
    for (std::int64_t i = 0; i < total; ++i) {
      w[i] *= scale[static_cast<std::size_t>(i % out_ch)];
    }
  } else {
    const std::int64_t per_ch = total / out_ch;
    for (std::int64_t i = 0; i < total; ++i) {
      w[i] *= scale[static_cast<std::size_t>(i / per_ch)];
    }
  }
  for (std::int64_t c = 0; c < out_ch; ++c) {
    b[c] = (b[c] - mean[c]) * scale[static_cast<std::size_t>(c)] + beta[c];
  }
}

Activation activation_of(OpType type) {
  switch (type) {
    case OpType::kRelu: return Activation::kRelu;
    case OpType::kRelu6: return Activation::kRelu6;
    default: return Activation::kNone;
  }
}

}  // namespace

Graph convert_for_inference(const Graph& checkpoint) {
  Graph work = checkpoint;  // deep copy (tensors copy their buffers)

  // Consumer counts (graph outputs count as consumers).
  std::vector<int> consumers(work.nodes.size(), 0);
  for (const Node& n : work.nodes) {
    for (int in : n.inputs) ++consumers[static_cast<std::size_t>(in)];
  }
  for (int out : work.outputs) ++consumers[static_cast<std::size_t>(out)];

  // alias[i] = node that now produces i's value (after a removal).
  std::vector<int> alias(work.nodes.size());
  for (std::size_t i = 0; i < alias.size(); ++i) alias[i] = static_cast<int>(i);
  auto resolve = [&](int id) {
    while (alias[static_cast<std::size_t>(id)] != id) {
      id = alias[static_cast<std::size_t>(id)];
    }
    return id;
  };
  std::set<int> removed;

  // A BatchNorm folds into a conv-like producer that feeds nothing else.
  for (Node& n : work.nodes) {
    if (n.type != OpType::kBatchNorm) continue;
    int producer_id = resolve(n.inputs[0]);
    Node& producer = work.node(producer_id);
    if (!is_conv_like(producer.type)) continue;
    if (consumers[static_cast<std::size_t>(producer_id)] != 1) continue;
    fold_bn_into(producer, n);
    alias[static_cast<std::size_t>(n.id)] = producer_id;
    // The producer's effective consumers are now the BN's consumers.
    consumers[static_cast<std::size_t>(producer_id)] =
        consumers[static_cast<std::size_t>(n.id)];
    removed.insert(n.id);
  }

  // Remaining BatchNorms (pre-activation placement, producer not conv-like)
  // become an equivalent per-channel scale/shift: a 1x1 DepthwiseConv2D.
  // This keeps the deployed graph BN-free so full-integer quantization works.
  for (Node& n : work.nodes) {
    if (n.type != OpType::kBatchNorm || removed.count(n.id) > 0) continue;
    const float* gamma = n.weights[0].data<float>();
    const float* beta = n.weights[1].data<float>();
    const float* mean = n.weights[2].data<float>();
    const float* var = n.weights[3].data<float>();
    const float eps = n.attrs.epsilon;
    const std::int64_t ch = n.weights[0].num_elements();
    Tensor filter = Tensor::f32(Shape{1, 1, 1, ch});
    Tensor bias = Tensor::f32(Shape{ch});
    float* w = filter.data<float>();
    float* b = bias.data<float>();
    for (std::int64_t c = 0; c < ch; ++c) {
      float scale = gamma[c] / std::sqrt(var[c] + eps);
      w[c] = scale;
      b[c] = beta[c] - mean[c] * scale;
    }
    n.type = OpType::kDepthwiseConv2D;
    n.weights.clear();
    n.weights.push_back(std::move(filter));
    n.weights.push_back(std::move(bias));
    n.attrs = OpAttrs{};
  }

  // ReLU/ReLU6 fuse into a conv-like or Add producer that feeds nothing else.
  for (Node& n : work.nodes) {
    Activation act = activation_of(n.type);
    if (act == Activation::kNone) continue;
    int producer_id = resolve(n.inputs[0]);
    Node& producer = work.node(producer_id);
    const bool fusable_producer =
        is_conv_like(producer.type) || producer.type == OpType::kAdd;
    if (!fusable_producer) continue;
    if (producer.attrs.activation != Activation::kNone) continue;
    if (consumers[static_cast<std::size_t>(producer_id)] != 1) continue;
    producer.attrs.activation = act;
    alias[static_cast<std::size_t>(n.id)] = producer_id;
    consumers[static_cast<std::size_t>(producer_id)] =
        consumers[static_cast<std::size_t>(n.id)];
    removed.insert(n.id);
  }

  // Rebuild with compacted ids.
  Graph result;
  result.name = checkpoint.name;
  result.input_spec = checkpoint.input_spec;
  std::map<int, int> id_map;
  for (const Node& n : work.nodes) {
    if (removed.count(n.id) > 0) continue;
    Node copy = n;
    copy.inputs.clear();
    for (int in : n.inputs) copy.inputs.push_back(id_map.at(resolve(in)));
    int new_id = result.add_node(std::move(copy));
    id_map[n.id] = new_id;
  }
  for (int out : work.outputs) {
    result.outputs.push_back(id_map.at(resolve(out)));
  }
  result.validate();
  result.infer_shapes();
  return result;
}

}  // namespace mlexray
