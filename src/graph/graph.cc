#include "src/graph/graph.h"

#include <algorithm>

#include "src/kernels/conv_utils.h"

namespace mlexray {

namespace {

// The spatial output dims of a windowed node over the NHWC input shape `is`.
Shape window_output(const Node& node, const Shape& is,
                    std::int64_t channels) {
  const WindowDims win = window_dims(node);
  return Shape{is.dim(0),
               conv_out_dim(is.dim(1), win.h, node.attrs.stride_h,
                            node.attrs.padding),
               conv_out_dim(is.dim(2), win.w, node.attrs.stride_w,
                            node.attrs.padding),
               channels};
}

const Node& input_node(const Graph& model, const Node& node, int i) {
  MLX_CHECK_LT(static_cast<std::size_t>(i), node.inputs.size())
      << op_type_name(node.type) << " '" << node.name << "' missing input " << i;
  return model.node(node.inputs[static_cast<std::size_t>(i)]);
}

void expect_inputs(const Node& node, std::size_t n) {
  MLX_CHECK_EQ(node.inputs.size(), n)
      << op_type_name(node.type) << " '" << node.name << "'";
}

void expect_weights(const Node& node, std::size_t n) {
  MLX_CHECK_EQ(node.weights.size(), n)
      << op_type_name(node.type) << " '" << node.name << "'";
}

// The kernels index a Conv2D's, DepthwiseConv2D's or FullyConnected's bias,
// and a per-channel weight's scales and zero points, by output channel, so
// each holds exactly `channels` (a per-tensor weight one scale and one zero
// point).
void expect_channel_weights(const Node& node, std::int64_t channels) {
  MLX_CHECK_EQ(node.weights[1].num_elements(), channels)
      << op_type_name(node.type) << " '" << node.name
      << "' bias length against its output channels";
  for (const Tensor& w : node.weights) {
    const QuantParams& q = w.quant();
    if (!q.quantized()) continue;
    const std::size_t want =
        q.per_channel() ? static_cast<std::size_t>(channels) : 1;
    MLX_CHECK(q.scales.size() == want && q.zero_points.size() == want)
        << op_type_name(node.type) << " '" << node.name << "' weight holds "
        << q.scales.size() << " scales and " << q.zero_points.size()
        << " zero points for " << channels << " output channels";
  }
}

}  // namespace

void infer_node_output(const Graph& model, Node& node) {
  switch (node.type) {
    case OpType::kInput: {
      MLX_CHECK(node.output_shape.rank() > 0)
          << "input node '" << node.name << "' needs an explicit shape";
      break;
    }
    case OpType::kConv2D: {
      expect_inputs(node, 1);
      expect_weights(node, 2);
      const Node& in = input_node(model, node, 0);
      const Shape& is = in.output_shape;
      const Shape& fs = node.weights[0].shape();  // OHWI
      MLX_CHECK_EQ(is.rank(), 4);
      MLX_CHECK_EQ(fs.rank(), 4);
      MLX_CHECK_EQ(fs.dim(3), is.dim(3))
          << "conv '" << node.name << "' filter in-channels";
      expect_channel_weights(node, fs.dim(0));
      node.output_shape = window_output(node, is, fs.dim(0));
      node.output_dtype = in.output_dtype;
      break;
    }
    case OpType::kDepthwiseConv2D: {
      expect_inputs(node, 1);
      expect_weights(node, 2);
      const Node& in = input_node(model, node, 0);
      const Shape& is = in.output_shape;
      // [1, kh, kw, ch * depth_multiplier]: the trailing filter axis is the
      // output channel count; each input channel fans out to
      // depth_multiplier consecutive outputs (TFLite semantics).
      const Shape& fs = node.weights[0].shape();
      MLX_CHECK_EQ(is.rank(), 4);
      MLX_CHECK(fs.rank() == 4 && fs.dim(0) == 1)
          << "depthwise '" << node.name << "' filter " << fs.to_string()
          << " is not [1, kh, kw, channels]";
      MLX_CHECK(fs.dim(3) % is.dim(3) == 0)
          << "depthwise '" << node.name << "' filter channels (" << fs.dim(3)
          << ") must be a multiple of input channels (" << is.dim(3) << ")";
      expect_channel_weights(node, fs.dim(3));
      node.output_shape = window_output(node, is, fs.dim(3));
      node.output_dtype = in.output_dtype;
      break;
    }
    case OpType::kFullyConnected: {
      expect_inputs(node, 1);
      expect_weights(node, 2);
      const Node& in = input_node(model, node, 0);
      const Shape& ws = node.weights[0].shape();  // [out, in]
      MLX_CHECK_EQ(ws.rank(), 2) << "fc '" << node.name << "' weight rank";
      std::int64_t flat = 1;
      for (int d = 1; d < in.output_shape.rank(); ++d) {
        flat *= in.output_shape.dim(d);
      }
      MLX_CHECK_EQ(ws.dim(1), flat)
          << "fc '" << node.name << "' input size mismatch";
      expect_channel_weights(node, ws.dim(0));
      node.output_shape = Shape{in.output_shape.dim(0), ws.dim(0)};
      node.output_dtype = in.output_dtype;
      break;
    }
    case OpType::kAvgPool2D:
    case OpType::kMaxPool2D: {
      expect_inputs(node, 1);
      const Node& in = input_node(model, node, 0);
      const Shape& is = in.output_shape;
      MLX_CHECK_EQ(is.rank(), 4);
      node.output_shape = window_output(node, is, is.dim(3));
      node.output_dtype = in.output_dtype;
      break;
    }
    case OpType::kMean: {
      expect_inputs(node, 1);
      const Node& in = input_node(model, node, 0);
      const Shape& is = in.output_shape;
      MLX_CHECK_EQ(is.rank(), 4);
      node.output_shape = Shape{is.dim(0), 1, 1, is.dim(3)};
      node.output_dtype = in.output_dtype;
      break;
    }
    case OpType::kPad: {
      expect_inputs(node, 1);
      const Node& in = input_node(model, node, 0);
      const Shape& is = in.output_shape;
      MLX_CHECK_EQ(is.rank(), 4);
      node.output_shape =
          Shape{is.dim(0), is.dim(1) + node.attrs.pad_top + node.attrs.pad_bottom,
                is.dim(2) + node.attrs.pad_left + node.attrs.pad_right,
                is.dim(3)};
      node.output_dtype = in.output_dtype;
      break;
    }
    case OpType::kAdd:
    case OpType::kSub: {
      expect_inputs(node, 2);
      const Node& a = input_node(model, node, 0);
      const Node& b = input_node(model, node, 1);
      // Same shapes, or b = [N,1,1,C] broadcasting over a = [N,H,W,C]
      // (mirrors kMul's squeeze-excite broadcast).
      const bool same = a.output_shape == b.output_shape;
      const bool bcast = a.output_shape.rank() == 4 &&
                         b.output_shape.rank() == 4 &&
                         b.output_shape.dim(0) == a.output_shape.dim(0) &&
                         b.output_shape.dim(1) == 1 &&
                         b.output_shape.dim(2) == 1 &&
                         b.output_shape.dim(3) == a.output_shape.dim(3);
      MLX_CHECK(same || bcast)
          << op_type_name(node.type) << " '" << node.name
          << "' shape mismatch " << a.output_shape.to_string() << " vs "
          << b.output_shape.to_string();
      node.output_shape = a.output_shape;
      node.output_dtype = a.output_dtype;
      break;
    }
    case OpType::kMul: {
      expect_inputs(node, 2);
      const Node& a = input_node(model, node, 0);
      const Node& b = input_node(model, node, 1);
      // b may be [N,1,1,C] broadcasting over a=[N,H,W,C] (squeeze-excite).
      MLX_CHECK_EQ(a.output_shape.rank(), 4);
      MLX_CHECK_EQ(b.output_shape.rank(), 4);
      MLX_CHECK_EQ(a.output_shape.dim(3), b.output_shape.dim(3));
      node.output_shape = a.output_shape;
      node.output_dtype = a.output_dtype;
      break;
    }
    case OpType::kConcat: {
      MLX_CHECK_GE(node.inputs.size(), 2u);
      const Node& first = input_node(model, node, 0);
      Shape out = first.output_shape;
      std::int64_t channels = out.dim(out.rank() - 1);
      for (std::size_t i = 1; i < node.inputs.size(); ++i) {
        const Node& in = input_node(model, node, static_cast<int>(i));
        MLX_CHECK_EQ(in.output_shape.rank(), out.rank());
        for (int d = 0; d < out.rank() - 1; ++d) {
          MLX_CHECK_EQ(in.output_shape.dim(d), out.dim(d))
              << "concat '" << node.name << "' non-channel dim mismatch";
        }
        channels += in.output_shape.dim(out.rank() - 1);
      }
      out.set_dim(out.rank() - 1, channels);
      node.output_shape = out;
      node.output_dtype = first.output_dtype;
      break;
    }
    case OpType::kRelu:
    case OpType::kRelu6:
    case OpType::kHardSwish:
    case OpType::kSigmoid:
    case OpType::kTanh:
    case OpType::kSoftmax: {
      expect_inputs(node, 1);
      const Node& in = input_node(model, node, 0);
      node.output_shape = in.output_shape;
      node.output_dtype = in.output_dtype;
      break;
    }
    case OpType::kReshape: {
      expect_inputs(node, 1);
      const Node& in = input_node(model, node, 0);
      Shape target = node.attrs.reshape_to;
      MLX_CHECK_GT(target.rank(), 0) << "reshape '" << node.name << "'";
      std::int64_t known = 1;
      int infer_at = -1;
      for (int d = 0; d < target.rank(); ++d) {
        if (target.dim(d) == 0) target.set_dim(d, in.output_shape.dim(0));
        if (target.dim(d) == -1) {
          MLX_CHECK_EQ(infer_at, -1) << "multiple -1 dims";
          infer_at = d;
        } else {
          known *= target.dim(d);
        }
      }
      if (infer_at >= 0) {
        target.set_dim(infer_at, in.output_shape.num_elements() / known);
      }
      MLX_CHECK_EQ(target.num_elements(), in.output_shape.num_elements())
          << "reshape '" << node.name << "' element count";
      node.output_shape = target;
      node.output_dtype = in.output_dtype;
      break;
    }
    case OpType::kBatchNorm: {
      expect_inputs(node, 1);
      expect_weights(node, 4);
      const Node& in = input_node(model, node, 0);
      const Shape& is = in.output_shape;
      MLX_CHECK_GT(is.rank(), 0) << "batch_norm '" << node.name << "'";
      // gamma, beta, moving mean and moving variance: one per channel.
      for (const Tensor& w : node.weights) {
        MLX_CHECK_EQ(w.num_elements(), is.dim(is.rank() - 1))
            << "batch_norm '" << node.name
            << "' weight length against its input channels";
      }
      node.output_shape = in.output_shape;
      node.output_dtype = in.output_dtype;
      break;
    }
    case OpType::kQuantize: {
      expect_inputs(node, 1);
      const Node& in = input_node(model, node, 0);
      node.output_shape = in.output_shape;
      node.output_dtype = DType::kI8;
      break;
    }
    case OpType::kDequantize: {
      expect_inputs(node, 1);
      const Node& in = input_node(model, node, 0);
      node.output_shape = in.output_shape;
      node.output_dtype = DType::kF32;
      break;
    }
    case OpType::kEmbedding: {
      expect_inputs(node, 1);
      expect_weights(node, 1);
      const Node& in = input_node(model, node, 0);
      MLX_CHECK_EQ(in.output_shape.rank(), 2);  // [N, L] token ids
      const Shape& ws = node.weights[0].shape();
      node.output_shape =
          Shape{in.output_shape.dim(0), in.output_shape.dim(1), 1, ws.dim(1)};
      node.output_dtype = DType::kF32;
      break;
    }
    case OpType::kUpsampleNearest2x: {
      expect_inputs(node, 1);
      const Node& in = input_node(model, node, 0);
      const Shape& is = in.output_shape;
      MLX_CHECK_EQ(is.rank(), 4);
      node.output_shape = Shape{is.dim(0), is.dim(1) * 2, is.dim(2) * 2, is.dim(3)};
      node.output_dtype = in.output_dtype;
      break;
    }
  }
}

WindowDims window_dims(const Node& node) {
  WindowDims win;
  switch (node.type) {
    case OpType::kConv2D:
    case OpType::kDepthwiseConv2D: {
      expect_weights(node, 2);
      const Shape& fs = node.weights[0].shape();
      win = {static_cast<int>(fs.dim(1)), static_cast<int>(fs.dim(2))};
      break;
    }
    case OpType::kAvgPool2D:
    case OpType::kMaxPool2D:
      win = {node.attrs.filter_h, node.attrs.filter_w};
      break;
    default:
      MLX_FAIL() << op_type_name(node.type) << " '" << node.name
                 << "' has no window";
  }
  MLX_CHECK(win.h > 0 && win.w > 0)
      << op_type_name(node.type) << " '" << node.name << "' window "
      << win.h << "x" << win.w;
  return win;
}

int Graph::add_node(Node node) {
  node.id = static_cast<int>(nodes.size());
  for (int input : node.inputs) {
    MLX_CHECK(input >= 0 && input < node.id)
        << "node '" << node.name << "' references non-topological input "
        << input;
  }
  nodes.push_back(std::move(node));
  infer_node_output(*this, nodes.back());
  return nodes.back().id;
}

std::vector<int> Graph::input_ids() const {
  std::vector<int> ids;
  for (const Node& n : nodes) {
    if (n.type == OpType::kInput) ids.push_back(n.id);
  }
  return ids;
}

void Graph::infer_shapes() {
  for (Node& n : nodes) infer_node_output(*this, n);
}

std::int64_t Graph::num_params() const {
  std::int64_t count = 0;
  for (const Node& n : nodes) {
    for (const Tensor& w : n.weights) count += w.num_elements();
  }
  return count;
}

int Graph::layer_count() const {
  int count = 0;
  for (const Node& n : nodes) {
    if (n.type != OpType::kInput) ++count;
  }
  return count;
}

void Graph::validate() const {
  MLX_CHECK(!nodes.empty()) << "empty model";
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const Node& n = nodes[i];
    MLX_CHECK_EQ(n.id, static_cast<int>(i)) << "node id out of order";
    for (int input : n.inputs) {
      MLX_CHECK(input >= 0 && input < n.id)
          << "node '" << n.name << "' has non-topological input";
    }
  }
  MLX_CHECK(!outputs.empty()) << "model '" << name << "' has no outputs";
  for (int out : outputs) {
    MLX_CHECK(out >= 0 && out < static_cast<int>(nodes.size()));
  }
}

}  // namespace mlexray
