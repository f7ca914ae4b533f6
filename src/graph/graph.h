// Graph IR: a topologically ordered op list with shape inference.
//
// One Graph instance represents one of the paper's "model versions": the
// training checkpoint (with BatchNorm), the converted float inference model,
// or the fully quantized int8 model. The converter and quantizer transform
// between these versions.
#pragma once

#include <string>
#include <vector>

#include "src/graph/input_spec.h"
#include "src/graph/node.h"

namespace mlexray {

class Graph {
 public:
  std::string name;
  InputSpec input_spec;
  std::vector<Node> nodes;   // topological order; node id == index
  std::vector<int> outputs;  // ids of output nodes

  // Appends a node, assigning its id; inputs must reference earlier nodes.
  int add_node(Node node);

  const Node& node(int id) const {
    MLX_CHECK(id >= 0 && id < static_cast<int>(nodes.size()));
    return nodes[static_cast<std::size_t>(id)];
  }
  Node& node(int id) {
    MLX_CHECK(id >= 0 && id < static_cast<int>(nodes.size()));
    return nodes[static_cast<std::size_t>(id)];
  }

  // Ids of kInput nodes, in insertion order.
  std::vector<int> input_ids() const;

  // Runs shape/type inference over all nodes. Throws on malformed graphs.
  void infer_shapes();

  // Number of trainable/constant parameters across all nodes.
  std::int64_t num_params() const;

  // Count of non-input nodes (the paper's "layer #").
  int layer_count() const;

  // Structural + invariant checks (topological inputs, weight arity).
  void validate() const;
};

// Infers the output shape/dtype of one node given its input nodes' results.
// Exposed for the converter and quantizer which rewrite graphs.
void infer_node_output(const Graph& model, Node& node);

// The h x w window a Conv2D, DepthwiseConv2D, AvgPool2D or MaxPool2D node
// slides over its NHWC input, decided by the node alone: the filter's dims
// 1 and 2 for the convs (OHWI or [1, kh, kw, ch]), attrs.filter_h/w for the
// pools. Shape inference and conv_geometry (src/kernels/conv_utils.h) both
// read it here. Throws for any other op or an empty window.
struct WindowDims {
  int h = 1, w = 1;
};
WindowDims window_dims(const Node& node);

}  // namespace mlexray
