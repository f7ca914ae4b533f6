// Reverse-mode training on the graph IR.
//
// The "training pipeline" substrate the paper's reference baselines come
// from. Forward runs the optimized float kernels through an ExecutionPlan
// prepared over the current weights on every call (BatchNorm runs in
// training mode with batch statistics inside the trainer); backward
// implements per-op gradients; Adam updates weights in place.
//
// Training graphs use standalone activation nodes (no fused activations) —
// fusion happens later in the converter, mirroring the paper's deployment
// flow (checkpoint -> converted -> quantized).
#pragma once

#include <memory>
#include <vector>

#include "src/graph/graph.h"
#include "src/interpreter/execution_plan.h"
#include "src/train/losses.h"

namespace mlexray {

struct TrainConfig {
  float learning_rate = 1e-3f;
  int num_threads = 1;
};

class Trainer {
 public:
  // model must outlive the trainer; weights are updated in place.
  Trainer(Graph* model, TrainConfig config);

  // Clears accumulated gradients (call at the start of each mini-batch).
  void zero_grad();

  // Forward pass on one sample (inputs in model-input order). Prepares a
  // plan over the current weights, so in-place weight edits take effect.
  void forward(const std::vector<Tensor>& inputs);

  // Seeds dL/d(activation) at the given nodes and backpropagates,
  // accumulating weight gradients. Call after forward().
  void backward(const std::vector<std::pair<int, Tensor>>& output_grads);

  // Convenience: forward + softmax-xent on `logits_node` + backward.
  // Returns the sample loss.
  double train_sample(const std::vector<Tensor>& inputs, int logits_node,
                      int label);

  // Adam step with gradients averaged over the accumulated samples.
  void step();

  const Tensor& activation(int node_id) const;

  // Accumulated gradient of a node's weight (diagnostics / gradient checks).
  const Tensor& weight_grad(int node_id, std::size_t weight_index) const;

  Graph& model() { return *model_; }

 private:
  void forward_batch_norm(const Node& node);
  void backward_node(const Node& node);

  Graph* model_;
  TrainConfig cfg_;
  BuiltinOpResolver resolver_;
  // Trainer-owned worker set honoring cfg_.num_threads as a hard cap (null
  // view when num_threads <= 1); independent of any serving pool. Each
  // forward's plan hands it to the steps whose MACs pay for a fan-out.
  std::unique_ptr<ThreadPool> owned_pool_;
  PoolRef pool_;
  ScratchArena arena_;  // scratch for the optimized forward kernels

  std::vector<Tensor> acts_;                 // forward activations per node
  std::vector<Tensor> grads_;                // dL/d(activation) per node
  std::vector<std::vector<Tensor>> wgrads_;  // accumulated weight grads
  std::vector<std::vector<Tensor>> adam_m_;
  std::vector<std::vector<Tensor>> adam_v_;

  struct BnCache {
    std::vector<float> mean;
    std::vector<float> inv_std;
  };
  std::vector<BnCache> bn_cache_;

  int accum_count_ = 0;
  long step_count_ = 0;
};

// Copies weights (and BN stats) from one model to a structurally identical
// one (used to move trained weights between graph variants).
void copy_weights(const Graph& src, Graph* dst);

}  // namespace mlexray
