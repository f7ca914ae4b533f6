// High-level training/evaluation loops for classification-style tasks.
#pragma once

#include <vector>

#include "src/train/trainer.h"

namespace mlexray {

struct LabeledExample {
  Tensor input;
  int label = 0;
};

struct FitConfig {
  int epochs = 5;
  int batch_size = 16;  // gradient-accumulation granularity
  TrainConfig train;
};

// Trains `model` in place with softmax-xent on `logits_node`.
// Returns the final-epoch average training loss.
double fit_classifier(Graph* model, int logits_node,
                      const std::vector<LabeledExample>& train_set,
                      const FitConfig& config);

// Top-1 accuracy of a model on examples (argmax of output 0, which may be
// float logits/probabilities or a quantized tensor — dequantized first).
double evaluate_classifier(const Graph& graph, const OpResolver& resolver,
                           const std::vector<LabeledExample>& examples,
                           int num_threads = 1);

// Argmax over the innermost axis of a (dequantized) tensor.
int argmax(const Tensor& tensor);

}  // namespace mlexray
