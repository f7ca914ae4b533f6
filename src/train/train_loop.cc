#include "src/train/train_loop.h"

#include <numeric>

#include "src/common/rng.h"
#include "src/interpreter/session.h"

namespace mlexray {

namespace {

constexpr std::uint64_t kShuffleSeed = 42;

// Stacks single-sample tensors ([1, ...]) into one [batch, ...] tensor.
Tensor stack_batch(const std::vector<const Tensor*>& samples) {
  MLX_CHECK(!samples.empty());
  const Tensor& first = *samples[0];
  Shape shape = first.shape();
  MLX_CHECK_EQ(shape.dim(0), 1) << "samples must be batch-1 tensors";
  shape.set_dim(0, static_cast<std::int64_t>(samples.size()));
  Tensor out(first.dtype(), shape);
  auto* dst = static_cast<std::uint8_t*>(out.raw_data());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    MLX_CHECK(samples[i]->shape() == first.shape());
    std::memcpy(dst + i * first.byte_size(), samples[i]->raw_data(),
                first.byte_size());
  }
  return out;
}

}  // namespace

double fit_classifier(Graph* model, int logits_node,
                      const std::vector<LabeledExample>& train_set,
                      const FitConfig& config) {
  MLX_CHECK(!train_set.empty());
  const std::int64_t model_batch =
      model->node(model->input_ids()[0]).output_shape.dim(0);
  Trainer trainer(model, config.train);
  Pcg32 rng(kShuffleSeed);
  std::vector<std::size_t> order(train_set.size());
  std::iota(order.begin(), order.end(), 0);
  double epoch_loss = 0.0;
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    rng.shuffle(order);
    epoch_loss = 0.0;
    if (model_batch > 1) {
      // Mini-batch training: pack batch-size samples into one tensor so
      // BatchNorm sees real batch statistics. The tail wraps around.
      const auto batch = static_cast<std::size_t>(model_batch);
      std::size_t batches = (order.size() + batch - 1) / batch;
      for (std::size_t bi = 0; bi < batches; ++bi) {
        std::vector<const Tensor*> samples;
        std::vector<int> labels;
        for (std::size_t k = 0; k < batch; ++k) {
          std::size_t idx = order[(bi * batch + k) % order.size()];
          samples.push_back(&train_set[idx].input);
          labels.push_back(train_set[idx].label);
        }
        Tensor packed = stack_batch(samples);
        trainer.zero_grad();
        trainer.forward({packed});
        LossGrad lg = softmax_cross_entropy_rows(
            trainer.activation(logits_node), labels);
        epoch_loss += lg.loss;
        std::vector<std::pair<int, Tensor>> seeds;
        seeds.emplace_back(logits_node, std::move(lg.grad));
        trainer.backward(seeds);
        trainer.step();
      }
      epoch_loss /= static_cast<double>(batches);
    } else {
      // Per-sample training with gradient accumulation.
      trainer.zero_grad();
      int in_batch = 0;
      for (std::size_t idx : order) {
        const LabeledExample& ex = train_set[idx];
        epoch_loss += trainer.train_sample({ex.input}, logits_node, ex.label);
        if (++in_batch == config.batch_size) {
          trainer.step();
          in_batch = 0;
        }
      }
      if (in_batch > 0) trainer.step();
      epoch_loss /= static_cast<double>(train_set.size());
    }
  }
  return epoch_loss;
}

int argmax(const Tensor& tensor) {
  Tensor f = tensor.to_f32();
  const float* p = f.data<float>();
  int best = 0;
  for (std::int64_t i = 1; i < f.num_elements(); ++i) {
    if (p[i] > p[best]) best = static_cast<int>(i);
  }
  return best;
}

double evaluate_classifier(const Graph& graph, const OpResolver& resolver,
                           const std::vector<LabeledExample>& examples,
                           int num_threads) {
  MLX_CHECK(!examples.empty());
  Model model(&graph, &resolver, num_threads);
  Session session(&model);
  int correct = 0;
  for (const LabeledExample& ex : examples) {
    session.set_input(0, ex.input);
    session.invoke();
    if (argmax(session.output(0)) == ex.label) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(examples.size());
}

}  // namespace mlexray
