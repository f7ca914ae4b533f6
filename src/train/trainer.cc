#include "src/train/trainer.h"

#include <cmath>
#include <cstring>

#include "src/kernels/conv_utils.h"

namespace mlexray {

namespace {
// Adam hyperparameters.
constexpr float kAdamBeta1 = 0.9f;
constexpr float kAdamBeta2 = 0.999f;
constexpr float kAdamEps = 1e-8f;
// Moving-average retention for BatchNorm statistics.
constexpr float kBnMomentum = 0.9f;
}  // namespace

Trainer::Trainer(Graph* model, TrainConfig config)
    : model_(model), cfg_(config) {
  MLX_CHECK(model != nullptr);
  model_->validate();
  if (cfg_.num_threads > 1) {
    // num_threads is a cap that holds exactly: the training thread plus at
    // most num_threads - 1 owned workers (clamped to the host's spare
    // cores), never the whole machine.
    owned_pool_ = std::make_unique<ThreadPool>(
        ThreadPool::workers_for(cfg_.num_threads));
    pool_ = PoolRef(owned_pool_.get(),
                    static_cast<std::size_t>(cfg_.num_threads));
  }
  acts_.reserve(model_->nodes.size());
  for (const Node& n : model_->nodes) {
    MLX_CHECK(n.output_dtype == DType::kF32 || n.type == OpType::kInput)
        << "training requires float graphs (node '" << n.name << "')";
    if (n.type == OpType::kConv2D || n.type == OpType::kDepthwiseConv2D ||
        n.type == OpType::kFullyConnected || n.type == OpType::kAdd) {
      MLX_CHECK(n.attrs.activation == Activation::kNone)
          << "training graphs must use standalone activations ('" << n.name
          << "')";
    }
    acts_.emplace_back(n.output_dtype, n.output_shape);
    grads_.emplace_back(DType::kF32, n.output_shape);
  }
  wgrads_.resize(model_->nodes.size());
  adam_m_.resize(model_->nodes.size());
  adam_v_.resize(model_->nodes.size());
  bn_cache_.resize(model_->nodes.size());
  for (const Node& n : model_->nodes) {
    auto idx = static_cast<std::size_t>(n.id);
    for (const Tensor& w : n.weights) {
      wgrads_[idx].emplace_back(DType::kF32, w.shape());
      adam_m_[idx].emplace_back(DType::kF32, w.shape());
      adam_v_[idx].emplace_back(DType::kF32, w.shape());
    }
  }
}

void Trainer::zero_grad() {
  for (auto& per_node : wgrads_) {
    for (Tensor& g : per_node) g.fill_zero();
  }
  accum_count_ = 0;
}

void Trainer::forward_batch_norm(const Node& node) {
  // Training-mode BN: batch statistics over (N,H,W) per channel; updates
  // moving stats. With per-sample training, spatial positions provide the
  // statistics.
  const Tensor& in = acts_[static_cast<std::size_t>(node.inputs[0])];
  Tensor& out = acts_[static_cast<std::size_t>(node.id)];
  Node& n = model_->node(node.id);
  const Shape& is = in.shape();
  const std::int64_t ch = is.dim(is.rank() - 1);
  const std::int64_t rows = is.num_elements() / ch;
  const float* x = in.data<float>();
  float* y = out.data<float>();
  const float* gamma = n.weights[0].data<float>();
  const float* beta = n.weights[1].data<float>();
  float* moving_mean = n.weights[2].data<float>();
  float* moving_var = n.weights[3].data<float>();

  BnCache& cache = bn_cache_[static_cast<std::size_t>(node.id)];
  cache.mean.assign(static_cast<std::size_t>(ch), 0.0f);
  cache.inv_std.assign(static_cast<std::size_t>(ch), 0.0f);

  for (std::int64_t c = 0; c < ch; ++c) {
    double sum = 0.0;
    double sum_sq = 0.0;
    for (std::int64_t r = 0; r < rows; ++r) {
      double v = x[r * ch + c];
      sum += v;
      sum_sq += v * v;
    }
    double mean = sum / static_cast<double>(rows);
    double var = std::max(0.0, sum_sq / static_cast<double>(rows) - mean * mean);
    double inv_std = 1.0 / std::sqrt(var + n.attrs.epsilon);
    cache.mean[static_cast<std::size_t>(c)] = static_cast<float>(mean);
    cache.inv_std[static_cast<std::size_t>(c)] = static_cast<float>(inv_std);
    for (std::int64_t r = 0; r < rows; ++r) {
      y[r * ch + c] = static_cast<float>(
          gamma[c] * (x[r * ch + c] - mean) * inv_std + beta[c]);
    }
    moving_mean[c] = kBnMomentum * moving_mean[c] +
                     (1.0f - kBnMomentum) * static_cast<float>(mean);
    moving_var[c] = kBnMomentum * moving_var[c] +
                    (1.0f - kBnMomentum) * static_cast<float>(var);
  }
}

void Trainer::forward(const std::vector<Tensor>& inputs) {
  std::vector<int> input_ids = model_->input_ids();
  MLX_CHECK_EQ(inputs.size(), input_ids.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    Tensor& slot = acts_[static_cast<std::size_t>(input_ids[i])];
    MLX_CHECK(inputs[i].shape() == slot.shape());
    MLX_CHECK(inputs[i].dtype() == slot.dtype());
    std::memcpy(slot.raw_data(), inputs[i].raw_data(), inputs[i].byte_size());
  }
  // Weights change between forwards (Adam steps, gradient checks editing
  // them in place), so each forward prepares a fresh plan over the current
  // weights: kernels with a prepare hook only ever run on prepared storage.
  const ExecutionPlan plan(*model_, resolver_, pool_);
  for (const PlanStep& step : plan.steps()) {
    const Node& n = *step.node;
    if (n.type == OpType::kBatchNorm) {
      forward_batch_norm(n);
      continue;
    }
    KernelContext ctx;
    ctx.node = &n;
    ctx.output = &acts_[static_cast<std::size_t>(n.id)];
    ctx.pool = step.pool;
    arena_.reset();
    ctx.arena = &arena_;
    ctx.prepared = step.prepared;
    for (int in : n.inputs) ctx.inputs.push_back(&acts_[static_cast<std::size_t>(in)]);
    step.kernel->invoke(ctx);
  }
}

void Trainer::backward_node(const Node& node) {
  const auto id = static_cast<std::size_t>(node.id);
  const Tensor& gy = grads_[id];
  switch (node.type) {
    case OpType::kInput:
      return;
    case OpType::kConv2D: {
      const auto in_id = static_cast<std::size_t>(node.inputs[0]);
      const Tensor& x = acts_[in_id];
      Tensor& gx = grads_[in_id];
      const Tensor& w = node.weights[0];
      Tensor& gw = wgrads_[id][0];
      Tensor& gb = wgrads_[id][1];
      const ConvGeometry g = conv_geometry(node, x.shape(), node.output_shape);
      const std::int64_t in_ch = g.in_ch;
      const float* px = x.data<float>();
      const float* pw = w.data<float>();
      const float* pgy = gy.data<float>();
      float* pgx = gx.data<float>();
      float* pgw = gw.data<float>();
      float* pgb = gb.data<float>();
      for (std::int64_t n = 0; n < g.batch; ++n) {
        for (std::int64_t oy = 0; oy < g.out_h; ++oy) {
          for (std::int64_t ox = 0; ox < g.out_w; ++ox) {
            const WindowBox box = g.window(oy, ox);
            for (std::int64_t oc = 0; oc < g.out_ch; ++oc) {
              float grad =
                  pgy[((n * g.out_h + oy) * g.out_w + ox) * g.out_ch + oc];
              if (grad == 0.0f) continue;
              pgb[oc] += grad;
              for (std::int64_t iy = box.y0; iy < box.y1; ++iy) {
                for (std::int64_t ix = box.x0; ix < box.x1; ++ix) {
                  const std::int64_t xoff =
                      ((n * g.in_h + iy) * g.in_w + ix) * in_ch;
                  const std::int64_t woff =
                      ((oc * g.kh + box.fy(iy)) * g.kw + box.fx(ix)) * in_ch;
                  for (std::int64_t ic = 0; ic < in_ch; ++ic) {
                    pgw[woff + ic] += grad * px[xoff + ic];
                    pgx[xoff + ic] += grad * pw[woff + ic];
                  }
                }
              }
            }
          }
        }
      }
      break;
    }
    case OpType::kDepthwiseConv2D: {
      const auto in_id = static_cast<std::size_t>(node.inputs[0]);
      const Tensor& x = acts_[in_id];
      Tensor& gx = grads_[in_id];
      const Tensor& w = node.weights[0];
      Tensor& gw = wgrads_[id][0];
      Tensor& gb = wgrads_[id][1];
      const ConvGeometry g = conv_geometry(node, x.shape(), node.output_shape);
      const std::int64_t ch = g.in_ch;
      MLX_CHECK_EQ(g.depth_mult, 1)
          << "trainer DepthwiseConv2D supports depth_multiplier == 1 only ('"
          << node.name << "')";
      const float* px = x.data<float>();
      const float* pw = w.data<float>();
      const float* pgy = gy.data<float>();
      float* pgx = gx.data<float>();
      float* pgw = gw.data<float>();
      float* pgb = gb.data<float>();
      for (std::int64_t n = 0; n < g.batch; ++n) {
        for (std::int64_t oy = 0; oy < g.out_h; ++oy) {
          for (std::int64_t ox = 0; ox < g.out_w; ++ox) {
            const WindowBox box = g.window(oy, ox);
            for (std::int64_t c = 0; c < ch; ++c) {
              float grad = pgy[((n * g.out_h + oy) * g.out_w + ox) * ch + c];
              if (grad == 0.0f) continue;
              pgb[c] += grad;
              for (std::int64_t iy = box.y0; iy < box.y1; ++iy) {
                for (std::int64_t ix = box.x0; ix < box.x1; ++ix) {
                  const std::int64_t xoff =
                      ((n * g.in_h + iy) * g.in_w + ix) * ch + c;
                  const std::int64_t woff =
                      (std::int64_t{box.fy(iy)} * g.kw + box.fx(ix)) * ch + c;
                  pgw[woff] += grad * px[xoff];
                  pgx[xoff] += grad * pw[woff];
                }
              }
            }
          }
        }
      }
      break;
    }
    case OpType::kFullyConnected: {
      const auto in_id = static_cast<std::size_t>(node.inputs[0]);
      const Tensor& x = acts_[in_id];
      Tensor& gx = grads_[in_id];
      const Tensor& w = node.weights[0];
      Tensor& gw = wgrads_[id][0];
      Tensor& gb = wgrads_[id][1];
      const std::int64_t batch = node.output_shape.dim(0);
      const std::int64_t out_dim = w.shape().dim(0);
      const std::int64_t in_dim = w.shape().dim(1);
      const float* px = x.data<float>();
      const float* pw = w.data<float>();
      const float* pgy = gy.data<float>();
      float* pgx = gx.data<float>();
      float* pgw = gw.data<float>();
      float* pgb = gb.data<float>();
      for (std::int64_t n = 0; n < batch; ++n) {
        for (std::int64_t o = 0; o < out_dim; ++o) {
          float grad = pgy[n * out_dim + o];
          if (grad == 0.0f) continue;
          pgb[o] += grad;
          for (std::int64_t i = 0; i < in_dim; ++i) {
            pgw[o * in_dim + i] += grad * px[n * in_dim + i];
            pgx[n * in_dim + i] += grad * pw[o * in_dim + i];
          }
        }
      }
      break;
    }
    case OpType::kAvgPool2D: {
      const auto in_id = static_cast<std::size_t>(node.inputs[0]);
      Tensor& gx = grads_[in_id];
      const ConvGeometry g =
          conv_geometry(node, acts_[in_id].shape(), node.output_shape);
      const std::int64_t ch = g.in_ch;
      const float* pgy = gy.data<float>();
      float* pgx = gx.data<float>();
      for (std::int64_t n = 0; n < g.batch; ++n) {
        for (std::int64_t oy = 0; oy < g.out_h; ++oy) {
          for (std::int64_t ox = 0; ox < g.out_w; ++ox) {
            const WindowBox box = g.window(oy, ox);
            for (std::int64_t c = 0; c < ch; ++c) {
              float grad =
                  pgy[((n * g.out_h + oy) * g.out_w + ox) * ch + c] /
                  static_cast<float>(box.area());
              for (std::int64_t iy = box.y0; iy < box.y1; ++iy) {
                for (std::int64_t ix = box.x0; ix < box.x1; ++ix) {
                  pgx[((n * g.in_h + iy) * g.in_w + ix) * ch + c] += grad;
                }
              }
            }
          }
        }
      }
      break;
    }
    case OpType::kMaxPool2D: {
      const auto in_id = static_cast<std::size_t>(node.inputs[0]);
      const Tensor& x = acts_[in_id];
      Tensor& gx = grads_[in_id];
      const Tensor& y = acts_[id];
      const ConvGeometry g = conv_geometry(node, x.shape(), node.output_shape);
      const std::int64_t ch = g.in_ch;
      const float* px = x.data<float>();
      const float* py = y.data<float>();
      const float* pgy = gy.data<float>();
      float* pgx = gx.data<float>();
      for (std::int64_t n = 0; n < g.batch; ++n) {
        for (std::int64_t oy = 0; oy < g.out_h; ++oy) {
          for (std::int64_t ox = 0; ox < g.out_w; ++ox) {
            const WindowBox box = g.window(oy, ox);
            for (std::int64_t c = 0; c < ch; ++c) {
              float grad = pgy[((n * g.out_h + oy) * g.out_w + ox) * ch + c];
              if (grad == 0.0f) continue;
              float max_v = py[((n * g.out_h + oy) * g.out_w + ox) * ch + c];
              // The gradient goes to the first tap, in (fy, fx) order, that
              // holds the max.
              bool routed = false;
              for (std::int64_t iy = box.y0; iy < box.y1 && !routed; ++iy) {
                for (std::int64_t ix = box.x0; ix < box.x1 && !routed; ++ix) {
                  const std::int64_t off =
                      ((n * g.in_h + iy) * g.in_w + ix) * ch + c;
                  if (px[off] == max_v) {
                    pgx[off] += grad;
                    routed = true;
                  }
                }
              }
            }
          }
        }
      }
      break;
    }
    case OpType::kMean: {
      const auto in_id = static_cast<std::size_t>(node.inputs[0]);
      Tensor& gx = grads_[in_id];
      const Shape& is = acts_[in_id].shape();
      const std::int64_t hw = is.dim(1) * is.dim(2);
      const std::int64_t ch = is.dim(3);
      const float* pgy = gy.data<float>();
      float* pgx = gx.data<float>();
      for (std::int64_t n = 0; n < is.dim(0); ++n) {
        for (std::int64_t p = 0; p < hw; ++p) {
          for (std::int64_t c = 0; c < ch; ++c) {
            pgx[(n * hw + p) * ch + c] +=
                pgy[n * ch + c] / static_cast<float>(hw);
          }
        }
      }
      break;
    }
    case OpType::kPad: {
      const auto in_id = static_cast<std::size_t>(node.inputs[0]);
      Tensor& gx = grads_[in_id];
      const Shape& is = acts_[in_id].shape();
      const Shape& os = node.output_shape;
      const float* pgy = gy.data<float>();
      float* pgx = gx.data<float>();
      for (std::int64_t n = 0; n < is.dim(0); ++n) {
        for (std::int64_t h = 0; h < is.dim(1); ++h) {
          for (std::int64_t w = 0; w < is.dim(2); ++w) {
            for (std::int64_t c = 0; c < is.dim(3); ++c) {
              pgx[((n * is.dim(1) + h) * is.dim(2) + w) * is.dim(3) + c] +=
                  pgy[((n * os.dim(1) + h + node.attrs.pad_top) * os.dim(2) + w +
                       node.attrs.pad_left) * os.dim(3) + c];
            }
          }
        }
      }
      break;
    }
    case OpType::kAdd: {
      for (int input : node.inputs) {
        Tensor& gx = grads_[static_cast<std::size_t>(input)];
        float* pgx = gx.data<float>();
        const float* pgy = gy.data<float>();
        for (std::int64_t i = 0; i < gy.num_elements(); ++i) pgx[i] += pgy[i];
      }
      break;
    }
    case OpType::kSub: {
      const float* pgy = gy.data<float>();
      float* pga = grads_[static_cast<std::size_t>(node.inputs[0])].data<float>();
      float* pgb = grads_[static_cast<std::size_t>(node.inputs[1])].data<float>();
      for (std::int64_t i = 0; i < gy.num_elements(); ++i) {
        pga[i] += pgy[i];
        pgb[i] -= pgy[i];
      }
      break;
    }
    case OpType::kMul: {
      const auto a_id = static_cast<std::size_t>(node.inputs[0]);
      const auto b_id = static_cast<std::size_t>(node.inputs[1]);
      const Tensor& a = acts_[a_id];
      const Tensor& b = acts_[b_id];
      float* pga = grads_[a_id].data<float>();
      float* pgb = grads_[b_id].data<float>();
      const float* pa = a.data<float>();
      const float* pb = b.data<float>();
      const float* pgy = gy.data<float>();
      if (a.shape() == b.shape()) {
        for (std::int64_t i = 0; i < gy.num_elements(); ++i) {
          pga[i] += pgy[i] * pb[i];
          pgb[i] += pgy[i] * pa[i];
        }
      } else {
        const Shape& as = a.shape();
        const std::int64_t hw = as.dim(1) * as.dim(2);
        const std::int64_t ch = as.dim(3);
        for (std::int64_t n = 0; n < as.dim(0); ++n) {
          for (std::int64_t p = 0; p < hw; ++p) {
            for (std::int64_t c = 0; c < ch; ++c) {
              const std::int64_t off = (n * hw + p) * ch + c;
              pga[off] += pgy[off] * pb[n * ch + c];
              pgb[n * ch + c] += pgy[off] * pa[off];
            }
          }
        }
      }
      break;
    }
    case OpType::kConcat: {
      const Shape& os = node.output_shape;
      const std::int64_t out_ch = os.dim(os.rank() - 1);
      std::int64_t outer = os.num_elements() / out_ch;
      const float* pgy = gy.data<float>();
      std::int64_t ch_offset = 0;
      for (int input : node.inputs) {
        Tensor& gx = grads_[static_cast<std::size_t>(input)];
        const Shape& is = acts_[static_cast<std::size_t>(input)].shape();
        const std::int64_t in_ch = is.dim(is.rank() - 1);
        float* pgx = gx.data<float>();
        for (std::int64_t row = 0; row < outer; ++row) {
          for (std::int64_t c = 0; c < in_ch; ++c) {
            pgx[row * in_ch + c] += pgy[row * out_ch + ch_offset + c];
          }
        }
        ch_offset += in_ch;
      }
      break;
    }
    case OpType::kRelu:
    case OpType::kRelu6: {
      const auto in_id = static_cast<std::size_t>(node.inputs[0]);
      const float* px = acts_[in_id].data<float>();
      float* pgx = grads_[in_id].data<float>();
      const float* pgy = gy.data<float>();
      const float hi = node.type == OpType::kRelu6 ? 6.0f : 3.4e38f;
      for (std::int64_t i = 0; i < gy.num_elements(); ++i) {
        if (px[i] > 0.0f && px[i] < hi) pgx[i] += pgy[i];
      }
      break;
    }
    case OpType::kHardSwish: {
      const auto in_id = static_cast<std::size_t>(node.inputs[0]);
      const float* px = acts_[in_id].data<float>();
      float* pgx = grads_[in_id].data<float>();
      const float* pgy = gy.data<float>();
      for (std::int64_t i = 0; i < gy.num_elements(); ++i) {
        float x = px[i];
        float d = x <= -3.0f ? 0.0f : (x >= 3.0f ? 1.0f : (2.0f * x + 3.0f) / 6.0f);
        pgx[i] += pgy[i] * d;
      }
      break;
    }
    case OpType::kSigmoid: {
      const auto in_id = static_cast<std::size_t>(node.inputs[0]);
      const float* py = acts_[id].data<float>();
      float* pgx = grads_[in_id].data<float>();
      const float* pgy = gy.data<float>();
      for (std::int64_t i = 0; i < gy.num_elements(); ++i) {
        pgx[i] += pgy[i] * py[i] * (1.0f - py[i]);
      }
      break;
    }
    case OpType::kTanh: {
      const auto in_id = static_cast<std::size_t>(node.inputs[0]);
      const float* py = acts_[id].data<float>();
      float* pgx = grads_[in_id].data<float>();
      const float* pgy = gy.data<float>();
      for (std::int64_t i = 0; i < gy.num_elements(); ++i) {
        pgx[i] += pgy[i] * (1.0f - py[i] * py[i]);
      }
      break;
    }
    case OpType::kSoftmax: {
      const auto in_id = static_cast<std::size_t>(node.inputs[0]);
      const Tensor& y = acts_[id];
      const Shape& s = y.shape();
      const std::int64_t ch = s.dim(s.rank() - 1);
      const std::int64_t rows = y.num_elements() / ch;
      const float* py = y.data<float>();
      const float* pgy = gy.data<float>();
      float* pgx = grads_[in_id].data<float>();
      for (std::int64_t r = 0; r < rows; ++r) {
        double dot = 0.0;
        for (std::int64_t c = 0; c < ch; ++c) dot += static_cast<double>(pgy[r * ch + c]) * py[r * ch + c];
        for (std::int64_t c = 0; c < ch; ++c) {
          pgx[r * ch + c] += static_cast<float>(
              py[r * ch + c] * (pgy[r * ch + c] - dot));
        }
      }
      break;
    }
    case OpType::kReshape: {
      const auto in_id = static_cast<std::size_t>(node.inputs[0]);
      float* pgx = grads_[in_id].data<float>();
      const float* pgy = gy.data<float>();
      for (std::int64_t i = 0; i < gy.num_elements(); ++i) pgx[i] += pgy[i];
      break;
    }
    case OpType::kBatchNorm: {
      const auto in_id = static_cast<std::size_t>(node.inputs[0]);
      const Tensor& x = acts_[in_id];
      Tensor& gx = grads_[in_id];
      const Node& n = node;
      const BnCache& cache = bn_cache_[id];
      const Shape& is = x.shape();
      const std::int64_t ch = is.dim(is.rank() - 1);
      const std::int64_t rows = is.num_elements() / ch;
      const float* px = x.data<float>();
      const float* pgy = gy.data<float>();
      float* pgx = gx.data<float>();
      const float* gamma = n.weights[0].data<float>();
      float* ggamma = wgrads_[id][0].data<float>();
      float* gbeta = wgrads_[id][1].data<float>();
      for (std::int64_t c = 0; c < ch; ++c) {
        const float mean = cache.mean[static_cast<std::size_t>(c)];
        const float inv_std = cache.inv_std[static_cast<std::size_t>(c)];
        double sum_gy = 0.0;
        double sum_gy_xhat = 0.0;
        for (std::int64_t r = 0; r < rows; ++r) {
          float xhat = (px[r * ch + c] - mean) * inv_std;
          sum_gy += pgy[r * ch + c];
          sum_gy_xhat += static_cast<double>(pgy[r * ch + c]) * xhat;
        }
        ggamma[c] += static_cast<float>(sum_gy_xhat);
        gbeta[c] += static_cast<float>(sum_gy);
        const double inv_rows = 1.0 / static_cast<double>(rows);
        for (std::int64_t r = 0; r < rows; ++r) {
          float xhat = (px[r * ch + c] - mean) * inv_std;
          double dx = gamma[c] * inv_std *
                      (pgy[r * ch + c] - sum_gy * inv_rows -
                       xhat * sum_gy_xhat * inv_rows);
          pgx[r * ch + c] += static_cast<float>(dx);
        }
      }
      break;
    }
    case OpType::kEmbedding: {
      const auto in_id = static_cast<std::size_t>(node.inputs[0]);
      const Tensor& ids = acts_[in_id];
      Tensor& gtab = wgrads_[id][0];
      const std::int32_t* pid = ids.data<std::int32_t>();
      const float* pgy = gy.data<float>();
      float* pg = gtab.data<float>();
      const std::int64_t dim = node.weights[0].shape().dim(1);
      for (std::int64_t i = 0; i < ids.num_elements(); ++i) {
        for (std::int64_t d = 0; d < dim; ++d) {
          pg[pid[i] * dim + d] += pgy[i * dim + d];
        }
      }
      break;
    }
    case OpType::kUpsampleNearest2x: {
      const auto in_id = static_cast<std::size_t>(node.inputs[0]);
      Tensor& gx = grads_[in_id];
      const Shape& is = acts_[in_id].shape();
      const Shape& os = node.output_shape;
      const float* pgy = gy.data<float>();
      float* pgx = gx.data<float>();
      const std::int64_t ch = is.dim(3);
      for (std::int64_t n = 0; n < is.dim(0); ++n) {
        for (std::int64_t y2 = 0; y2 < os.dim(1); ++y2) {
          for (std::int64_t x2 = 0; x2 < os.dim(2); ++x2) {
            for (std::int64_t c = 0; c < ch; ++c) {
              pgx[((n * is.dim(1) + y2 / 2) * is.dim(2) + x2 / 2) * ch + c] +=
                  pgy[((n * os.dim(1) + y2) * os.dim(2) + x2) * ch + c];
            }
          }
        }
      }
      break;
    }
    case OpType::kQuantize:
    case OpType::kDequantize:
      MLX_FAIL() << "quantized ops are not trainable";
  }
}

void Trainer::backward(
    const std::vector<std::pair<int, Tensor>>& output_grads) {
  for (Tensor& g : grads_) g.fill_zero();
  for (const auto& [node_id, grad] : output_grads) {
    Tensor& slot = grads_[static_cast<std::size_t>(node_id)];
    MLX_CHECK(grad.shape().num_elements() == slot.num_elements());
    const float* src = grad.data<float>();
    float* dst = slot.data<float>();
    for (std::int64_t i = 0; i < slot.num_elements(); ++i) dst[i] += src[i];
  }
  for (auto it = model_->nodes.rbegin(); it != model_->nodes.rend(); ++it) {
    backward_node(*it);
  }
  ++accum_count_;
}

double Trainer::train_sample(const std::vector<Tensor>& inputs,
                             int logits_node, int label) {
  forward(inputs);
  LossGrad lg = softmax_cross_entropy(acts_[static_cast<std::size_t>(logits_node)], label);
  std::vector<std::pair<int, Tensor>> seeds;
  seeds.emplace_back(logits_node, std::move(lg.grad));
  backward(seeds);
  return lg.loss;
}

void Trainer::step() {
  MLX_CHECK_GT(accum_count_, 0) << "step() without accumulated gradients";
  ++step_count_;
  const double bias1 = 1.0 - std::pow(kAdamBeta1, static_cast<double>(step_count_));
  const double bias2 = 1.0 - std::pow(kAdamBeta2, static_cast<double>(step_count_));
  const float scale = 1.0f / static_cast<float>(accum_count_);
  for (Node& n : model_->nodes) {
    const auto id = static_cast<std::size_t>(n.id);
    for (std::size_t wi = 0; wi < n.weights.size(); ++wi) {
      // BN moving stats (weights 2,3) are not gradient-trained.
      if (n.type == OpType::kBatchNorm && wi >= 2) continue;
      Tensor& w = n.weights[wi];
      if (w.dtype() != DType::kF32) continue;
      float* pw = w.data<float>();
      const float* pg = wgrads_[id][wi].data<float>();
      float* pm = adam_m_[id][wi].data<float>();
      float* pv = adam_v_[id][wi].data<float>();
      for (std::int64_t i = 0; i < w.num_elements(); ++i) {
        float g = pg[i] * scale;
        pm[i] = kAdamBeta1 * pm[i] + (1.0f - kAdamBeta1) * g;
        pv[i] = kAdamBeta2 * pv[i] + (1.0f - kAdamBeta2) * g * g;
        double mhat = pm[i] / bias1;
        double vhat = pv[i] / bias2;
        pw[i] -= static_cast<float>(cfg_.learning_rate * mhat /
                                    (std::sqrt(vhat) + kAdamEps));
      }
    }
  }
  zero_grad();
}

const Tensor& Trainer::activation(int node_id) const {
  return acts_[static_cast<std::size_t>(node_id)];
}

const Tensor& Trainer::weight_grad(int node_id,
                                   std::size_t weight_index) const {
  return wgrads_.at(static_cast<std::size_t>(node_id)).at(weight_index);
}

void copy_weights(const Graph& src, Graph* dst) {
  MLX_CHECK_EQ(src.nodes.size(), dst->nodes.size());
  for (std::size_t i = 0; i < src.nodes.size(); ++i) {
    const Node& s = src.nodes[i];
    Node& d = dst->nodes[i];
    MLX_CHECK(s.type == d.type) << "graph mismatch at node " << i;
    MLX_CHECK_EQ(s.weights.size(), d.weights.size());
    for (std::size_t w = 0; w < s.weights.size(); ++w) {
      MLX_CHECK(s.weights[w].shape() == d.weights[w].shape());
      d.weights[w] = s.weights[w];
    }
  }
}

}  // namespace mlexray
