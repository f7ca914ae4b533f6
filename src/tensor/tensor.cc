#include "src/tensor/tensor.h"

#include "src/tensor/alloc_stats.h"

namespace mlexray {

Tensor::Tensor(DType dtype, Shape shape) : dtype_(dtype), shape_(shape) {
  allocate();
}

Tensor::Tensor(const Tensor& other)
    : dtype_(other.dtype_),
      shape_(other.shape_),
      buffer_(other.buffer_),
      quant_(other.quant_) {
  AllocStats::instance().add(buffer_.size());
}

Tensor::Tensor(Tensor&& other) noexcept
    : dtype_(other.dtype_),
      shape_(other.shape_),
      buffer_(std::move(other.buffer_)),
      quant_(std::move(other.quant_)) {
  other.shape_ = Shape();
}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this == &other) return *this;
  release();
  dtype_ = other.dtype_;
  shape_ = other.shape_;
  buffer_ = other.buffer_;
  quant_ = other.quant_;
  AllocStats::instance().add(buffer_.size());
  return *this;
}

Tensor& Tensor::operator=(Tensor&& other) noexcept {
  if (this == &other) return *this;
  release();
  dtype_ = other.dtype_;
  shape_ = other.shape_;
  buffer_ = std::move(other.buffer_);
  quant_ = std::move(other.quant_);
  other.shape_ = Shape();
  return *this;
}

Tensor::~Tensor() { release(); }

void Tensor::allocate() {
  std::size_t bytes =
      static_cast<std::size_t>(shape_.num_elements()) * dtype_size(dtype_);
  buffer_.assign(bytes, 0);
  AllocStats::instance().add(bytes);
}

void Tensor::release() {
  if (!buffer_.empty()) {
    AllocStats::instance().remove(buffer_.size());
    buffer_.clear();
  }
}

Tensor Tensor::f32(Shape shape, std::vector<float> values) {
  Tensor t(DType::kF32, shape);
  MLX_CHECK_EQ(static_cast<std::size_t>(t.num_elements()), values.size());
  std::memcpy(t.raw_data(), values.data(), values.size() * sizeof(float));
  return t;
}

namespace {

// Channel index of a flat element under per-channel quantization.
std::int64_t channel_of(const Shape& shape, int axis, std::int64_t flat) {
  std::int64_t stride = 1;
  for (int d = shape.rank() - 1; d > axis; --d) stride *= shape.dim(d);
  return (flat / stride) % shape.dim(axis);
}

}  // namespace

Tensor Tensor::to_f32() const {
  if (dtype_ == DType::kF32) return *this;
  Tensor out(DType::kF32, shape_);
  float* dst = out.data<float>();
  const std::int64_t n = num_elements();
  if (!quant_.quantized()) {
    // Plain integer widening (e.g. raw u8 image bytes).
    for (std::int64_t i = 0; i < n; ++i) {
      switch (dtype_) {
        case DType::kI8: dst[i] = static_cast<float>(data<std::int8_t>()[i]); break;
        case DType::kU8: dst[i] = static_cast<float>(data<std::uint8_t>()[i]); break;
        case DType::kI32: dst[i] = static_cast<float>(data<std::int32_t>()[i]); break;
        case DType::kF32: break;
      }
    }
    return out;
  }
  for (std::int64_t i = 0; i < n; ++i) {
    std::size_t ch = 0;
    if (quant_.per_channel()) {
      ch = static_cast<std::size_t>(channel_of(shape_, quant_.channel_axis, i));
    }
    std::int32_t q = 0;
    switch (dtype_) {
      case DType::kI8: q = data<std::int8_t>()[i]; break;
      case DType::kU8: q = data<std::uint8_t>()[i]; break;
      case DType::kI32: q = data<std::int32_t>()[i]; break;
      case DType::kF32: break;
    }
    dst[i] = quant_.scale(ch) * static_cast<float>(q - quant_.zero_point(ch));
  }
  return out;
}

}  // namespace mlexray
