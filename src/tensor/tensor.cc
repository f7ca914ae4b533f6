#include "src/tensor/tensor.h"

#include "src/tensor/alloc_stats.h"

namespace mlexray {

Tensor::Tensor(DType dtype, Shape shape) : dtype_(dtype), shape_(shape) {
  allocate(nullptr);
}

Tensor Tensor::from_bytes(DType dtype, Shape shape, const void* bytes) {
  Tensor t;
  t.dtype_ = dtype;
  t.shape_ = shape;
  t.allocate(static_cast<const std::uint8_t*>(bytes));
  return t;
}

Tensor::Tensor(DType dtype, Shape shape, QuantParams quant, std::uint8_t* data)
    : dtype_(dtype),
      shape_(shape),
      data_(data),
      bytes_(tensor_bytes(dtype, shape)),
      view_(true),
      quant_(std::move(quant)) {}

Tensor::Tensor(const Tensor& other)
    : dtype_(other.dtype_),
      shape_(other.shape_),
      buffer_(other.data_, other.data_ + other.bytes_),
      data_(buffer_.data()),
      bytes_(buffer_.size()),
      quant_(other.quant_) {
  AllocStats::instance().add(bytes_);
}

Tensor::Tensor(Tensor&& other) noexcept
    : dtype_(other.dtype_),
      shape_(other.shape_),
      buffer_(std::move(other.buffer_)),
      data_(other.data_),
      bytes_(other.bytes_),
      view_(other.view_),
      quant_(std::move(other.quant_)) {
  other.shape_ = Shape();
  other.data_ = nullptr;
  other.bytes_ = 0;
  other.view_ = false;
}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this == &other) return *this;
  if (view_) {
    write_through(other);
    return *this;
  }
  release();
  dtype_ = other.dtype_;
  shape_ = other.shape_;
  buffer_.assign(other.data_, other.data_ + other.bytes_);
  data_ = buffer_.data();
  bytes_ = buffer_.size();
  quant_ = other.quant_;
  AllocStats::instance().add(bytes_);
  return *this;
}

Tensor& Tensor::operator=(Tensor&& other) {
  if (this == &other) return *this;
  if (view_) {
    write_through(other);
    return *this;
  }
  release();
  dtype_ = other.dtype_;
  shape_ = other.shape_;
  buffer_ = std::move(other.buffer_);
  data_ = other.data_;
  bytes_ = other.bytes_;
  view_ = other.view_;
  quant_ = std::move(other.quant_);
  other.shape_ = Shape();
  other.data_ = nullptr;
  other.bytes_ = 0;
  other.view_ = false;
  return *this;
}

Tensor::~Tensor() { release(); }

void Tensor::allocate(const std::uint8_t* src) {
  bytes_ = tensor_bytes(dtype_, shape_);
  if (src == nullptr) {
    buffer_.assign(bytes_, 0);
  } else {
    buffer_.assign(src, src + bytes_);
  }
  data_ = buffer_.data();
  AllocStats::instance().add(bytes_);
}

void Tensor::release() {
  if (!buffer_.empty()) {
    AllocStats::instance().remove(buffer_.size());
    buffer_.clear();
  }
  data_ = nullptr;
  bytes_ = 0;
}

void Tensor::write_through(const Tensor& other) {
  MLX_CHECK(other.dtype_ == dtype_ && other.shape_ == shape_)
      << "cannot assign a " << dtype_name(other.dtype_)
      << other.shape_.to_string() << " tensor onto a "
      << dtype_name(dtype_) << shape_.to_string() << " session view";
  std::memcpy(data_, other.data_, bytes_);
}

Tensor Tensor::f32(Shape shape, std::vector<float> values) {
  MLX_CHECK_EQ(static_cast<std::size_t>(shape.num_elements()), values.size());
  return from_bytes(DType::kF32, shape, values.data());
}

namespace {

// Channel index of a flat element under per-channel quantization.
std::int64_t channel_of(const Shape& shape, int axis, std::int64_t flat) {
  std::int64_t stride = 1;
  for (int d = shape.rank() - 1; d > axis; --d) stride *= shape.dim(d);
  return (flat / stride) % shape.dim(axis);
}

// Widens (unquantized) or dequantizes n elements of src into dst. Only
// per-channel quantization looks its scale and zero point up per element;
// per-tensor parameters are read once, with the same arithmetic.
template <typename T>
void convert_to_f32(const T* src, std::int64_t n, const Shape& shape,
                    const QuantParams& quant, float* dst) {
  if (!quant.quantized()) {
    // Plain integer widening (e.g. raw u8 image bytes).
    for (std::int64_t i = 0; i < n; ++i) dst[i] = static_cast<float>(src[i]);
    return;
  }
  if (!quant.per_channel()) {
    const float scale = quant.scale();
    const std::int32_t zero_point = quant.zero_point();
    for (std::int64_t i = 0; i < n; ++i) {
      const std::int32_t q = src[i];
      dst[i] = scale * static_cast<float>(q - zero_point);
    }
    return;
  }
  for (std::int64_t i = 0; i < n; ++i) {
    const auto ch =
        static_cast<std::size_t>(channel_of(shape, quant.channel_axis, i));
    const std::int32_t q = src[i];
    dst[i] = quant.scale(ch) * static_cast<float>(q - quant.zero_point(ch));
  }
}

}  // namespace

Tensor Tensor::to_f32() const {
  if (dtype_ == DType::kF32) return *this;
  Tensor out(DType::kF32, shape_);
  float* dst = out.data<float>();
  const std::int64_t n = num_elements();
  switch (dtype_) {
    case DType::kI8:
      convert_to_f32(data<std::int8_t>(), n, shape_, quant_, dst);
      break;
    case DType::kU8:
      convert_to_f32(data<std::uint8_t>(), n, shape_, quant_, dst);
      break;
    case DType::kI32:
      convert_to_f32(data<std::int32_t>(), n, shape_, quant_, dst);
      break;
    case DType::kF32:
      break;
  }
  return out;
}

}  // namespace mlexray
