// Dense tensor: dtype + shape + owned buffer + optional quantization params.
//
// This is the single tensor type shared by the training pipeline, the
// interpreter and the ML-EXray logs. Layout is always row-major over the
// shape (NHWC for rank-4 activations).
//
// A tensor either owns its bytes or is a view: a non-owning window into a
// lean Session's activation block (src/interpreter/session.h), the only
// code that creates views. data(), raw_data(), byte_size(), shape() and
// quant() behave the same for both forms. AllocStats counts owned bytes only
// (the session counts its block once). Copying a view gives an owning deep
// copy. Assigning onto a view writes the bytes through when dtype and shape
// match, keeping the view's own quant, and throws MlxError otherwise: a view
// never silently turns into an owner. Moving a tensor moves its storage,
// owned or viewed.
#pragma once

#include <cstring>
#include <string>
#include <vector>

#include "src/tensor/dtype.h"
#include "src/tensor/quant_params.h"
#include "src/tensor/shape.h"

namespace mlexray {

class Session;

// Bytes of a dense dtype x shape tensor.
inline std::size_t tensor_bytes(DType dtype, const Shape& shape) {
  return static_cast<std::size_t>(shape.num_elements()) * dtype_size(dtype);
}

class Tensor {
 public:
  Tensor() = default;
  Tensor(DType dtype, Shape shape);
  Tensor(const Tensor& other);
  Tensor(Tensor&& other) noexcept;
  Tensor& operator=(const Tensor& other);
  Tensor& operator=(Tensor&& other);
  ~Tensor();

  // Convenience constructors.
  static Tensor f32(Shape shape) { return Tensor(DType::kF32, shape); }
  static Tensor f32(Shape shape, std::vector<float> values);
  static Tensor i8(Shape shape) { return Tensor(DType::kI8, shape); }
  static Tensor u8(Shape shape) { return Tensor(DType::kU8, shape); }
  static Tensor i32(Shape shape) { return Tensor(DType::kI32, shape); }
  // An owning tensor whose bytes are a copy of the tensor_bytes(dtype,
  // shape) bytes at `bytes` (one copy, no zero-fill first).
  static Tensor from_bytes(DType dtype, Shape shape, const void* bytes);

  DType dtype() const { return dtype_; }
  const Shape& shape() const { return shape_; }
  std::int64_t num_elements() const { return shape_.num_elements(); }
  std::size_t byte_size() const { return bytes_; }
  bool defined() const { return bytes_ > 0 || shape_.rank() > 0; }

  QuantParams& quant() { return quant_; }
  const QuantParams& quant() const { return quant_; }

  template <typename T>
  T* data() {
    MLX_CHECK(DTypeOf<T>::value == dtype_)
        << "dtype mismatch: tensor is " << dtype_name(dtype_);
    return reinterpret_cast<T*>(data_);
  }
  template <typename T>
  const T* data() const {
    MLX_CHECK(DTypeOf<T>::value == dtype_)
        << "dtype mismatch: tensor is " << dtype_name(dtype_);
    return reinterpret_cast<const T*>(data_);
  }

  const void* raw_data() const { return data_; }
  void* raw_data() { return data_; }

  // Row-major flat offset for a rank-4 (NHWC) index.
  std::int64_t offset4(std::int64_t n, std::int64_t h, std::int64_t w,
                       std::int64_t c) const {
    return ((n * shape_.dim(1) + h) * shape_.dim(2) + w) * shape_.dim(3) + c;
  }

  template <typename T>
  T& at4(std::int64_t n, std::int64_t h, std::int64_t w, std::int64_t c) {
    return data<T>()[offset4(n, h, w, c)];
  }
  template <typename T>
  const T& at4(std::int64_t n, std::int64_t h, std::int64_t w,
               std::int64_t c) const {
    return data<T>()[offset4(n, h, w, c)];
  }

  void fill_zero() { std::memset(data_, 0, bytes_); }
  template <typename T>
  void fill(T value) {
    T* p = data<T>();
    for (std::int64_t i = 0; i < num_elements(); ++i) p[i] = value;
  }

  // Element-wise conversion to a float tensor; quantized tensors are
  // dequantized with their QuantParams.
  Tensor to_f32() const;

 private:
  friend class Session;
  // A view of dtype x shape bytes at `data`, which the session owns.
  Tensor(DType dtype, Shape shape, QuantParams quant, std::uint8_t* data);

  // Owns tensor_bytes(dtype_, shape_) bytes: a copy of `src`, or zeros
  // when src is null.
  void allocate(const std::uint8_t* src);
  void release();
  // Assignment onto a view: copies other's bytes in, same dtype and shape.
  void write_through(const Tensor& other);

  DType dtype_ = DType::kF32;
  Shape shape_;
  std::vector<std::uint8_t> buffer_;  // the owned bytes; empty for a view
  std::uint8_t* data_ = nullptr;      // buffer_.data(), or the viewed bytes
  std::size_t bytes_ = 0;
  bool view_ = false;
  QuantParams quant_;
};

}  // namespace mlexray
