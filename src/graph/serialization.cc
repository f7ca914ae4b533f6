#include "src/graph/serialization.h"

#include <algorithm>

namespace mlexray {

namespace {

constexpr std::uint32_t kMagic = 0x4d584c4d;  // "MLXM"
constexpr std::uint32_t kVersion = 1;

void write_shape(BinaryWriter& w, const Shape& shape) {
  w.write_u8(static_cast<std::uint8_t>(shape.rank()));
  for (int d = 0; d < shape.rank(); ++d) w.write_i64(shape.dim(d));
}

Shape read_shape(BinaryReader& r) {
  const int rank = r.read_u8();
  MLX_CHECK_LE(rank, Shape::kMaxRank) << "bad rank";
  // Build via initializer of correct rank.
  std::int64_t dims[Shape::kMaxRank] = {0};
  for (int d = 0; d < rank; ++d) dims[d] = r.read_i64();
  switch (rank) {
    case 0: return Shape{};
    case 1: return Shape{dims[0]};
    case 2: return Shape{dims[0], dims[1]};
    case 3: return Shape{dims[0], dims[1], dims[2]};
    case 4: return Shape{dims[0], dims[1], dims[2], dims[3]};
    case 5: return Shape{dims[0], dims[1], dims[2], dims[3], dims[4]};
    default: MLX_FAIL() << "bad rank " << rank;
  }
}

void write_quant(BinaryWriter& w, const QuantParams& q) {
  w.write_f32_array(q.scales);
  w.write_i32_array(q.zero_points);
  w.write_i32(q.channel_axis);
}

QuantParams read_quant(BinaryReader& r) {
  QuantParams q;
  q.scales = r.read_f32_array();
  q.zero_points = r.read_i32_array();
  q.channel_axis = r.read_i32();
  return q;
}

}  // namespace

void serialize_tensor(BinaryWriter& w, const Tensor& tensor) {
  w.write_u8(static_cast<std::uint8_t>(tensor.dtype()));
  write_shape(w, tensor.shape());
  write_quant(w, tensor.quant());
  w.write_u64(tensor.byte_size());
  w.write_bytes(tensor.raw_data(), tensor.byte_size());
}

Tensor deserialize_tensor(BinaryReader& r) {
  const std::uint8_t raw_dtype = r.read_u8();
  MLX_CHECK_LE(raw_dtype, static_cast<std::uint8_t>(DType::kI32))
      << "bad dtype";
  const auto dtype = static_cast<DType>(raw_dtype);
  Shape shape = read_shape(r);
  QuantParams quant = read_quant(r);
  const std::uint64_t bytes = r.read_u64();
  // Validate the claimed size before allocating anything: it must fit in
  // what is left of the input and agree with dtype x dims, computed without
  // overflow.
  MLX_CHECK_LE(bytes, r.remaining()) << "tensor payload past end of input";
  std::uint64_t expected = dtype_size(dtype);
  for (int d = 0; d < shape.rank(); ++d) {
    MLX_CHECK_GE(shape.dim(d), 0) << "negative tensor dim";
    const auto dim = static_cast<std::uint64_t>(shape.dim(d));
    MLX_CHECK(dim == 0 || expected <= bytes / dim)
        << "tensor payload size mismatch";
    expected *= dim;
  }
  MLX_CHECK_EQ(expected, bytes) << "tensor payload size mismatch";
  Tensor t = Tensor::from_bytes(dtype, shape, r.take(bytes));
  t.quant() = std::move(quant);
  return t;
}

namespace {

void write_node(BinaryWriter& w, const Node& n) {
  w.write_u8(static_cast<std::uint8_t>(n.type));
  w.write_string(n.name);
  w.write_u32(static_cast<std::uint32_t>(n.inputs.size()));
  for (int in : n.inputs) w.write_i32(in);

  const OpAttrs& a = n.attrs;
  w.write_i32(a.stride_h);
  w.write_i32(a.stride_w);
  w.write_u8(static_cast<std::uint8_t>(a.padding));
  w.write_i32(a.filter_h);
  w.write_i32(a.filter_w);
  w.write_u8(static_cast<std::uint8_t>(a.activation));
  w.write_i32(a.pad_top);
  w.write_i32(a.pad_bottom);
  w.write_i32(a.pad_left);
  w.write_i32(a.pad_right);
  w.write_f32(a.epsilon);
  write_shape(w, a.reshape_to);

  w.write_u32(static_cast<std::uint32_t>(n.weights.size()));
  for (const Tensor& t : n.weights) serialize_tensor(w, t);

  write_shape(w, n.output_shape);
  w.write_u8(static_cast<std::uint8_t>(n.output_dtype));
  write_quant(w, n.output_quant);
}

// Bytes of the smallest node the format encodes (no name, inputs, weights
// or quantization; rank-0 shapes). The bytes left over this bound any honest
// node count.
std::size_t min_node_bytes() {
  static const std::size_t bytes = [] {
    BinaryWriter w;
    write_node(w, Node{});
    return w.size();
  }();
  return bytes;
}

}  // namespace

std::vector<std::uint8_t> serialize_model(const Graph& model) {
  BinaryWriter w;
  w.write_u32(kMagic);
  w.write_u32(kVersion);
  w.write_string(model.name);

  const InputSpec& spec = model.input_spec;
  w.write_i32(spec.height);
  w.write_i32(spec.width);
  w.write_i32(spec.channels);
  w.write_u8(static_cast<std::uint8_t>(spec.channel_order));
  w.write_u8(static_cast<std::uint8_t>(spec.resize));
  w.write_f32(spec.range_lo);
  w.write_f32(spec.range_hi);
  w.write_u8(spec.spectrogram_log_scale ? 1 : 0);

  w.write_u32(static_cast<std::uint32_t>(model.nodes.size()));
  for (const Node& n : model.nodes) write_node(w, n);
  w.write_u32(static_cast<std::uint32_t>(model.outputs.size()));
  for (int out : model.outputs) w.write_i32(out);
  return w.bytes();
}

Graph deserialize_model(BinaryReader& r) {
  MLX_CHECK_EQ(r.read_u32(), kMagic) << "not an mlexray model file";
  MLX_CHECK_EQ(r.read_u32(), kVersion) << "unsupported model version";
  Graph model;
  model.name = r.read_string();

  InputSpec& spec = model.input_spec;
  spec.height = r.read_i32();
  spec.width = r.read_i32();
  spec.channels = r.read_i32();
  spec.channel_order = static_cast<ChannelOrder>(r.read_u8());
  spec.resize = static_cast<ResizeMethod>(r.read_u8());
  spec.range_lo = r.read_f32();
  spec.range_hi = r.read_f32();
  spec.spectrogram_log_scale = r.read_u8() != 0;

  const std::uint32_t node_count = r.read_u32();
  // The count is untrusted: reserve no more nodes than the bytes left could
  // encode.
  model.nodes.reserve(
      std::min<std::size_t>(node_count, r.remaining() / min_node_bytes()));
  for (std::uint32_t i = 0; i < node_count; ++i) {
    Node n;
    n.id = static_cast<int>(i);
    n.type = static_cast<OpType>(r.read_u8());
    n.name = r.read_string();
    std::uint32_t input_count = r.read_u32();
    for (std::uint32_t k = 0; k < input_count; ++k) {
      n.inputs.push_back(r.read_i32());
    }
    OpAttrs& a = n.attrs;
    a.stride_h = r.read_i32();
    a.stride_w = r.read_i32();
    a.padding = static_cast<Padding>(r.read_u8());
    a.filter_h = r.read_i32();
    a.filter_w = r.read_i32();
    a.activation = static_cast<Activation>(r.read_u8());
    a.pad_top = r.read_i32();
    a.pad_bottom = r.read_i32();
    a.pad_left = r.read_i32();
    a.pad_right = r.read_i32();
    a.epsilon = r.read_f32();
    a.reshape_to = read_shape(r);

    std::uint32_t weight_count = r.read_u32();
    for (std::uint32_t k = 0; k < weight_count; ++k) {
      n.weights.push_back(deserialize_tensor(r));
    }
    n.output_shape = read_shape(r);
    n.output_dtype = static_cast<DType>(r.read_u8());
    n.output_quant = read_quant(r);
    model.nodes.push_back(std::move(n));
  }
  std::uint32_t output_count = r.read_u32();
  for (std::uint32_t i = 0; i < output_count; ++i) {
    model.outputs.push_back(r.read_i32());
  }
  model.validate();
  // The serialized shapes are untrusted too: the kernels size their reads
  // from a node's output shape, so each must be the one its inputs and
  // weights imply. Inference runs in node order, over inputs already
  // checked; the serialized dtype stands.
  for (Node& n : model.nodes) {
    const Shape serialized = n.output_shape;
    const DType dtype = n.output_dtype;
    infer_node_output(model, n);
    MLX_CHECK(n.output_shape == serialized)
        << op_type_name(n.type) << " '" << n.name
        << "' serialized output shape " << serialized.to_string()
        << " disagrees with its inputs and weights ("
        << n.output_shape.to_string() << ")";
    n.output_dtype = dtype;
  }
  return model;
}

void save_model(const Graph& model, const std::filesystem::path& path) {
  write_file(path, serialize_model(model));
}

Graph load_model(const std::filesystem::path& path) {
  const std::vector<std::uint8_t> bytes = read_file(path);
  BinaryReader reader(bytes);
  return deserialize_model(reader);
}

}  // namespace mlexray
