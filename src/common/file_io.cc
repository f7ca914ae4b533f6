#include "src/common/file_io.h"

#include <cstdlib>
#include <cstring>
#include <fstream>

namespace mlexray {

void BinaryWriter::write_u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void BinaryWriter::write_u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void BinaryWriter::write_f32(float v) {
  std::uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  write_u32(bits);
}

void BinaryWriter::write_f64(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  write_u64(bits);
}

void BinaryWriter::write_string(const std::string& s) {
  write_u32(static_cast<std::uint32_t>(s.size()));
  write_bytes(s.data(), s.size());
}

void BinaryWriter::write_bytes(const void* data, std::size_t size) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  bytes_.insert(bytes_.end(), p, p + size);
}

void BinaryWriter::write_f32_array(const std::vector<float>& values) {
  write_u64(values.size());
  write_bytes(values.data(), values.size() * sizeof(float));
}

void BinaryWriter::write_i32_array(const std::vector<std::int32_t>& values) {
  write_u64(values.size());
  write_bytes(values.data(), values.size() * sizeof(std::int32_t));
}

void BinaryReader::fail_out_of_bounds(std::size_t n) const {
  MLX_FAIL() << "binary read out of bounds (" << n << " bytes, "
             << remaining() << " left)";
}

std::string BinaryReader::read_string() {
  const std::uint32_t size = read_u32();
  return std::string(reinterpret_cast<const char*>(take(size)), size);
}

namespace {

// A u64 element count, then the elements as write_*_array lays them out.
template <typename T>
std::vector<T> read_array(BinaryReader& r) {
  const std::uint64_t n = r.read_u64();
  MLX_CHECK_LE(n, r.remaining() / sizeof(T)) << "array past end of input";
  std::vector<T> values(n);
  const std::uint8_t* p = r.take(n * sizeof(T));
  if (n != 0) std::memcpy(values.data(), p, n * sizeof(T));
  return values;
}

}  // namespace

std::vector<float> BinaryReader::read_f32_array() {
  return read_array<float>(*this);
}

std::vector<std::int32_t> BinaryReader::read_i32_array() {
  return read_array<std::int32_t>(*this);
}

void write_file(const std::filesystem::path& path,
                const std::vector<std::uint8_t>& bytes) {
  if (path.has_parent_path()) {
    std::filesystem::create_directories(path.parent_path());
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  MLX_CHECK(out.good()) << "cannot open for write: " << path;
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  MLX_CHECK(out.good()) << "write failed: " << path;
}

std::vector<std::uint8_t> read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  MLX_CHECK(in.good()) << "cannot open for read: " << path;
  auto size = static_cast<std::size_t>(in.tellg());
  in.seekg(0);
  std::vector<std::uint8_t> bytes(size);
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(size));
  MLX_CHECK(in.good()) << "read failed: " << path;
  return bytes;
}

std::string read_text_file(const std::filesystem::path& path) {
  auto bytes = read_file(path);
  return std::string(bytes.begin(), bytes.end());
}

std::filesystem::path cache_dir() {
  if (const char* env = std::getenv("MLEXRAY_CACHE_DIR")) {
    return std::filesystem::path(env);
  }
  return std::filesystem::path("mlexray_cache");
}

}  // namespace mlexray
