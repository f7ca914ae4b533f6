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

std::uint8_t BinaryReader::read_u8() {
  require(1);
  return bytes_[cursor_++];
}

std::uint32_t BinaryReader::read_u32() {
  require(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(bytes_[cursor_++]) << (8 * i);
  return v;
}

std::uint64_t BinaryReader::read_u64() {
  require(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(bytes_[cursor_++]) << (8 * i);
  return v;
}

float BinaryReader::read_f32() {
  std::uint32_t bits = read_u32();
  float v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

double BinaryReader::read_f64() {
  std::uint64_t bits = read_u64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string BinaryReader::read_string() {
  std::uint32_t size = read_u32();
  require(size);
  std::string s(reinterpret_cast<const char*>(bytes_.data() + cursor_), size);
  cursor_ += size;
  return s;
}

void BinaryReader::read_bytes(void* out, std::size_t size) {
  require(size);
  if (size == 0) return;  // an empty destination may be null
  std::memcpy(out, bytes_.data() + cursor_, size);
  cursor_ += size;
}

std::vector<float> BinaryReader::read_f32_array() {
  std::uint64_t n = read_u64();
  MLX_CHECK_LE(n, remaining() / sizeof(float)) << "array past end of input";
  std::vector<float> values(n);
  read_bytes(values.data(), n * sizeof(float));
  return values;
}

std::vector<std::int32_t> BinaryReader::read_i32_array() {
  std::uint64_t n = read_u64();
  MLX_CHECK_LE(n, remaining() / sizeof(std::int32_t))
      << "array past end of input";
  std::vector<std::int32_t> values(n);
  read_bytes(values.data(), n * sizeof(std::int32_t));
  return values;
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
