// Little-endian binary (de)serialization helpers plus whole-file IO.
//
// Used by the checkpoint format (.ckpt), the converted flat model format
// (.efb) and the ML-EXray trace log format (.mlxtrace).
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "src/common/error.h"

namespace mlexray {

// Append-only byte buffer with typed little-endian writers.
class BinaryWriter {
 public:
  void write_u8(std::uint8_t v) { bytes_.push_back(v); }
  void write_u32(std::uint32_t v);
  void write_u64(std::uint64_t v);
  void write_i32(std::int32_t v) { write_u32(static_cast<std::uint32_t>(v)); }
  void write_i64(std::int64_t v) { write_u64(static_cast<std::uint64_t>(v)); }
  void write_f32(float v);
  void write_f64(double v);
  void write_string(const std::string& s);
  void write_bytes(const void* data, std::size_t size);
  void write_f32_array(const std::vector<float>& values);
  void write_i32_array(const std::vector<std::int32_t>& values);

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::size_t size() const { return bytes_.size(); }

 private:
  std::vector<std::uint8_t> bytes_;
};

// Cursor-based reader over a byte buffer; bounds-checked.
class BinaryReader {
 public:
  explicit BinaryReader(std::vector<std::uint8_t> bytes)
      : bytes_(std::move(bytes)) {}

  std::uint8_t read_u8();
  std::uint32_t read_u32();
  std::uint64_t read_u64();
  std::int32_t read_i32() { return static_cast<std::int32_t>(read_u32()); }
  std::int64_t read_i64() { return static_cast<std::int64_t>(read_u64()); }
  float read_f32();
  double read_f64();
  std::string read_string();
  void read_bytes(void* out, std::size_t size);
  std::vector<float> read_f32_array();
  std::vector<std::int32_t> read_i32_array();

  bool at_end() const { return cursor_ == bytes_.size(); }
  std::size_t remaining() const { return bytes_.size() - cursor_; }

 private:
  void require(std::size_t n) const {
    MLX_CHECK_LE(n, remaining()) << "binary read out of bounds";
  }
  std::vector<std::uint8_t> bytes_;
  std::size_t cursor_ = 0;
};

// Whole-file helpers. Throw MlxError on IO failure.
void write_file(const std::filesystem::path& path,
                const std::vector<std::uint8_t>& bytes);
std::vector<std::uint8_t> read_file(const std::filesystem::path& path);
std::string read_text_file(const std::filesystem::path& path);

// Root directory for cached artifacts (trained checkpoints, traces). Honors
// the MLEXRAY_CACHE_DIR environment variable; defaults to ./mlexray_cache.
std::filesystem::path cache_dir();

}  // namespace mlexray
