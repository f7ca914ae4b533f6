// Little-endian binary (de)serialization helpers plus whole-file IO.
//
// Used by the checkpoint format (.ckpt), the converted flat model format
// (.efb) and the ML-EXray trace log format (.mlxtrace).
#pragma once

#include <bit>
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

// Bounds-checked cursor over bytes it borrows: the reader never copies its
// input, so the vector must outlive the reader. Binding a temporary would
// leave the reader dangling, so the rvalue constructor is deleted (every
// rvalue, const or not, prefers it); keep file bytes in a local
// (`auto bytes = read_file(path); BinaryReader r(bytes);`).
class BinaryReader {
 public:
  explicit BinaryReader(const std::vector<std::uint8_t>& bytes)
      : data_(bytes.data()), size_(bytes.size()) {}
  BinaryReader(const std::vector<std::uint8_t>&&) = delete;

  // The next n bytes, in place; the cursor moves past them. Throws MlxError
  // (and moves nothing) when fewer than n remain.
  const std::uint8_t* take(std::size_t n) {
    if (n > remaining()) fail_out_of_bounds(n);
    const std::uint8_t* p = data_ + cursor_;
    cursor_ += n;
    return p;
  }

  std::uint8_t read_u8() { return *take(1); }
  std::uint32_t read_u32() { return load_u32_le(take(4)); }
  std::uint64_t read_u64() { return load_u64_le(take(8)); }
  std::int32_t read_i32() { return static_cast<std::int32_t>(read_u32()); }
  std::int64_t read_i64() { return static_cast<std::int64_t>(read_u64()); }
  float read_f32() { return std::bit_cast<float>(read_u32()); }
  double read_f64() { return std::bit_cast<double>(read_u64()); }
  std::string read_string();
  std::vector<float> read_f32_array();
  std::vector<std::int32_t> read_i32_array();

  bool at_end() const { return cursor_ == size_; }
  std::size_t remaining() const { return size_ - cursor_; }

  // Little-endian loads from a span take() returned.
  static std::uint32_t load_u32_le(const std::uint8_t* p) {
    return std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
           std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24;
  }
  static std::uint64_t load_u64_le(const std::uint8_t* p) {
    return std::uint64_t{load_u32_le(p)} |
           std::uint64_t{load_u32_le(p + 4)} << 32;
  }
  static float load_f32_le(const std::uint8_t* p) {
    return std::bit_cast<float>(load_u32_le(p));
  }

 private:
  [[noreturn]] void fail_out_of_bounds(std::size_t n) const;

  const std::uint8_t* data_;
  std::size_t size_;
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
