// Byte-buffer type and little-endian (de)serialization helpers used for
// tuple wire encoding and ciphertext payloads.
#ifndef TCELLS_COMMON_BYTES_H_
#define TCELLS_COMMON_BYTES_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace tcells {

using Bytes = std::vector<uint8_t>;

/// Appends fixed-width little-endian integers and length-prefixed blobs to a
/// growing byte vector. All protocol payloads in the library are encoded
/// through this writer so the format is uniform.
class ByteWriter {
 public:
  explicit ByteWriter(Bytes* out) : out_(out) {}

  void PutU8(uint8_t v);
  void PutU16(uint16_t v);
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI64(int64_t v);
  void PutDouble(double v);
  /// Length-prefixed (u32) byte string.
  void PutBytes(const Bytes& b);
  void PutString(std::string_view s);
  /// Raw bytes, no length prefix.
  void PutRaw(const uint8_t* data, size_t n);

 private:
  Bytes* out_;
};

/// Reads values written by ByteWriter; every getter returns Corruption on
/// underflow rather than reading past the end.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit ByteReader(const Bytes& b) : data_(b.data()), size_(b.size()) {}
  explicit ByteReader(std::span<const uint8_t> b)
      : data_(b.data()), size_(b.size()) {}

  Result<uint8_t> GetU8();
  Result<uint16_t> GetU16();
  Result<uint32_t> GetU32();
  Result<uint64_t> GetU64();
  Result<int64_t> GetI64();
  Result<double> GetDouble();
  Result<Bytes> GetBytes();
  Result<std::string> GetString();
  /// `n` raw bytes with no length prefix (the caller validated `n`);
  /// Corruption on underflow, checked before the copy allocates.
  Result<Bytes> GetRaw(size_t n);
  /// Consumes `n` bytes without reading them; Corruption on underflow.
  Status Skip(size_t n);

  /// Reads a u32 element count and rejects it (Corruption) unless at least
  /// `count * min_bytes_per_element` bytes remain. Every decoder that loops
  /// over a declared count reads it through this, so hostile length fields
  /// fail fast instead of driving huge reservations or long error-path
  /// loops. `min_bytes_per_element` must be > 0.
  Result<uint32_t> GetCountU32(size_t min_bytes_per_element);
  /// Same for a u16 count (tuple arities).
  Result<uint16_t> GetCountU16(size_t min_bytes_per_element);

  size_t remaining() const { return size_ - pos_; }
  /// The unread bytes, without consuming them.
  std::span<const uint8_t> rest() const { return {data_ + pos_, size_ - pos_}; }
  bool AtEnd() const { return pos_ == size_; }

 private:
  Status Need(size_t n) const;

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace tcells

#endif  // TCELLS_COMMON_BYTES_H_
