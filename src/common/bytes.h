// Byte-buffer type and little-endian (de)serialization helpers used for
// tuple wire encoding and ciphertext payloads.
#ifndef TCELLS_COMMON_BYTES_H_
#define TCELLS_COMMON_BYTES_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace tcells {

using Bytes = std::vector<uint8_t>;

/// An immutable byte string that shares its buffer: a view into bytes an
/// owner keeps alive (a reply frame, a decoded message's copy of its
/// encoding), held through an aliasing shared pointer. Copying one bumps a
/// reference count and copies no bytes; the bytes are never written after
/// construction, so copies may be read from any thread.
class SharedBytes {
 public:
  SharedBytes() = default;
  /// Takes `bytes` over as a buffer of its own (none when empty).
  SharedBytes(Bytes bytes);  // NOLINT(google-explicit-constructor)
  /// A view of `bytes`, which `owner` keeps alive.
  SharedBytes(const std::shared_ptr<const void>& owner,
              std::span<const uint8_t> bytes)
      : data_(owner, bytes.data()), size_(bytes.size()) {}

  const uint8_t* data() const { return data_.get(); }
  size_t size() const { return size_; }
  const uint8_t* begin() const { return data(); }
  const uint8_t* end() const { return data() + size_; }
  operator std::span<const uint8_t>() const {  // NOLINT
    return {data(), size_};
  }
  Bytes ToBytes() const { return Bytes(begin(), end()); }

  friend bool operator==(const SharedBytes& a, const SharedBytes& b) {
    return a.size_ == b.size_ &&
           (a.size_ == 0 || std::memcmp(a.data(), b.data(), a.size_) == 0);
  }

 private:
  std::shared_ptr<const uint8_t> data_;
  size_t size_ = 0;
};

/// Appends fixed-width little-endian integers and length-prefixed blobs to a
/// growing byte vector. All protocol payloads in the library are encoded
/// through this writer so the format is uniform. The fixed-width puts are
/// inline: a codec loop compiles to stores, not calls.
class ByteWriter {
 public:
  explicit ByteWriter(Bytes* out) : out_(out) {}

  void PutU8(uint8_t v) { out_->push_back(v); }
  void PutU16(uint16_t v) { PutLe<2>(v); }
  void PutU32(uint32_t v) { PutLe<4>(v); }
  void PutU64(uint64_t v) { PutLe<8>(v); }
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutDouble(double v) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    PutU64(bits);
  }
  /// Length-prefixed (u32) byte string.
  void PutBytes(const Bytes& b);
  void PutString(std::string_view s);
  /// Raw bytes, no length prefix.
  void PutRaw(const uint8_t* data, size_t n) {
    out_->insert(out_->end(), data, data + n);
  }

 private:
  /// Appends the `N` little-endian bytes of `v` with one resize.
  template <size_t N, typename T>
  void PutLe(T v) {
    const size_t at = out_->size();
    out_->resize(at + N);
    uint8_t* p = out_->data() + at;
    for (size_t i = 0; i < N; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
  }

  Bytes* out_;
};

/// Reads values written by ByteWriter; every getter returns Corruption on
/// underflow rather than reading past the end. The fixed-width getters and
/// Skip are inline; the Corruption they return on underflow is built out of
/// line, so a successful read costs a compare and a load.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit ByteReader(const Bytes& b) : data_(b.data()), size_(b.size()) {}
  explicit ByteReader(std::span<const uint8_t> b)
      : data_(b.data()), size_(b.size()) {}

  Result<uint8_t> GetU8() {
    if (Short(1)) return Underflow();
    return data_[pos_++];
  }
  Result<uint16_t> GetU16() { return GetLe<uint16_t>(); }
  Result<uint32_t> GetU32() { return GetLe<uint32_t>(); }
  Result<uint64_t> GetU64() { return GetLe<uint64_t>(); }
  Result<int64_t> GetI64() {
    if (Short(8)) return Underflow();
    return static_cast<int64_t>(TakeLe<uint64_t>());
  }
  Result<double> GetDouble() {
    if (Short(8)) return Underflow();
    const uint64_t bits = TakeLe<uint64_t>();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  Result<Bytes> GetBytes();
  Result<std::string> GetString();
  /// `n` raw bytes with no length prefix (the caller validated `n`);
  /// Corruption on underflow, checked before the copy allocates.
  Result<Bytes> GetRaw(size_t n);
  /// Consumes `n` bytes without reading them; Corruption on underflow.
  Status Skip(size_t n) {
    if (Short(n)) return Underflow();
    pos_ += n;
    return Status::OK();
  }

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
  /// Fewer than `n` bytes remain. Written so that no `n` can wrap it.
  bool Short(size_t n) const { return n > size_ - pos_; }
  /// The Corruption every underflow returns, built out of line.
  static Status Underflow();
  /// Reads the next sizeof(T) bytes, which the caller checked, little-endian.
  template <typename T>
  T TakeLe() {
    uint64_t v = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += sizeof(T);
    return static_cast<T>(v);
  }
  template <typename T>
  Result<T> GetLe() {
    if (Short(sizeof(T))) return Underflow();
    return TakeLe<T>();
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace tcells

#endif  // TCELLS_COMMON_BYTES_H_
