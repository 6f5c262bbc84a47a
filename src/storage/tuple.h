// Tuple: a row of Values plus its flat binary encoding. The encoding is the
// plaintext that the encryption schemes operate on (s_t in the cost model is
// the size of one encrypted tuple).
#ifndef TCELLS_STORAGE_TUPLE_H_
#define TCELLS_STORAGE_TUPLE_H_

#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "storage/value.h"

namespace tcells::storage {

/// A row. Positional; names/types live in the Schema.
class Tuple {
 public:
  Tuple() = default;
  explicit Tuple(std::vector<Value> values) : values_(std::move(values)) {}

  size_t size() const { return values_.size(); }
  const Value& at(size_t i) const { return values_[i]; }
  const std::vector<Value>& values() const { return values_; }
  std::vector<Value>& mutable_values() { return values_; }
  void Append(Value v) { values_.push_back(std::move(v)); }

  /// Concatenation (local internal joins).
  static Tuple Concat(const Tuple& a, const Tuple& b);

  /// Canonical byte encoding: u16 arity then each value.
  void EncodeTo(Bytes* out) const;
  Bytes Encode() const;
  static Result<Tuple> Decode(const uint8_t* data, size_t n);
  static Result<Tuple> DecodeFrom(::tcells::ByteReader* reader);
  /// Scratch form: decodes into `out`, reusing its value vector's capacity.
  /// The TDS open paths decode every partition tuple into one thread-local
  /// scratch, so steady state never reallocates. `out` is unspecified (but
  /// valid) on error.
  static Status DecodeInto(const uint8_t* data, size_t n, Tuple* out);

  /// Grouping equality across all positions.
  bool IsSameGroup(const Tuple& other) const;

  std::string ToString() const;

  /// Total order usable as std::map key.
  bool operator<(const Tuple& other) const { return values_ < other.values_; }
  bool operator==(const Tuple& other) const { return IsSameGroup(other); }

 private:
  std::vector<Value> values_;
};

}  // namespace tcells::storage

#endif  // TCELLS_STORAGE_TUPLE_H_
