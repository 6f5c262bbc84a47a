#include "storage/tuple.h"

namespace tcells::storage {

Tuple Tuple::Concat(const Tuple& a, const Tuple& b) {
  std::vector<Value> values = a.values_;
  values.insert(values.end(), b.values_.begin(), b.values_.end());
  return Tuple(std::move(values));
}

void Tuple::EncodeTo(Bytes* out) const {
  ByteWriter w(out);
  w.PutU16(static_cast<uint16_t>(values_.size()));
  for (const auto& v : values_) v.EncodeTo(out);
}

Bytes Tuple::Encode() const {
  Bytes out;
  EncodeTo(&out);
  return out;
}

Result<Tuple> Tuple::DecodeFrom(ByteReader* reader) {
  // Every encoded Value is at least 1 byte (its type tag), so an arity larger
  // than the bytes left is rejected before the reserve below can amplify a
  // 2-byte input into a multi-megabyte allocation.
  TCELLS_ASSIGN_OR_RETURN(uint16_t n, reader->GetCountU16(1));
  std::vector<Value> values;
  values.reserve(n);
  for (uint16_t i = 0; i < n; ++i) {
    TCELLS_ASSIGN_OR_RETURN(Value v, Value::DecodeFrom(reader));
    values.push_back(std::move(v));
  }
  return Tuple(std::move(values));
}

Result<Tuple> Tuple::Decode(const uint8_t* data, size_t n) {
  ByteReader reader(data, n);
  TCELLS_ASSIGN_OR_RETURN(Tuple t, DecodeFrom(&reader));
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes after tuple");
  }
  return t;
}

Status Tuple::DecodeInto(const uint8_t* data, size_t n, Tuple* out) {
  ByteReader reader(data, n);
  TCELLS_ASSIGN_OR_RETURN(uint16_t arity, reader.GetCountU16(1));
  out->values_.clear();
  out->values_.reserve(arity);
  for (uint16_t i = 0; i < arity; ++i) {
    TCELLS_ASSIGN_OR_RETURN(Value v, Value::DecodeFrom(&reader));
    out->values_.push_back(std::move(v));
  }
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes after tuple");
  }
  return Status::OK();
}

bool Tuple::IsSameGroup(const Tuple& other) const {
  if (values_.size() != other.values_.size()) return false;
  for (size_t i = 0; i < values_.size(); ++i) {
    if (!values_[i].IsSameGroup(other.values_[i])) return false;
  }
  return true;
}

std::string Tuple::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < values_.size(); ++i) {
    if (i) out += ", ";
    out += values_[i].ToString();
  }
  out += ")";
  return out;
}

}  // namespace tcells::storage
