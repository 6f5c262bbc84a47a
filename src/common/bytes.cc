#include "common/bytes.h"

#include <cstring>

namespace tcells {

void ByteWriter::PutU8(uint8_t v) { out_->push_back(v); }

namespace {

/// Appends the `N` little-endian bytes of `v` with one resize.
template <size_t N, typename T>
void PutLe(Bytes* out, T v) {
  const size_t at = out->size();
  out->resize(at + N);
  uint8_t* p = out->data() + at;
  for (size_t i = 0; i < N; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}

}  // namespace

void ByteWriter::PutU16(uint16_t v) { PutLe<2>(out_, v); }

void ByteWriter::PutU32(uint32_t v) { PutLe<4>(out_, v); }

void ByteWriter::PutU64(uint64_t v) { PutLe<8>(out_, v); }

void ByteWriter::PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }

void ByteWriter::PutDouble(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits);
}

void ByteWriter::PutBytes(const Bytes& b) {
  PutU32(static_cast<uint32_t>(b.size()));
  out_->insert(out_->end(), b.begin(), b.end());
}

void ByteWriter::PutString(std::string_view s) {
  PutU32(static_cast<uint32_t>(s.size()));
  out_->insert(out_->end(), s.begin(), s.end());
}

void ByteWriter::PutRaw(const uint8_t* data, size_t n) {
  out_->insert(out_->end(), data, data + n);
}

Status ByteReader::Need(size_t n) const {
  if (pos_ + n > size_) {
    return Status::Corruption("byte reader underflow");
  }
  return Status::OK();
}

Result<uint8_t> ByteReader::GetU8() {
  TCELLS_RETURN_IF_ERROR(Need(1));
  return data_[pos_++];
}

Result<uint16_t> ByteReader::GetU16() {
  TCELLS_RETURN_IF_ERROR(Need(2));
  uint16_t v = static_cast<uint16_t>(data_[pos_]) |
               static_cast<uint16_t>(data_[pos_ + 1]) << 8;
  pos_ += 2;
  return v;
}

Result<uint32_t> ByteReader::GetU32() {
  TCELLS_RETURN_IF_ERROR(Need(4));
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 4;
  return v;
}

Result<uint64_t> ByteReader::GetU64() {
  TCELLS_RETURN_IF_ERROR(Need(8));
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 8;
  return v;
}

Result<int64_t> ByteReader::GetI64() {
  TCELLS_ASSIGN_OR_RETURN(uint64_t v, GetU64());
  return static_cast<int64_t>(v);
}

Result<double> ByteReader::GetDouble() {
  TCELLS_ASSIGN_OR_RETURN(uint64_t bits, GetU64());
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Result<Bytes> ByteReader::GetBytes() {
  TCELLS_ASSIGN_OR_RETURN(uint32_t n, GetU32());
  TCELLS_RETURN_IF_ERROR(Need(n));
  Bytes out(data_ + pos_, data_ + pos_ + n);
  pos_ += n;
  return out;
}

Status ByteReader::Skip(size_t n) {
  TCELLS_RETURN_IF_ERROR(Need(n));
  pos_ += n;
  return Status::OK();
}

Result<Bytes> ByteReader::GetRaw(size_t n) {
  TCELLS_RETURN_IF_ERROR(Need(n));
  Bytes out(data_ + pos_, data_ + pos_ + n);
  pos_ += n;
  return out;
}

Result<uint32_t> ByteReader::GetCountU32(size_t min_bytes_per_element) {
  TCELLS_ASSIGN_OR_RETURN(uint32_t n, GetU32());
  if (n > remaining() / min_bytes_per_element) {
    return Status::Corruption("declared element count exceeds buffer size");
  }
  return n;
}

Result<uint16_t> ByteReader::GetCountU16(size_t min_bytes_per_element) {
  TCELLS_ASSIGN_OR_RETURN(uint16_t n, GetU16());
  if (n > remaining() / min_bytes_per_element) {
    return Status::Corruption("declared element count exceeds buffer size");
  }
  return n;
}

Result<std::string> ByteReader::GetString() {
  TCELLS_ASSIGN_OR_RETURN(uint32_t n, GetU32());
  TCELLS_RETURN_IF_ERROR(Need(n));
  std::string out(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return out;
}

}  // namespace tcells
