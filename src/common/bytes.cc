#include "common/bytes.h"

#include <cstring>

namespace tcells {

SharedBytes::SharedBytes(Bytes bytes) : size_(bytes.size()) {
  if (bytes.empty()) return;
  auto owner = std::make_shared<const Bytes>(std::move(bytes));
  data_ = std::shared_ptr<const uint8_t>(owner, owner->data());
}

void ByteWriter::PutBytes(const Bytes& b) {
  PutU32(static_cast<uint32_t>(b.size()));
  out_->insert(out_->end(), b.begin(), b.end());
}

void ByteWriter::PutString(std::string_view s) {
  PutU32(static_cast<uint32_t>(s.size()));
  out_->insert(out_->end(), s.begin(), s.end());
}

Status ByteReader::Underflow() {
  return Status::Corruption("byte reader underflow");
}

Result<Bytes> ByteReader::GetBytes() {
  TCELLS_ASSIGN_OR_RETURN(uint32_t n, GetU32());
  if (Short(n)) return Underflow();
  Bytes out(data_ + pos_, data_ + pos_ + n);
  pos_ += n;
  return out;
}

Result<Bytes> ByteReader::GetRaw(size_t n) {
  if (Short(n)) return Underflow();
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
  if (Short(n)) return Underflow();
  std::string out(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return out;
}

}  // namespace tcells
