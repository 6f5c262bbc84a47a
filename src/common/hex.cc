#include "common/hex.h"

namespace tcells {

namespace {
constexpr char kDigits[] = "0123456789abcdef";

int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}
}  // namespace

std::string ToHex(const uint8_t* data, size_t n) {
  std::string out;
  out.reserve(n * 2);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(kDigits[data[i] >> 4]);
    out.push_back(kDigits[data[i] & 0x0f]);
  }
  return out;
}

std::string ToHex(std::span<const uint8_t> data) {
  return ToHex(data.data(), data.size());
}

Result<Bytes> FromHex(std::string_view hex) {
  if (hex.size() % 2 != 0) {
    return Status::InvalidArgument("hex string has odd length");
  }
  Bytes out;
  out.reserve(hex.size() / 2);
  for (size_t i = 0; i < hex.size(); i += 2) {
    int hi = HexValue(hex[i]);
    int lo = HexValue(hex[i + 1]);
    if (hi < 0 || lo < 0) {
      return Status::InvalidArgument("invalid hex digit");
    }
    out.push_back(static_cast<uint8_t>(hi << 4 | lo));
  }
  return out;
}

}  // namespace tcells
