#include "crypto/hmac.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cstring>

namespace tcells::crypto {

HmacState::HmacState(const Bytes& key) {
  uint8_t block_key[Sha256::kBlockSize] = {0};
  if (key.size() > Sha256::kBlockSize) {
    auto digest = Sha256::Hash(key);
    std::memcpy(block_key, digest.data(), digest.size());
  } else {
    // Not memcpy: an empty key's data() may be null.
    std::copy(key.begin(), key.end(), block_key);
  }
  uint8_t pad[Sha256::kBlockSize];
  for (size_t i = 0; i < Sha256::kBlockSize; ++i) pad[i] = block_key[i] ^ 0x36;
  Sha256 inner;
  inner.Update(pad, sizeof(pad));
  inner_ = inner.chaining_value();
  for (size_t i = 0; i < Sha256::kBlockSize; ++i) pad[i] = block_key[i] ^ 0x5c;
  Sha256 outer;
  outer.Update(pad, sizeof(pad));
  outer_ = outer.chaining_value();
}

std::array<uint8_t, 32> HmacState::Mac(const uint8_t* data, size_t n) const {
  const auto inner_digest = Sha256(inner_, 1).FinishWith(data, n);
  return Sha256(outer_, 1).FinishWith(inner_digest.data(),
                                      inner_digest.size());
}

std::array<uint8_t, 32> HmacState::Mac(std::span<const uint8_t> head,
                                       std::span<const uint8_t> tail) const {
  Sha256 inner(inner_, 1);
  inner.Update(head.data(), head.size());
  inner.Update(tail.data(), tail.size());
  const auto inner_digest = inner.Finish();
  return Sha256(outer_, 1).FinishWith(inner_digest.data(),
                                      inner_digest.size());
}

std::array<uint8_t, 32> HmacSha256(const Bytes& key, const uint8_t* data,
                                   size_t n) {
  return HmacState(key).Mac(data, n);
}

std::array<uint8_t, 32> HmacSha256(const Bytes& key, const Bytes& data) {
  return HmacState(key).Mac(data.data(), data.size());
}

Bytes DeriveKey(const Bytes& master, std::string_view label) {
  return DeriveKey(HmacState(master), label);
}

Bytes DeriveKey(const HmacState& master, std::string_view label) {
  auto digest = master.Mac(reinterpret_cast<const uint8_t*>(label.data()),
                           label.size());
  return Bytes(digest.begin(), digest.begin() + 16);
}

NumberedLabel::NumberedLabel(std::string_view prefix, uint64_t n) {
  assert(prefix.size() <= kMaxPrefix);
  len_ = std::min(prefix.size(), kMaxPrefix);
  std::memcpy(buf_, prefix.data(), len_);
  len_ = static_cast<size_t>(
      std::to_chars(buf_ + len_, buf_ + sizeof(buf_), n).ptr - buf_);
}

uint64_t KeyedHash64(const HmacState& key, const Bytes& data) {
  auto digest = key.Mac(data);
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(digest[i]) << (8 * i);
  return v;
}

bool ConstantTimeEqual(const uint8_t* a, const uint8_t* b, size_t n) {
  uint8_t diff = 0;
  for (size_t i = 0; i < n; ++i) diff |= static_cast<uint8_t>(a[i] ^ b[i]);
  return diff == 0;
}

}  // namespace tcells::crypto
