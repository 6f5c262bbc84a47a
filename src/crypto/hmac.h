// HMAC-SHA-256 (RFC 2104) and helpers built on it: key derivation and the
// keyed bucket hash used by the ED_Hist protocol.
//
// Per-key work (deriving the ipad/opad blocks and absorbing them into the
// compression function) is factored into HmacState, which the encryption
// schemes precompute once at Create time. Tagging an n-byte message then
// costs exactly ceil((n + 9) / 64) + 1 SHA-256 compressions: the message's
// whole blocks are compressed in place, its tail is padded in one stack block,
// and the outer hash is the single block inner digest || 0x80 || zeros ||
// 768-bit length, compressed from the opad midstate.
#ifndef TCELLS_CRYPTO_HMAC_H_
#define TCELLS_CRYPTO_HMAC_H_

#include <array>
#include <cstdint>
#include <span>
#include <string_view>

#include "common/bytes.h"
#include "crypto/sha256.h"

namespace tcells::crypto {

/// Precomputed HMAC-SHA-256 key state: SHA-256 midstates with the ipad and
/// opad blocks already absorbed. Copy-cheap (64 bytes: the two chaining
/// values) and immutable after construction, so one instance can serve any
/// number of Mac() calls (including concurrently).
class HmacState {
 public:
  HmacState() = default;
  /// Any key length (keys longer than the SHA-256 block are hashed first).
  explicit HmacState(const Bytes& key);

  /// HMAC-SHA-256 of `data` under the precomputed key: ceil((n + 9) / 64)
  /// inner compressions plus one outer, and no per-byte work outside them.
  std::array<uint8_t, 32> Mac(const uint8_t* data, size_t n) const;
  std::array<uint8_t, 32> Mac(const Bytes& data) const {
    return Mac(data.data(), data.size());
  }
  /// HMAC-SHA-256 of `head` followed by `tail`, without joining them in a
  /// buffer first.
  std::array<uint8_t, 32> Mac(std::span<const uint8_t> head,
                              std::span<const uint8_t> tail) const;

 private:
  std::array<uint32_t, 8> inner_{};  ///< after absorbing key ^ ipad
  std::array<uint32_t, 8> outer_{};  ///< after absorbing key ^ opad
};

/// HMAC-SHA-256 of `data` under `key` (any key length). One-shot; prefer a
/// cached HmacState when the same key authenticates many messages.
std::array<uint8_t, 32> HmacSha256(const Bytes& key, const uint8_t* data,
                                   size_t n);
std::array<uint8_t, 32> HmacSha256(const Bytes& key, const Bytes& data);

/// Derives a 16-byte subkey from a master key and a label, so that the
/// encryption, MAC and hashing uses of k1/k2 are key-separated.
Bytes DeriveKey(const Bytes& master, std::string_view label);
/// The same subkey from the master's precomputed state: a caller deriving
/// several subkeys of one master builds its HmacState once, and each
/// derivation then costs one MAC.
Bytes DeriveKey(const HmacState& master, std::string_view label);

/// A derivation label made of a short literal `prefix` and a number in
/// decimal ("bc-node-17"), formatted on the stack.
class NumberedLabel {
 public:
  NumberedLabel(std::string_view prefix, uint64_t n);
  operator std::string_view() const { return {buf_, len_}; }

 private:
  static constexpr size_t kMaxPrefix = 24;
  char buf_[kMaxPrefix + 20];  // 20: the digits of UINT64_MAX
  size_t len_ = 0;
};

/// Keyed 64-bit hash (HMAC truncated). ED_Hist's h(bucketId): reveals nothing
/// about the bucket's position in the A_G domain to a party without the key.
uint64_t KeyedHash64(const HmacState& key, const Bytes& data);

/// Branch-free byte comparison for authenticator tags: the run time depends
/// only on `n`, never on where the first mismatch is.
bool ConstantTimeEqual(const uint8_t* a, const uint8_t* b, size_t n);

}  // namespace tcells::crypto

#endif  // TCELLS_CRYPTO_HMAC_H_
