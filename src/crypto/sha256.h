// SHA-256 (FIPS 180-4), implemented from scratch. Used by HMAC, the
// deterministic-encryption synthetic IV, and the equi-depth histogram bucket
// hash.
//
// Two compression backends produce bit-identical digests: the portable
// schedule in sha256.cc and the x86 SHA-extension kernel in sha256_ni.cc
// (built with -msha in its own translation unit, selected only when CPUID
// reports SHA + SSE4.1 support — the same split as the AES backends, see
// aes_dispatch.h). TCELLS_FORCE_PORTABLE_SHA pins the portable path.
#ifndef TCELLS_CRYPTO_SHA256_H_
#define TCELLS_CRYPTO_SHA256_H_

#include <array>
#include <cstdint>

#include "common/bytes.h"

namespace tcells::crypto {

/// Incremental SHA-256 hasher.
class Sha256 {
 public:
  static constexpr size_t kDigestSize = 32;
  static constexpr size_t kBlockSize = 64;

  Sha256();
  /// Resumes hashing from `chaining_value`, the state after `blocks` whole
  /// blocks of input (a midstate saved with chaining_value()).
  Sha256(const std::array<uint32_t, 8>& chaining_value, uint64_t blocks);

  /// The compression state; a resumable midstate once only whole blocks
  /// were absorbed.
  std::array<uint32_t, 8> chaining_value() const;

  /// Absorbs more input.
  void Update(const uint8_t* data, size_t n);
  void Update(const Bytes& data) { Update(data.data(), data.size()); }

  /// Finalizes and returns the 32-byte digest: the padding is written in
  /// place after the buffered tail, so this costs one or two compressions.
  /// The hasher must not be used again afterwards.
  std::array<uint8_t, kDigestSize> Finish();

  /// Digest of everything absorbed so far followed by `data[0, n)`, leaving
  /// this hasher untouched so one midstate can be finished any number of
  /// times (concurrently too). Whole blocks are compressed straight from
  /// `data`; only the tail is copied, into the block that carries the
  /// padding. Requires that only whole blocks were absorbed so far, as for
  /// an HMAC key midstate.
  std::array<uint8_t, kDigestSize> FinishWith(const uint8_t* data,
                                              size_t n) const;

  /// One-shot convenience.
  static std::array<uint8_t, kDigestSize> Hash(const Bytes& data);

 private:
  uint32_t h_[8];
  uint8_t buffer_[kBlockSize];
  size_t buffer_len_ = 0;
  uint64_t total_len_ = 0;
};

/// True iff the CPU supports the x86 SHA extensions *and* this binary was
/// built with the SHA-NI translation unit.
bool ShaNiAvailable();

/// Pins the portable compression for this process (true), or restores the
/// default resolution (false: env var, then CPUID). Not thread-safe with
/// concurrent hashing; intended for test/bench setup code.
void ForcePortableSha256(bool force);

/// "portable" or "shani" — the backend Sha256 currently compresses with.
const char* ActiveSha256BackendName();

}  // namespace tcells::crypto

#endif  // TCELLS_CRYPTO_SHA256_H_
