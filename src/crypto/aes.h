// AES-128 block cipher (the TDS hardware in the paper has an AES
// coprocessor; here the software implementation stands in for it and the
// device model accounts for its cost separately).
//
// The kernel is built for throughput — every tuple in every protocol passes
// through it, so it dominates the cost model (§6.1):
//
//  * the portable path is a 32-bit T-table cipher;
//  * on x86-64 with AES-NI the same key schedule drives AESENC, selected at
//    runtime (see aes_dispatch.h);
//  * EncryptBlocks processes batches so CTR mode can generate keystream
//    several blocks per call and the hardware path can keep multiple blocks
//    in flight.
//
// There is no decryption direction: every scheme here is CTR mode, which
// decrypts by encrypting the counters again, so the inverse cipher would
// never run.
//
// It is not constant-time on the portable path; in this repository it only
// ever runs inside the simulated trusted enclave.
#ifndef TCELLS_CRYPTO_AES_H_
#define TCELLS_CRYPTO_AES_H_

#include <array>
#include <cstdint>

#include "common/bytes.h"
#include "common/result.h"

namespace tcells::crypto {

/// AES-128: 16-byte key, 16-byte blocks, 10 rounds.
class Aes128 {
 public:
  static constexpr size_t kBlockSize = 16;
  static constexpr size_t kKeySize = 16;
  /// 11 round keys of 16 bytes.
  static constexpr size_t kScheduleBytes = 176;

  /// Expands the encryption key schedule, as bytes and as 32-bit words.
  /// `key` must be exactly kKeySize bytes.
  static Result<Aes128> Create(const Bytes& key);

  /// Encrypts one 16-byte block in place.
  void EncryptBlock(uint8_t block[kBlockSize]) const;

  /// Encrypts `nblocks` consecutive 16-byte blocks from `in` to `out`.
  /// `in` and `out` may be the same buffer but must not partially overlap.
  void EncryptBlocks(const uint8_t* in, uint8_t* out, size_t nblocks) const;

 private:
  Aes128() = default;

  // Round keys in FIPS-197 byte order, the form AESENC takes.
  std::array<uint8_t, kScheduleBytes> enc_keys_{};
  // The same schedule packed as big-endian 32-bit words for the T-table
  // path, so no per-block repacking is needed.
  std::array<uint32_t, 44> enc_words_{};
};

}  // namespace tcells::crypto

#endif  // TCELLS_CRYPTO_AES_H_
