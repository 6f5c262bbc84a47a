// AES-128 block cipher (the TDS hardware in the paper has an AES
// coprocessor; here the software implementation stands in for it and the
// device model accounts for its cost separately).
//
// The kernel is built for throughput — every tuple in every protocol passes
// through it, so it dominates the cost model (§6.1):
//
//  * the portable path is a 32-bit T-table cipher; decryption uses the
//    equivalent inverse cipher with InvMixColumns folded into round keys
//    precomputed at Create time (no per-byte GF(2^8) multiplies per block);
//  * on x86-64 with AES-NI the same key schedules drive AESENC/AESDEC,
//    selected at runtime (see aes_dispatch.h);
//  * EncryptBlocks/DecryptBlocks process batches so CTR mode can generate
//    keystream several blocks per call and the hardware path can keep
//    multiple blocks in flight.
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

  /// Expands the encryption key schedule and the equivalent-inverse-cipher
  /// decryption schedule, both as 32-bit words: InvMixColumns of a round
  /// key is a few branch-free word operations, not byte multiplies or a
  /// table indexed by key bytes. `key` must be exactly kKeySize bytes.
  static Result<Aes128> Create(const Bytes& key);

  /// Encrypts one 16-byte block in place.
  void EncryptBlock(uint8_t block[kBlockSize]) const;

  /// Decrypts one 16-byte block in place.
  void DecryptBlock(uint8_t block[kBlockSize]) const;

  /// Encrypts `nblocks` consecutive 16-byte blocks from `in` to `out`.
  /// `in` and `out` may be the same buffer but must not partially overlap.
  void EncryptBlocks(const uint8_t* in, uint8_t* out, size_t nblocks) const;

  /// Decrypts `nblocks` consecutive 16-byte blocks from `in` to `out`.
  void DecryptBlocks(const uint8_t* in, uint8_t* out, size_t nblocks) const;

  /// Round keys in FIPS-197 byte order (AddRoundKey order for encryption).
  const uint8_t* enc_schedule() const { return enc_keys_.data(); }
  /// Equivalent-inverse-cipher round keys, first-applied first: schedule[0]
  /// is the last encryption round key, the middle nine are InvMixColumns of
  /// encryption round keys 9..1, schedule[160] is the original key.
  const uint8_t* dec_schedule() const { return dec_keys_.data(); }

 private:
  Aes128() = default;

  std::array<uint8_t, kScheduleBytes> enc_keys_{};
  std::array<uint8_t, kScheduleBytes> dec_keys_{};
  // The same schedules packed as big-endian 32-bit words for the T-table
  // path, so no per-block repacking is needed.
  std::array<uint32_t, 44> enc_words_{};
  std::array<uint32_t, 44> dec_words_{};
};

}  // namespace tcells::crypto

#endif  // TCELLS_CRYPTO_AES_H_
