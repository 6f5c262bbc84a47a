// The two symmetric encryption schemes the paper's protocols rely on:
//
//  * nDet_Enc — probabilistic (non-deterministic) encryption: AES-128-CTR
//    under a fresh random IV, plus an HMAC tag (encrypt-then-MAC). Several
//    encryptions of the same message yield different ciphertexts, so an
//    honest-but-curious SSI cannot run frequency-based attacks.
//
//  * Det_Enc — deterministic encryption: SIV construction, IV =
//    HMAC(k_mac, plaintext) truncated to 16 bytes, then AES-128-CTR. Equal
//    plaintexts yield equal ciphertexts (this is what lets SSI group tuples
//    by Det_Enc(A_G) in the Noise protocols), and the synthetic IV doubles
//    as an authenticator on decryption.
//
// Both schemes are key-separated from a single 16-byte master key via
// DeriveKey labels, and both precompute their HMAC key state at Create time
// so an n-byte MAC costs ceil((n + 9) / 64) + 1 compression calls and no
// per-key work (see hmac.h).
//
// Every Encrypt/Decrypt has a span-in, buffer-out form that reuses the
// output vector's capacity — the hot paths (TDS seal/open of every tuple in
// every partition) call these with a per-partition scratch buffer and never
// allocate once the buffer has grown to the partition's item size.
#ifndef TCELLS_CRYPTO_ENCRYPTION_H_
#define TCELLS_CRYPTO_ENCRYPTION_H_

#include <cstdint>
#include <memory>

#include "common/bytes.h"
#include "common/result.h"
#include "common/rng.h"
#include "crypto/aes.h"
#include "crypto/hmac.h"

namespace tcells::crypto {

/// Probabilistic authenticated encryption (nDet_Enc in the paper).
/// Wire format: IV(16) || CTR-ciphertext(len) || tag(8).
class NDetEnc {
 public:
  static constexpr size_t kIvSize = 16;
  static constexpr size_t kTagSize = 8;
  /// Ciphertext expansion over the plaintext length.
  static constexpr size_t kOverhead = kIvSize + kTagSize;

  /// `master_key` must be 16 bytes; enc and mac subkeys are derived from it.
  static Result<NDetEnc> Create(const Bytes& master_key);

  /// Encrypts with a fresh IV drawn from `rng` (the simulation's reproducible
  /// entropy source standing in for the token's hardware TRNG).
  Bytes Encrypt(const Bytes& plaintext, Rng* rng) const;
  /// Same, into `out` (overwritten; capacity reused).
  void Encrypt(const uint8_t* plaintext, size_t n, Rng* rng, Bytes* out) const;
  /// Zero-allocation form, the mirror of DecryptInto: writes exactly
  /// `n + kOverhead` ciphertext bytes to `out` (caller-sized, e.g. the
  /// encoding of an item vector being sealed). Draws the IV like Encrypt.
  void EncryptInto(const uint8_t* plaintext, size_t n, Rng* rng,
                   uint8_t* out) const;

  /// Decrypts and verifies the tag; Corruption on any mismatch.
  Result<Bytes> Decrypt(const Bytes& ciphertext) const;
  /// Same, into `out` (overwritten; capacity reused). `out` is untouched on
  /// authentication failure.
  Status Decrypt(const uint8_t* ciphertext, size_t n, Bytes* out) const;
  /// Zero-allocation form: writes exactly `n - kOverhead` plaintext bytes to
  /// `out` (caller-sized, e.g. arena-backed). `out` may hold keystream XOR
  /// garbage if the tag check fails, so discard it on error.
  Status DecryptInto(const uint8_t* ciphertext, size_t n, uint8_t* out) const;

 private:
  NDetEnc(Aes128 aes, HmacState mac);

  Aes128 aes_;
  HmacState mac_;
};

/// Deterministic authenticated encryption (Det_Enc in the paper), SIV-style.
/// Wire format: SIV(16) || CTR-ciphertext(len).
class DetEnc {
 public:
  static constexpr size_t kIvSize = 16;
  static constexpr size_t kOverhead = kIvSize;

  static Result<DetEnc> Create(const Bytes& master_key);

  /// Same plaintext (under the same key) always produces the same bytes.
  Bytes Encrypt(const Bytes& plaintext) const;
  /// Same, into `out` (overwritten; capacity reused).
  void Encrypt(const uint8_t* plaintext, size_t n, Bytes* out) const;

  /// Decrypts and recomputes the SIV; Corruption on mismatch.
  Result<Bytes> Decrypt(const Bytes& ciphertext) const;
  /// Same, into `out` (overwritten; capacity reused). `out` holds the
  /// candidate plaintext even on SIV mismatch (it is cleared then).
  Status Decrypt(const uint8_t* ciphertext, size_t n, Bytes* out) const;

 private:
  DetEnc(Aes128 aes, HmacState mac);

  Aes128 aes_;
  HmacState mac_;
};

/// AES-CTR keystream XOR shared by both schemes (exposed for tests). The
/// keystream is generated in batches of blocks (see kCtrBatchBlocks) straight
/// into a stack buffer; output is identical to block-at-a-time CTR.
void CtrXor(const Aes128& aes, const uint8_t iv[16], const uint8_t* in,
            size_t n, uint8_t* out);

/// Number of keystream blocks CtrXor generates per cipher call.
inline constexpr size_t kCtrBatchBlocks = 8;

}  // namespace tcells::crypto

#endif  // TCELLS_CRYPTO_ENCRYPTION_H_
