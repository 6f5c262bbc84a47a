// KeyStore: the cryptographic material shared by TDSs and the querier.
//
// Per the paper (§3.1): k1 is the symmetric key shared by the querier and
// the TDSs (queries in, final results out); k2 is shared among TDSs only and
// protects intermediate results flowing through the SSI. How these keys are
// provisioned (burn time, PKI, broadcast encryption) is context-dependent and
// out of scope — the store just holds them. The SSI never holds a KeyStore.
#ifndef TCELLS_CRYPTO_KEYSTORE_H_
#define TCELLS_CRYPTO_KEYSTORE_H_

#include <memory>

#include "common/bytes.h"
#include "common/result.h"
#include "crypto/encryption.h"
#include "crypto/hmac.h"

namespace tcells::crypto {

/// Immutable bundle of the schemes derived from k1 and k2. Shared (by
/// shared_ptr) across all simulated TDSs of one deployment.
class KeyStore {
 public:
  /// Builds every scheme from the two 16-byte master keys.
  static Result<std::shared_ptr<const KeyStore>> Create(const Bytes& k1,
                                                        const Bytes& k2);

  /// Convenience: derive k1/k2 from a deployment seed (test/simulation use).
  static std::shared_ptr<const KeyStore> CreateForTest(uint64_t seed);

  /// Querier <-> TDS channel (queries, final results).
  const NDetEnc& k1_ndet() const { return k1_ndet_; }
  /// TDS <-> TDS channel, probabilistic (S_Agg tuples, partial aggregates).
  const NDetEnc& k2_ndet() const { return k2_ndet_; }
  /// TDS <-> TDS channel, deterministic (Noise protocols' A_G, ED_Hist's
  /// second-phase group keys).
  const DetEnc& k2_det() const { return k2_det_; }
  /// Key for the ED_Hist bucket hash h(bucketId).
  const Bytes& k2_hash() const { return k2_hash_; }
  /// HMAC key schedule of k2_hash(), built once: what KeyedHash64 takes.
  const HmacState& k2_hash_state() const { return k2_hash_state_; }

 private:
  KeyStore(NDetEnc k1_ndet, NDetEnc k2_ndet, DetEnc k2_det, Bytes k2_hash);

  NDetEnc k1_ndet_;
  NDetEnc k2_ndet_;
  DetEnc k2_det_;
  Bytes k2_hash_;
  HmacState k2_hash_state_;
};

}  // namespace tcells::crypto

#endif  // TCELLS_CRYPTO_KEYSTORE_H_
