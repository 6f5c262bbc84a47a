#include "crypto/keystore.h"

#include "common/rng.h"
#include "crypto/hmac.h"

namespace tcells::crypto {

KeyStore::KeyStore(NDetEnc k1_ndet, NDetEnc k2_ndet, DetEnc k2_det,
                   Bytes k2_hash)
    : k1_ndet_(std::move(k1_ndet)),
      k2_ndet_(std::move(k2_ndet)),
      k2_det_(std::move(k2_det)),
      k2_hash_(std::move(k2_hash)),
      k2_hash_state_(k2_hash_) {}

Result<std::shared_ptr<const KeyStore>> KeyStore::Create(const Bytes& k1,
                                                         const Bytes& k2) {
  TCELLS_ASSIGN_OR_RETURN(NDetEnc k1_ndet, NDetEnc::Create(k1));
  TCELLS_ASSIGN_OR_RETURN(NDetEnc k2_ndet, NDetEnc::Create(k2));
  TCELLS_ASSIGN_OR_RETURN(DetEnc k2_det, DetEnc::Create(k2));
  Bytes k2_hash = DeriveKey(k2, "bucket-hash");
  return std::shared_ptr<const KeyStore>(new KeyStore(
      std::move(k1_ndet), std::move(k2_ndet), std::move(k2_det),
      std::move(k2_hash)));
}

std::shared_ptr<const KeyStore> KeyStore::CreateForTest(uint64_t seed) {
  Rng rng(seed);
  Bytes k1 = rng.NextBytes(16);
  Bytes k2 = rng.NextBytes(16);
  auto result = Create(k1, k2);
  // Key sizes are correct by construction; Create cannot fail here.
  return std::move(result).ValueOrDie();
}

}  // namespace tcells::crypto
