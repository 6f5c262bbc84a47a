// Key epochs and the messages of the dynamic key-management subsystem
// (docs/KEYS.md).
//
// The static deployment model provisions one k1/k2 pair for the lifetime of
// the fleet. Dynamic key management replaces that with a key authority that
// publishes, per *epoch*, an EpochBlock: a complete-subtree broadcast
// (crypto/broadcast.h) whose sealed body carries the epoch master secrets of
// a short trailing window. Revocation is an epoch rollover that excludes the
// revoked TDS ids from the broadcast cover — a revoked TDS cannot open any
// block sealed after its revocation, so it is cut off from every later
// epoch's secrets in one message, regardless of how many devices are revoked
// at once.
//
// Per-query keys (To/Nguyen/Pucheral, arXiv 1509.03646): the querier draws a
// fresh nonce, publishes (epoch, query_id, nonce) in the QueryPost, and both
// sides independently derive
//
//   k1q = DeriveKey(ems(epoch), "qk1-<query_id>-<hex nonce>")
//   k2q = DeriveKey(ems(epoch), "qk2-<query_id>-<hex nonce>")
//
// from the epoch master secret ems(epoch). The SSI sees only the public
// posting; without ems it learns nothing about the session keys.
//
// Contribution authentication: each collection upload is accompanied by a
// ContributionTag — an HMAC under a per-TDS key derived from the *current*
// epoch secret — which the authority verifies before the upload is admitted.
// A revoked TDS is pinned to its pre-revocation epoch (it cannot refresh),
// so every contribution it makes after the revocation broadcast carries a
// stale epoch and is rejected.
#ifndef TCELLS_KEYS_EPOCH_H_
#define TCELLS_KEYS_EPOCH_H_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "crypto/broadcast.h"
#include "crypto/hmac.h"
#include "crypto/keystore.h"
#include "ssi/messages.h"

namespace tcells::keys {

/// How many trailing epoch secrets one EpochBlock carries. A TDS that was
/// offline for up to kEpochWindow-1 rollovers can still derive the session
/// keys of queries posted under those missed epochs; anything older requires
/// the query to be re-posted under a fresh epoch.
inline constexpr uint32_t kEpochWindow = 8;

/// One epoch's published key block: the broadcast-encrypted bundle of the
/// trailing epoch master secrets. Stored verbatim by the SSI (it cannot open
/// it) and fetched by TDSes on refresh.
struct EpochBlock {
  uint32_t epoch = 0;
  crypto::BroadcastMessage message;

  Bytes Encode() const;
  /// Corruption unless the header's node ids are nonzero and strictly
  /// ascending, as BroadcastChannel::Encrypt emits them.
  static Result<EpochBlock> Decode(const Bytes& data);
};

/// Codec of the sealed EpochBlock body: the epoch the block claims from the
/// inside plus the window of master secrets (oldest first, 16 bytes each,
/// covering epochs inner_epoch-secrets.size()+1 .. inner_epoch).
Bytes EncodeEpochSecrets(uint32_t inner_epoch,
                         const std::vector<Bytes>& secrets);

struct EpochSecrets {
  uint32_t inner_epoch = 0;
  std::vector<Bytes> secrets;  ///< oldest first; back() is inner_epoch's

  /// The secret of `epoch`, or null when outside the carried window.
  const Bytes* SecretFor(uint32_t epoch) const;
};
Result<EpochSecrets> DecodeEpochSecrets(const Bytes& data);

/// The authenticator accompanying one TDS collection upload. Never crosses
/// the SSI wire — the querier-side session verifies it before forwarding the
/// upload — but it is a fixed-format struct so campaigns can forge and
/// replay it.
struct ContributionTag {
  uint32_t epoch = 0;   ///< the epoch whose secret keyed the MAC
  uint64_t tds_id = 0;
  Bytes mac;            ///< HMAC-SHA-256 (32 bytes)
};

/// Derivation helpers shared by the authority and the TDS side; both sides
/// must agree on these labels byte-for-byte.
Bytes DeriveEpochSecret(const Bytes& authority_master, uint32_t epoch);
/// The HMAC state of TDS `tds_id`'s contribution key under an epoch secret's
/// state: built once per (epoch, TDS) by the TDS, once per check by the
/// authority.
crypto::HmacState ContributionKey(const crypto::HmacState& epoch_secret,
                                  uint64_t tds_id);
Result<std::shared_ptr<const crypto::KeyStore>> DeriveQueryKeys(
    const Bytes& epoch_secret, const ssi::QueryKeyPosting& posting);

/// Digest binding a contribution tag to the exact uploaded items.
Bytes ContributionDigest(const std::vector<ssi::EncryptedItem>& items);

/// MAC over (query_id, digest) under the per-TDS contribution key.
std::array<uint8_t, 32> ContributionMac(
    const crypto::HmacState& contribution_key, uint64_t query_id,
    const Bytes& digest);

}  // namespace tcells::keys

#endif  // TCELLS_KEYS_EPOCH_H_
