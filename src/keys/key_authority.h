// KeyAuthority: the trusted key-distribution center of the dynamic key mode.
//
// The authority owns the 16-byte authority master secret, derives every
// epoch master secret from it, enrolls TDSes into the complete-subtree
// broadcast tree, and publishes one EpochBlock per epoch. Revocation bumps
// the epoch and reseals the block with the revoked set excluded from the
// cover — one broadcast revokes any number of devices at once.
//
// In the simulation the authority also plays the querier's key agent
// (NewPosting / QuerierKeysFor) and the contribution verifier
// (VerifyContribution); in a deployment those would live in the querier's
// secure device, holding the same epoch secrets.
//
// Thread-safety: all methods may be called concurrently (the engine's
// scheduler workers verify contributions while a campaign hook revokes).
#ifndef TCELLS_KEYS_KEY_AUTHORITY_H_
#define TCELLS_KEYS_KEY_AUTHORITY_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "common/rng.h"
#include "crypto/broadcast.h"
#include "crypto/hmac.h"
#include "crypto/keystore.h"
#include "keys/epoch.h"
#include "ssi/messages.h"

namespace tcells::keys {

class KeyAuthority {
 public:
  /// `master` keys the whole epoch-secret schedule and the broadcast tree;
  /// `num_devices` is the TDS id space (ids 0..num_devices-1); `seed` drives
  /// the authority's own entropy (broadcast payload keys and IVs), so equal
  /// (master, num_devices, seed) yields byte-identical blocks.
  static Result<std::unique_ptr<KeyAuthority>> Create(const Bytes& master,
                                                      size_t num_devices,
                                                      uint64_t seed);

  size_t num_devices() const { return num_devices_; }

  /// The burn-time key material of TDS `tds_id`.
  Result<crypto::BroadcastDeviceKeys> EnrollDevice(uint64_t tds_id) const;

  uint32_t current_epoch() const;
  bool IsRevoked(uint64_t tds_id) const;

  /// The latest published block, encoded for the SSI.
  Bytes CurrentBlock() const;

  /// Revokes `tds_ids` (idempotent per id) and rolls the epoch; the new
  /// CurrentBlock() excludes them from the cover. InvalidArgument (nothing
  /// revoked) when an id is outside the id space; OutOfRange once the epoch
  /// counter is at its maximum — epochs never wrap back to 0.
  Status Revoke(const std::vector<uint64_t>& tds_ids);

  /// Rolls the epoch without changing the revoked set (periodic hygiene).
  /// OutOfRange once the epoch counter is at its maximum.
  Status Rollover();

  /// Querier side: draws the nonce of a fresh per-query posting from `rng`
  /// and stamps it with the current epoch.
  ssi::QueryKeyPosting NewPosting(uint64_t query_id, Rng* rng) const;

  /// Querier side: the session KeyStore of a posting. NotFound when the
  /// posting's epoch is outside the retained window.
  Result<std::shared_ptr<const crypto::KeyStore>> QuerierKeysFor(
      const ssi::QueryKeyPosting& posting) const;

  /// Admission check of one collection upload: the tag must carry the
  /// current epoch, come from a non-revoked TDS, and authenticate
  /// (query_id, digest) under that TDS's contribution key.
  /// PermissionDenied on any failure.
  Status VerifyContribution(const ContributionTag& tag, uint64_t query_id,
                            const Bytes& digest) const;

  /// Orders epoch publication against admission. A collection wave holds it
  /// shared from its uploaders' pre-tag refresh to its last
  /// VerifyContribution, and whoever rolls the epoch holds it exclusively
  /// until the new block is on the SSI. So a rollover lands before a wave's
  /// refresh or after its checks, never between a tag and its check, where
  /// it would turn honest uploads into stale-epoch rejections.
  std::shared_mutex& publication_mutex() const { return publication_mu_; }

 private:
  KeyAuthority(Bytes master, crypto::BroadcastChannel channel,
               size_t num_devices, uint64_t seed);

  /// Derives `epoch`'s secret window, seals it for the non-revoked cover and
  /// makes `epoch` current; on failure nothing changes.
  Status ResealLocked(uint32_t epoch);

  const Bytes master_;
  const crypto::BroadcastChannel channel_;
  const size_t num_devices_;

  mutable std::shared_mutex publication_mu_;
  mutable std::mutex mu_;
  Rng rng_;
  uint32_t epoch_ = 0;
  std::set<size_t> revoked_;
  /// The secrets the current block seals (inner_epoch == epoch_), derived
  /// once per epoch so admission checks and querier postings only look up.
  EpochSecrets window_;
  /// HMAC state of window_.secrets.back(), built once per epoch: an
  /// admission check copies it (no heap) and derives the TDS's key from it.
  crypto::HmacState secret_state_;
  Bytes current_block_;  ///< encoded EpochBlock of epoch_
};

}  // namespace tcells::keys

#endif  // TCELLS_KEYS_KEY_AUTHORITY_H_
