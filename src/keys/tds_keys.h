// TdsKeyState: the per-TDS view of the dynamic key schedule.
//
// A TDS is burned with its broadcast device keys at enrollment and learns
// epoch secrets exclusively by fetching the latest EpochBlock from the SSI
// (through an EpochBlockSource) and adopting it. The state never trusts a
// block blindly: a block that fails to decode, fails broadcast decryption
// (the TDS is revoked), fails body authentication (a forged rollover), or
// whose sealed inner epoch disagrees with its public epoch is refused, and
// the TDS keeps operating on the last good window — so the worst a hostile
// block source can do is pin the TDS to a stale epoch, which the authority's
// admission check then surfaces as rejected contributions rather than wrong
// answers.
//
// Refresh is fetch, then Adopt. Fleets refresh in batches (RefreshAll: one
// batched fetch, then every state validates its own reply), at the points
// where key material is needed: the engine primes every TDS at bring-up, and
// each collection tick refreshes the TDSs whose window lacks a posting's
// epoch before they serve, and the TDSs about to tag an upload right before
// they tag. Tag itself never fetches. KeysFor falls back to one refresh of
// its own on a window miss, for callers outside those batches.
//
// The fetch is conditional: each request carries the EpochBlockTag of the
// last block the state adopted, and a source may answer a match with an
// empty body instead of the block. Adopting bytes already accepted is always
// an OK no-op, so that reply ends the refresh with OK and touches nothing.
//
// Session keys come from the process-wide memo (DeriveQueryKeysShared), which
// a TDS reaches only with the secret its own window produced; the state
// caches no KeyStore of its own.
//
// Thread-safety: all methods may be called concurrently (collection serving
// runs on a thread pool).
#ifndef TCELLS_KEYS_TDS_KEYS_H_
#define TCELLS_KEYS_TDS_KEYS_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "crypto/broadcast.h"
#include "crypto/keystore.h"
#include "keys/epoch.h"
#include "obs/metrics.h"
#include "ssi/messages.h"

namespace tcells::keys {

/// Where a TDS fetches the latest published EpochBlock from. The engine
/// adapts its SSI client behind this so src/keys stays transport-agnostic.
class EpochBlockSource {
 public:
  virtual ~EpochBlockSource() = default;
  /// One reply per id, in input order. `held_tags[i]` is the EpochBlockTag
  /// of the last block tds_ids[i] adopted (0: none yet). A reply is the
  /// latest block, or an empty body when that block's tag is held_tags[i];
  /// a source may always answer with the block.
  virtual std::vector<Result<Bytes>> FetchLatestBlocks(
      const std::vector<uint64_t>& tds_ids,
      const std::vector<uint64_t>& held_tags) = 0;
};

/// Pre-registered instruments of the refresh path (docs/OBSERVABILITY.md).
/// All four must be non-null.
struct RefreshCounters {
  obs::Counter* fetched = nullptr;  ///< refresh replies, plus direct Adopts
  obs::Counter* adopted = nullptr;  ///< blocks that advanced the window
  obs::Counter* refused = nullptr;  ///< blocks that failed validation
  obs::Counter* current = nullptr;  ///< replies that carried no block
};

class TdsKeyState {
 public:
  /// `source` and `counters` (optional) are borrowed and must outlive the
  /// state.
  TdsKeyState(uint64_t tds_id, crypto::BroadcastDeviceKeys device_keys,
              EpochBlockSource* source,
              const RefreshCounters* counters = nullptr);

  uint64_t tds_id() const { return tds_id_; }

  /// RefreshAll of this state alone.
  Status Refresh();

  /// Fetches the latest block for many states and adopts it: the states
  /// sharing the first state's source (all of an engine's do) fetch through
  /// one FetchLatestBlocks call, then each adopts its own reply; any other
  /// state refreshes on its own. An empty reply to a state holding a block
  /// is OK and changes nothing. One status per state; failures leave the
  /// state untouched.
  static std::vector<Status> RefreshAll(
      const std::vector<TdsKeyState*>& states);

  /// Adopts an encoded block's window when it is valid and newer than what
  /// the TDS holds; a same-epoch or older block is an OK no-op (a replay can
  /// never roll a TDS backwards). NotFound means the TDS is excluded from
  /// the cover (revoked), Corruption a malformed, forged or re-stamped block;
  /// either way the state is untouched. An OK Adopt records the block's
  /// EpochBlockTag for the next conditional fetch.
  Status Adopt(const Bytes& encoded);

  /// Whether the adopted window holds `epoch`'s secret.
  bool Reaches(uint32_t epoch) const;

  /// The session KeyStore of a query posting, refreshing once on a window
  /// miss. NotFound when the posting's epoch is unreachable for this TDS
  /// (revoked before the epoch, or the window rolled past it).
  Result<std::shared_ptr<const crypto::KeyStore>> KeysFor(
      const ssi::QueryKeyPosting& posting);

  /// Tags one collection upload under the newest adopted epoch; the caller
  /// refreshes first. A revoked TDS is stuck with its pre-revocation epoch
  /// and the authority rejects the stale tag. FailedPrecondition before the
  /// first adopted window.
  Result<ContributionTag> Tag(uint64_t query_id, const Bytes& digest) const;

  /// The newest epoch this TDS has adopted; NotFound before the first
  /// adopted window.
  Result<uint32_t> known_epoch() const;

 private:
  Status AdoptLocked(const Bytes& encoded);
  uint64_t held_tag() const;
  /// A copy of `epoch`'s secret; NotFound outside the window.
  Result<Bytes> SecretFor(uint32_t epoch) const;

  const uint64_t tds_id_;
  const crypto::BroadcastDeviceKeys device_keys_;
  EpochBlockSource* const source_;
  const RefreshCounters* const counters_;

  mutable std::mutex mu_;
  bool has_window_ = false;
  EpochSecrets window_;  ///< last good window; back() is the newest secret
  Bytes contribution_key_;  ///< derived from window_.secrets.back()
  uint64_t held_tag_ = 0;  ///< EpochBlockTag of the last OK Adopt; 0: none
};

}  // namespace tcells::keys

#endif  // TCELLS_KEYS_TDS_KEYS_H_
