// TdsKeyState: the per-TDS view of the dynamic key schedule.
//
// A TDS is burned with its broadcast device keys at enrollment and learns
// epoch secrets exclusively by fetching the latest EpochBlock from the SSI
// (through an EpochBlockSource) and opening it. The state never trusts a
// block blindly: a block that fails to decode, fails broadcast decryption
// (the TDS is revoked), fails body authentication (a forged rollover), or
// whose sealed inner epoch disagrees with its public epoch is ignored, and
// the TDS keeps operating on the last good window — so the worst a hostile
// block source can do is pin the TDS to a stale epoch, which the authority's
// admission check then surfaces as rejected contributions rather than wrong
// answers.
//
// Thread-safety: all methods may be called concurrently (collection serving
// runs on a thread pool).
#ifndef TCELLS_KEYS_TDS_KEYS_H_
#define TCELLS_KEYS_TDS_KEYS_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>

#include "common/bytes.h"
#include "common/result.h"
#include "crypto/broadcast.h"
#include "crypto/keystore.h"
#include "keys/epoch.h"
#include "ssi/messages.h"

namespace tcells::keys {

/// Where a TDS fetches the latest published EpochBlock from. The engine
/// adapts its SSI client behind this so src/keys stays transport-agnostic.
class EpochBlockSource {
 public:
  virtual ~EpochBlockSource() = default;
  virtual Result<Bytes> FetchLatestBlock(uint64_t tds_id) = 0;
};

class TdsKeyState {
 public:
  /// Session KeyStores one TDS keeps cached. The cache is first-in
  /// first-out: the oldest posting's keys are evicted when a new one
  /// arrives at capacity, and re-derived byte-identically on a later miss.
  /// Four times the engine's default query concurrency
  /// (Engine::Config::max_inflight_queries = 4), so every posting a TDS
  /// serves in one collection pass — and the postings of queries finishing
  /// meanwhile — stays cached through that query's rounds.
  static constexpr size_t kSessionCacheCapacity = 16;

  /// `source` is borrowed and must outlive the state.
  TdsKeyState(uint64_t tds_id, crypto::BroadcastDeviceKeys device_keys,
              EpochBlockSource* source);

  uint64_t tds_id() const { return tds_id_; }

  /// Fetches the latest block and adopts its window when it is valid and
  /// newer than what the TDS already holds. Failures leave the state
  /// untouched: NotFound means the TDS is excluded from the cover (revoked),
  /// Corruption means the block was malformed or forged.
  Status Refresh();

  /// The session KeyStore of a query posting, refreshing once on a window
  /// miss. NotFound when the posting's epoch is unreachable for this TDS
  /// (revoked before the epoch, or the window rolled past it).
  Result<std::shared_ptr<const crypto::KeyStore>> KeysFor(
      const ssi::QueryKeyPosting& posting);

  /// Tags one collection upload. Refreshes first (best-effort) so an honest
  /// TDS always authenticates under the newest epoch it can reach; a revoked
  /// TDS is stuck with its pre-revocation epoch and the authority rejects
  /// the stale tag.
  Result<ContributionTag> Tag(uint64_t query_id, const Bytes& digest);

  /// The newest epoch this TDS has adopted; NotFound before the first
  /// successful Refresh.
  Result<uint32_t> known_epoch() const;

  /// Postings whose session keys are cached (<= kSessionCacheCapacity).
  size_t session_cache_size() const;

 private:
  Status RefreshLocked();

  const uint64_t tds_id_;
  const crypto::BroadcastDeviceKeys device_keys_;
  EpochBlockSource* const source_;

  mutable std::mutex mu_;
  bool has_window_ = false;
  EpochSecrets window_;  ///< last good window; back() is the newest secret
  /// Session-key cache keyed by the encoded posting, so every partition of
  /// one query derives once; `session_order_` lists its keys oldest first.
  std::map<Bytes, std::shared_ptr<const crypto::KeyStore>> session_cache_;
  std::deque<Bytes> session_order_;
};

}  // namespace tcells::keys

#endif  // TCELLS_KEYS_TDS_KEYS_H_
