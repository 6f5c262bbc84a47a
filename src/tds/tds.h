// TrustedDataServer (TDS): the paper's unit of trust — a personal data
// server running inside a secure device. It hosts a local database behind an
// access-control policy and participates in the three protocol phases:
//
//  * collection  — decrypt the query, authenticate the querier, evaluate the
//                  WHERE clause (plus local internal joins) on local data and
//                  emit encrypted tuples (or a dummy);
//  * aggregation — decrypt a partition, drop dummy/fake items, fold tuples
//                  and partial aggregations into a GroupedAggregation, emit
//                  it re-encrypted;
//  * filtering   — decrypt the covering result, finalize groups / drop
//                  dummies, apply HAVING, emit result rows under k1.
//
// Everything that crosses the TDS boundary is ciphertext; the only cleartext
// channel is the routing tag a protocol deliberately exposes.
//
// A TDS keeps nothing of a query after serving it: each phase call carries
// everything it needs (the post, or the analyzed query plus the key
// posting). Thread-safety: no phase call writes a TDS member, so concurrent
// calls — several queries' phases on one TDS, as the engine scheduler
// produces — read only immutable members and `db_` and need no lock. What
// they reach through pointers (the key state, the leak log) is thread-safe
// itself. The setters (set_leak_log, InstallKeyState, RestoreDatabase) are
// setup-time and must not race a phase call.
#ifndef TCELLS_TDS_TDS_H_
#define TCELLS_TDS_TDS_H_

#include <cstdint>
#include <memory>
#include <optional>

#include "common/result.h"
#include "common/rng.h"
#include "crypto/keystore.h"
#include "keys/tds_keys.h"
#include "sql/analyzer.h"
#include "sql/executor.h"
#include "ssi/messages.h"
#include "storage/secure_store.h"
#include "storage/table.h"
#include "tds/access_control.h"
#include "tds/config.h"
#include "tds/leak_log.h"

namespace tcells::tds {

/// Construction parameters shared by a fleet.
struct TdsOptions {
  /// RAM budget for the partial aggregate structure; 0 = unlimited. The
  /// paper's board has 64 KB (§6.2); S_Agg's feasibility depends on it.
  size_t ram_budget_bytes = 0;
  /// Non-null marks the TDS as COMPROMISED (threat-model extension): it
  /// follows the protocol but records every plaintext it decrypts into the
  /// log, modeling an attacker who extracted k2 from the device.
  std::shared_ptr<LeakLog> leak_log;
};

class TrustedDataServer {
 public:
  TrustedDataServer(uint64_t id,
                    std::shared_ptr<const crypto::KeyStore> keys,
                    std::shared_ptr<const Authority> authority,
                    AccessPolicy policy,
                    TdsOptions options = {});

  uint64_t id() const { return id_; }
  storage::Database& db() { return db_; }
  const storage::Database& db() const { return db_; }

  /// Marks this TDS compromised post-construction (threat extension): every
  /// plaintext it subsequently decrypts is recorded into `log`.
  void set_leak_log(std::shared_ptr<LeakLog> log) {
    options_.leak_log = std::move(log);
  }

  /// Dynamic key mode: attaches this TDS's key state (borrowed; must outlive
  /// the TDS). Once installed, queries carrying a key posting are served
  /// under per-query session keys derived through it; postings on a TDS
  /// without key state fail with FailedPrecondition.
  void InstallKeyState(keys::TdsKeyState* state) { key_state_ = state; }
  keys::TdsKeyState* key_state() const { return key_state_; }

  /// Dynamic key mode: authenticates one collection upload (epoch-stamped
  /// HMAC over query_id + the items' digest). FailedPrecondition without an
  /// installed key state.
  Result<keys::ContributionTag> TagContribution(
      uint64_t query_id, const std::vector<ssi::EncryptedItem>& items);

  /// Power-down: seals the local database into an encrypted flash image
  /// (Fig 1's untrusted mass storage) under the device storage key.
  Result<storage::SecureDatabase::Image> SealDatabase(
      const Bytes& storage_key, Rng* rng) const {
    return storage::SecureDatabase::Seal(db_, storage_key, rng);
  }

  /// Power-up: verifies and restores the database from a flash image,
  /// replacing the in-memory state.
  Status RestoreDatabase(const storage::SecureDatabase::Image& image,
                         const Bytes& storage_key) {
    TCELLS_ASSIGN_OR_RETURN(storage::Database db,
                            storage::SecureDatabase::Open(image, storage_key));
    db_ = std::move(db);
    return Status::OK();
  }

  /// Collection phase (§3.2 steps 2-4 / §4 collection). Opens the post on
  /// every call: resolves the query's KeyStore, decrypts the SQL under k1,
  /// analyzes it (sql::AnalyzeSqlShared, memoized fleet-wide on the
  /// database's interned catalog, so a repeat serve on any same-shape TDS
  /// neither re-parses nor builds a key), verifies the credential and checks
  /// the access policy. Returns the items to upload: true tuples (plus noise
  /// under kDetTag) or a single dummy when the local result is empty or
  /// access was denied — a denial is answered, never reported, so the SSI
  /// cannot learn who denied. Re-serving a post repeats only deterministic
  /// work; with equal rng states it yields byte-identical items.
  Result<std::vector<ssi::EncryptedItem>> ProcessCollection(
      const ssi::QueryPost& post, const CollectionConfig& config, Rng* rng);

  /// Aggregation phase (steps 6-8): folds one partition into partial
  /// aggregations. Tag policy selects the output shape (see config.h).
  /// ResourceExhausted if the partial aggregate exceeds the RAM budget.
  Result<std::vector<ssi::EncryptedItem>> ProcessAggregationPartition(
      const sql::AnalyzedQuery& query, const ssi::Partition& partition,
      OutputTagPolicy tag_policy, const CollectionConfig& config, Rng* rng);

  /// Filtering phase (steps 9-12): turns the covering result into final
  /// result rows encrypted under k1. For aggregation queries the partition
  /// items are finished per-group aggregations; for plain SFW queries they
  /// are collection tuples whose dummies must be dropped.
  Result<std::vector<ssi::EncryptedItem>> ProcessFiltering(
      const sql::AnalyzedQuery& query, const ssi::Partition& partition,
      Rng* rng, const CollectionConfig& config = {});

  /// Encodes the canonical group-key bytes used for Det tags.
  Bytes GroupKeyTagBytes(const crypto::KeyStore& keys,
                         const storage::Tuple& collection_tuple,
                         size_t key_arity) const;

 private:
  /// The KeyStore a query runs under: the static provisioned store when
  /// `posting` is absent, the per-query session store derived through the
  /// installed key state when present. NotFound when a revoked/stale TDS
  /// cannot reach the posting's epoch.
  Result<std::shared_ptr<const crypto::KeyStore>> KeysForQuery(
      const std::optional<ssi::QueryKeyPosting>& posting) const;
  /// Seals one dummy item, shaped/tagged per the collection mode, under k2
  /// into `out`.
  Status SealDummy(const crypto::KeyStore& keys,
                   const sql::AnalyzedQuery& query,
                   const CollectionConfig& config, Rng* rng,
                   ssi::ItemsBuilder* out) const;

  uint64_t id_;
  std::shared_ptr<const crypto::KeyStore> keys_;
  keys::TdsKeyState* key_state_ = nullptr;
  std::shared_ptr<const Authority> authority_;
  AccessPolicy policy_;
  TdsOptions options_;
  storage::Database db_;
};

}  // namespace tcells::tds

#endif  // TCELLS_TDS_TDS_H_
