// QueryCache: the work every TDS serving one query repeats identically, done
// once per query. Each TDS opens the posted query itself (§3.2 steps 2-4):
// it analyzes the SQL, derives the session keys from its own epoch window
// and, under Det-tag collection, builds the fake tuples' payloads and tags.
// The query's CollectionConfig owns one cache, which every phase call of the
// query reaches and which is freed with the query, so a TDS still keeps
// nothing of a query after serving it. The device cost model still charges
// every TDS the paper's full cost.
//
// Entries are keyed by what the deriving TDS itself holds (its interned
// catalog and decrypted SQL, the epoch secret of its own window, its
// KeyStore) and hold their keys alive, so a TDS reaches only what it could
// derive itself: a revoked TDS never reaches a later posting's keys. A
// query's fleet shares one shape, text and key set, so each list holds an
// entry or a few; a lookup is a scan and a hit allocates nothing. Errors are
// not cached. Thread-safe: a miss builds under the lock, so racing misses
// build once.
#ifndef TCELLS_TDS_QUERY_CACHE_H_
#define TCELLS_TDS_QUERY_CACHE_H_

#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "crypto/keystore.h"
#include "keys/tds_keys.h"
#include "sql/analyzer.h"
#include "ssi/messages.h"
#include "storage/schema.h"
#include "storage/tuple.h"

namespace tcells::tds {

/// What a Det-tag collection seals for each domain value, by domain index:
/// apart from its nDet IV, a fake tuple is a pure function of the query, the
/// value, the padding and k2.
struct FakeTemplates {
  /// ssi::EncodePayload(kFakeTuple, value + NULLs to the collection arity,
  /// pad): the plaintext of a fake of that group.
  std::vector<Bytes> payloads;
  /// Det_Enc_k2(value): the routing tag of every item of that group.
  std::vector<Bytes> tags;
};

class QueryCache {
 public:
  /// Parse + analyze `text` against `catalog`, an interned storage::Catalog
  /// (Catalog::Intern), so every same-shape TDS reaches one entry.
  Result<std::shared_ptr<const sql::AnalyzedQuery>> Analysis(
      std::string_view text,
      const std::shared_ptr<const storage::Catalog>& catalog);

  /// The session KeyStore of `posting`, derived from the posting epoch's
  /// secret as `state` yields it (keys::TdsKeyState::SecretFor, which
  /// refreshes once on a window miss). NotFound when that epoch is
  /// unreachable for the TDS.
  Result<std::shared_ptr<const crypto::KeyStore>> SessionKeys(
      keys::TdsKeyState& state, const ssi::QueryKeyPosting& posting);

  /// The templates of `domain` for `query` under `keys` at
  /// `pad_payload_to`. FailedPrecondition on a null or empty domain.
  Result<std::shared_ptr<const FakeTemplates>> Fakes(
      const std::shared_ptr<const sql::AnalyzedQuery>& query,
      const std::shared_ptr<const crypto::KeyStore>& keys,
      const std::shared_ptr<const std::vector<storage::Tuple>>& domain,
      size_t pad_payload_to);

 private:
  struct AnalysisEntry {
    std::shared_ptr<const storage::Catalog> catalog;
    std::string sql;
    std::shared_ptr<const sql::AnalyzedQuery> value;
  };
  struct KeysEntry {
    Bytes secret;
    ssi::QueryKeyPosting posting;
    std::shared_ptr<const crypto::KeyStore> value;
  };
  struct FakesEntry {
    std::shared_ptr<const sql::AnalyzedQuery> query;
    std::shared_ptr<const crypto::KeyStore> keys;
    std::shared_ptr<const std::vector<storage::Tuple>> domain;
    size_t pad_payload_to = 0;
    std::shared_ptr<const FakeTemplates> value;
  };

  std::mutex mu_;
  std::vector<AnalysisEntry> analyses_;
  std::vector<KeysEntry> keys_;
  std::vector<FakesEntry> fakes_;
};

}  // namespace tcells::tds

#endif  // TCELLS_TDS_QUERY_CACHE_H_
