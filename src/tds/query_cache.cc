#include "tds/query_cache.h"

#include "keys/epoch.h"
#include "ssi/messages.h"

namespace tcells::tds {

namespace {

FakeTemplates BuildFakeTemplates(const sql::AnalyzedQuery& query,
                                 const crypto::KeyStore& keys,
                                 const std::vector<storage::Tuple>& domain,
                                 size_t pad_payload_to) {
  FakeTemplates out;
  out.payloads.reserve(domain.size());
  out.tags.reserve(domain.size());
  for (const storage::Tuple& fake_key : domain) {
    storage::Tuple fake = fake_key;
    for (size_t i = query.key_arity;
         i < query.collection_schema.num_columns(); ++i) {
      fake.Append(storage::Value::Null());
    }
    out.payloads.push_back(ssi::EncodePayload(
        ssi::PayloadKind::kFakeTuple, fake.Encode(), pad_payload_to));
    out.tags.push_back(keys.k2_det().Encrypt(fake_key.Encode()));
  }
  return out;
}

/// The value of the first entry of `entries` that `match` accepts, else
/// that of the entry `build()` returns, which is added.
template <typename Entry, typename Match, typename Build>
Result<decltype(Entry::value)> GetOrBuild(std::mutex& mu,
                                          std::vector<Entry>& entries,
                                          const Match& match,
                                          const Build& build) {
  std::lock_guard<std::mutex> lock(mu);
  for (const Entry& entry : entries) {
    if (match(entry)) return entry.value;
  }
  TCELLS_ASSIGN_OR_RETURN(Entry built, build());
  entries.push_back(std::move(built));
  return entries.back().value;
}

}  // namespace

Result<std::shared_ptr<const sql::AnalyzedQuery>> QueryCache::Analysis(
    std::string_view text,
    const std::shared_ptr<const storage::Catalog>& catalog) {
  return GetOrBuild(
      mu_, analyses_,
      [&](const AnalysisEntry& e) {
        return e.value->catalog == catalog && e.sql == text;
      },
      [&]() -> Result<AnalysisEntry> {
        std::string owned(text);
        TCELLS_ASSIGN_OR_RETURN(sql::AnalyzedQuery query,
                                sql::AnalyzeSql(owned, *catalog));
        return AnalysisEntry{
            std::move(owned),
            std::make_shared<const sql::AnalyzedQuery>(std::move(query))};
      });
}

Result<std::shared_ptr<const crypto::KeyStore>> QueryCache::SessionKeys(
    keys::TdsKeyState& state, const ssi::QueryKeyPosting& posting) {
  TCELLS_ASSIGN_OR_RETURN(std::shared_ptr<const Bytes> secret,
                          state.SecretFor(posting.epoch));
  return GetOrBuild(
      mu_, keys_,
      [&](const KeysEntry& e) {
        return e.secret == *secret && e.posting == posting;
      },
      [&]() -> Result<KeysEntry> {
        TCELLS_ASSIGN_OR_RETURN(auto derived,
                                keys::DeriveQueryKeys(*secret, posting));
        return KeysEntry{*secret, posting, std::move(derived)};
      });
}

Result<std::shared_ptr<const FakeTemplates>> QueryCache::Fakes(
    const std::shared_ptr<const sql::AnalyzedQuery>& query,
    const std::shared_ptr<const crypto::KeyStore>& keys,
    const std::shared_ptr<const std::vector<storage::Tuple>>& domain,
    size_t pad_payload_to) {
  if (!domain || domain->empty()) {
    return Status::FailedPrecondition(
        "Det-tag collection requires a group domain");
  }
  return GetOrBuild(
      mu_, fakes_,
      [&](const FakesEntry& e) {
        return e.query == query && e.keys == keys && e.domain == domain &&
               e.pad_payload_to == pad_payload_to;
      },
      [&]() -> Result<FakesEntry> {
        return FakesEntry{query, keys, domain, pad_payload_to,
                          std::make_shared<const FakeTemplates>(
                              BuildFakeTemplates(*query, *keys, *domain,
                                                 pad_payload_to))};
      });
}

}  // namespace tcells::tds
