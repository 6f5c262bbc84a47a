#include "tds/fake_templates.h"

#include <map>
#include <mutex>
#include <tuple>

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

struct MemoKey {
  const sql::AnalyzedQuery* query;
  const crypto::KeyStore* keys;
  const std::vector<storage::Tuple>* domain;
  size_t pad_payload_to;

  bool operator<(const MemoKey& o) const {
    return std::tie(query, keys, domain, pad_payload_to) <
           std::tie(o.query, o.keys, o.domain, o.pad_payload_to);
  }
};

struct MemoEntry {
  /// Pin the keyed addresses: nothing else can be allocated there.
  std::shared_ptr<const sql::AnalyzedQuery> query;
  std::shared_ptr<const crypto::KeyStore> keys;
  std::shared_ptr<const std::vector<storage::Tuple>> domain;
  std::shared_ptr<const FakeTemplates> templates;
};

struct Memo {
  std::mutex mu;
  std::map<MemoKey, MemoEntry> entries;
};

Memo& TheMemo() {
  static Memo memo;
  return memo;
}

}  // namespace

Result<std::shared_ptr<const FakeTemplates>> FakeTemplatesShared(
    const std::shared_ptr<const sql::AnalyzedQuery>& query,
    const std::shared_ptr<const crypto::KeyStore>& keys,
    const std::shared_ptr<const std::vector<storage::Tuple>>& domain,
    size_t pad_payload_to) {
  if (!domain || domain->empty()) {
    return Status::FailedPrecondition(
        "Det-tag collection requires a group domain");
  }
  const MemoKey key{query.get(), keys.get(), domain.get(), pad_payload_to};
  Memo& memo = TheMemo();
  {
    std::lock_guard<std::mutex> lock(memo.mu);
    auto it = memo.entries.find(key);
    if (it != memo.entries.end()) return it->second.templates;
  }
  // Build outside the lock; a concurrent miss on the same key does the work
  // twice but both produce byte-identical templates.
  auto templates = std::make_shared<const FakeTemplates>(
      BuildFakeTemplates(*query, *keys, *domain, pad_payload_to));
  std::lock_guard<std::mutex> lock(memo.mu);
  if (memo.entries.size() >= kFakeTemplatesMemoCapacity) {
    memo.entries.clear();
  }
  // Keep the first fill so previously handed-out pointers stay canonical.
  return memo.entries
      .emplace(key, MemoEntry{query, keys, domain, std::move(templates)})
      .first->second.templates;
}

size_t FakeTemplatesMemoSize() {
  Memo& memo = TheMemo();
  std::lock_guard<std::mutex> lock(memo.mu);
  return memo.entries.size();
}

}  // namespace tcells::tds
