// Fake-tuple templates for Det-tag collection (Rnf_Noise and C_Noise, §4.3).
//
// Apart from its nDet IV, a fake tuple is a pure function of the analyzed
// query (its key and collection arities), the domain value, the payload
// padding and k2: its payload is the domain value padded with NULLs to the
// collection arity, its routing tag Det_Enc_k2(value). A fleet serving one
// query under one key set therefore needs them built once, not once per TDS:
// FakeTemplatesShared memoizes them process-wide, as sql::AnalyzeSqlShared
// does the analysis. The device cost model still charges every TDS what the
// paper's hardware does: sim::CostAccountant charges each upload its bytes
// and tuples, which the memo does not change.
#ifndef TCELLS_TDS_FAKE_TEMPLATES_H_
#define TCELLS_TDS_FAKE_TEMPLATES_H_

#include <memory>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "crypto/keystore.h"
#include "sql/analyzer.h"
#include "storage/tuple.h"

namespace tcells::tds {

/// What a Det-tag collection seals for each domain value, by domain index.
struct FakeTemplates {
  /// ssi::EncodePayload(kFakeTuple, value + NULLs to the collection arity,
  /// pad): the plaintext of a fake of that group.
  std::vector<Bytes> payloads;
  /// Det_Enc_k2(value): the routing tag of every item of that group.
  std::vector<Bytes> tags;
};

/// The templates of `domain` for `query` under `keys` at `pad_payload_to`,
/// memoized process-wide. The memo keys on the identity of the analyzed
/// query, the KeyStore and the domain, plus the padding. Analyses come
/// canonical from sql::AnalyzeSqlShared and a dynamic-key query's session
/// KeyStore from keys::DeriveQueryKeysShared, so every TDS serving one query
/// under one key set reaches one entry, and two key sets never share one.
/// Each entry holds its query, KeyStore and domain alive, so a keyed address
/// is never reused by another. The first fill wins, errors are not memoized,
/// and the memo resets wholesale at kFakeTemplatesMemoCapacity entries;
/// templates already handed out stay valid. FailedPrecondition on a null or
/// empty domain.
Result<std::shared_ptr<const FakeTemplates>> FakeTemplatesShared(
    const std::shared_ptr<const sql::AnalyzedQuery>& query,
    const std::shared_ptr<const crypto::KeyStore>& keys,
    const std::shared_ptr<const std::vector<storage::Tuple>>& domain,
    size_t pad_payload_to);

/// Entries the memo holds at once: 16x the engine's default query
/// concurrency, as for the session-key memo.
inline constexpr size_t kFakeTemplatesMemoCapacity = 64;

/// Entries currently memoized (<= kFakeTemplatesMemoCapacity).
size_t FakeTemplatesMemoSize();

}  // namespace tcells::tds

#endif  // TCELLS_TDS_FAKE_TEMPLATES_H_
