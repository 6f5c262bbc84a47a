// Access control inside a TDS (§3.1): a TDS answers only authorized queries.
// It knows the access-control policy (installed by the application provider,
// the legislator or a consumer association) and checks the querier's
// credential, which is signed by an authority.
//
// The credential is modeled as an HMAC by the authority over the querier id;
// every TDS holds the authority's verification key (symmetric, standing in
// for a certificate chain).
#ifndef TCELLS_TDS_ACCESS_CONTROL_H_
#define TCELLS_TDS_ACCESS_CONTROL_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "crypto/hmac.h"
#include "sql/analyzer.h"

namespace tcells::tds {

/// Issues and verifies querier credentials. The HMAC key schedule is built
/// once, at construction.
class Authority {
 public:
  explicit Authority(const Bytes& key) : mac_(key) {}

  /// Credential MAC for a querier identity.
  Bytes Issue(const std::string& querier_id) const;

  /// True iff `credential` is the MAC of `querier_id`. A wrong length is
  /// rejected outright; the MAC itself is compared with ConstantTimeEqual,
  /// so the run time does not reveal where a forged credential first
  /// differs.
  bool Verify(const std::string& querier_id,
              std::span<const uint8_t> credential) const;

 private:
  crypto::HmacState mac_;
};

/// One grant: querier (or "*" for everyone) may read `table`; if `columns`
/// is non-empty, only those columns.
struct AccessRule {
  std::string querier_id;             // "*" matches any authenticated querier
  std::string table;
  std::vector<std::string> columns;   // empty = all columns
};

/// The policy a TDS enforces. Deny-by-default: a query is authorized only if
/// every (table, column) it touches is covered by some rule for the querier.
class AccessPolicy {
 public:
  AccessPolicy() = default;
  explicit AccessPolicy(std::vector<AccessRule> rules)
      : rules_(std::move(rules)) {}

  void AddRule(AccessRule rule) { rules_.push_back(std::move(rule)); }

  /// Grants everything to everyone (opt-in deployments where participation
  /// itself is the consent, e.g. the smart-meter scenario).
  static AccessPolicy AllowAll();

  /// PermissionDenied if any referenced column is not covered.
  Status CheckQuery(const sql::AnalyzedQuery& query,
                    const std::string& querier_id) const;

 private:
  bool Covers(const std::string& querier_id, const std::string& table,
              const std::string& column) const;

  std::vector<AccessRule> rules_;
  bool allow_all_ = false;
};

/// Collects the combined-row indices a query actually reads (WHERE, grouping
/// attributes, aggregate inputs, projections).
std::vector<int> ReferencedColumns(const sql::AnalyzedQuery& query);

}  // namespace tcells::tds

#endif  // TCELLS_TDS_ACCESS_CONTROL_H_
