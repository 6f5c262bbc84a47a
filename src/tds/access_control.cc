#include "tds/access_control.h"

#include <array>
#include <set>

#include "common/strings.h"

namespace tcells::tds {

namespace {

std::array<uint8_t, 32> MacOf(const crypto::HmacState& mac,
                              const std::string& querier_id) {
  return mac.Mac(reinterpret_cast<const uint8_t*>(querier_id.data()),
                 querier_id.size());
}

}  // namespace

Bytes Authority::Issue(const std::string& querier_id) const {
  const auto mac = MacOf(mac_, querier_id);
  return Bytes(mac.begin(), mac.end());
}

bool Authority::Verify(const std::string& querier_id,
                       std::span<const uint8_t> credential) const {
  // The expected MAC lives on the stack: a serve verifies without a buffer.
  const auto expected = MacOf(mac_, querier_id);
  return credential.size() == expected.size() &&
         crypto::ConstantTimeEqual(expected.data(), credential.data(),
                                   expected.size());
}

AccessPolicy AccessPolicy::AllowAll() {
  AccessPolicy policy;
  policy.allow_all_ = true;
  return policy;
}

namespace {

void CollectColumnRefs(const sql::ExprPtr& e, std::set<int>* out) {
  if (!e) return;
  if (e->kind == sql::Expr::Kind::kColumnRef && e->bound_index >= 0) {
    out->insert(e->bound_index);
  }
  for (const auto& child : e->children) CollectColumnRefs(child, out);
}

}  // namespace

std::vector<int> ReferencedColumns(const sql::AnalyzedQuery& query) {
  std::set<int> refs;
  CollectColumnRefs(query.where, &refs);
  // collection_exprs / select_row_exprs are bound against the combined row;
  // output-row expressions (SELECT/HAVING rewrites) only reference what the
  // collection layout already provides.
  for (const auto& e : query.collection_exprs) CollectColumnRefs(e, &refs);
  for (const auto& e : query.select_row_exprs) CollectColumnRefs(e, &refs);
  return std::vector<int>(refs.begin(), refs.end());
}

bool AccessPolicy::Covers(const std::string& querier_id,
                          const std::string& table,
                          const std::string& column) const {
  for (const auto& rule : rules_) {
    if (rule.querier_id != "*" &&
        !EqualsIgnoreCase(rule.querier_id, querier_id)) {
      continue;
    }
    if (!EqualsIgnoreCase(rule.table, table)) continue;
    if (rule.columns.empty()) return true;
    for (const auto& c : rule.columns) {
      if (EqualsIgnoreCase(c, column)) return true;
    }
  }
  return false;
}

Status AccessPolicy::CheckQuery(const sql::AnalyzedQuery& query,
                                const std::string& querier_id) const {
  if (allow_all_) return Status::OK();
  for (int idx : ReferencedColumns(query)) {
    const auto& [table, column] =
        query.combined_origin[static_cast<size_t>(idx)];
    if (!Covers(querier_id, table, column)) {
      return Status::PermissionDenied("querier " + querier_id +
                                      " may not read " + table + "." + column);
    }
  }
  return Status::OK();
}

}  // namespace tcells::tds
