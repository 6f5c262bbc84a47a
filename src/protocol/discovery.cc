#include "protocol/discovery.h"

#include "sql/parser.h"

namespace tcells::protocol {

Result<std::string> DiscoverySql(const std::string& target_sql) {
  TCELLS_ASSIGN_OR_RETURN(sql::SelectStatement stmt, sql::Parse(target_sql));
  if (stmt.group_by.empty()) {
    return Status::InvalidArgument(
        "distribution discovery needs a GROUP BY in the target query");
  }
  std::string group_by;
  for (size_t i = 0; i < stmt.group_by.size(); ++i) {
    if (i) group_by += ", ";
    group_by += stmt.group_by[i]->ToString();
  }
  std::string sql = "SELECT " + group_by + ", COUNT(*) FROM ";
  for (size_t i = 0; i < stmt.from.size(); ++i) {
    if (i) sql += ", ";
    sql += stmt.from[i].table;
    if (!stmt.from[i].alias.empty()) sql += " " + stmt.from[i].alias;
  }
  return sql + " GROUP BY " + group_by;
}

Result<ProtocolInputs> InputsFromDiscovery(const sql::QueryResult& result) {
  if (result.rows.empty()) {
    return Status::FailedPrecondition(
        "discovered distribution is empty; cannot derive the A_G domain");
  }
  ProtocolInputs inputs;
  for (const auto& row : result.rows) {
    if (row.size() < 2) {
      return Status::Internal("unexpected discovery row arity");
    }
    const size_t arity = row.size() - 1;
    const storage::Value& count = row.at(arity);
    if (count.type() != storage::ValueType::kInt64) {
      return Status::Internal("discovery count is not an integer");
    }
    storage::Tuple key(std::vector<storage::Value>(
        row.values().begin(), row.values().begin() + arity));
    inputs.distribution[std::move(key)] =
        static_cast<uint64_t>(count.AsInt64());
  }
  return inputs;
}

}  // namespace tcells::protocol
