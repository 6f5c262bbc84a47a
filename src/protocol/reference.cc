#include "protocol/reference.h"

#include "sql/analyzer.h"

namespace tcells::protocol {

Result<sql::QueryResult> ExecuteReference(const Fleet& fleet,
                                          const std::string& sql) {
  if (fleet.size() == 0) {
    return Status::InvalidArgument("empty fleet");
  }
  // Clone the common catalog and concatenate every TDS's rows. Note: the
  // reference joins stay *internal* — each TDS's combined rows are computed
  // separately, matching the paper's "no external joins" model.
  //
  // Because WHERE + joins are evaluated per TDS and aggregation is a union
  // over collection tuples, running the analyzed query per TDS and merging
  // collection tuples is the faithful oracle.
  const storage::Catalog& catalog = fleet.at(0)->db().catalog();
  TCELLS_ASSIGN_OR_RETURN(sql::AnalyzedQuery query,
                          sql::AnalyzeSql(sql, catalog));

  sql::QueryResult result;
  if (!query.is_aggregation) {
    result.schema = query.result_schema;
    for (size_t i = 0; i < fleet.size(); ++i) {
      TCELLS_ASSIGN_OR_RETURN(
          std::vector<storage::Tuple> rows,
          sql::CollectionTuples(fleet.at(i)->db(), query));
      for (auto& row : rows) result.rows.push_back(std::move(row));
    }
  } else {
    sql::GroupedAggregation agg(query.agg_specs);
    for (size_t i = 0; i < fleet.size(); ++i) {
      TCELLS_ASSIGN_OR_RETURN(std::vector<storage::Tuple> rows,
                              sql::CollectionTuples(fleet.at(i)->db(), query));
      for (const auto& row : rows) {
        TCELLS_RETURN_IF_ERROR(agg.AccumulateTuple(row, query.key_arity));
      }
    }
    TCELLS_ASSIGN_OR_RETURN(result, sql::FinalizeAggregation(agg, query));
  }
  TCELLS_RETURN_IF_ERROR(sql::ApplyOrderAndLimit(query, &result));
  return result;
}

bool MatchesReference(const Fleet& fleet, const std::string& sql,
                      const sql::QueryResult& result) {
  Result<sql::QueryResult> oracle = ExecuteReference(fleet, sql);
  if (!oracle.ok()) return false;
  // The oracle analyzed this text against this catalog, so this cannot fail.
  const sql::AnalyzedQuery query =
      sql::AnalyzeSql(sql, fleet.at(0)->db().catalog()).ValueOrDie();
  return query.sort_keys.empty() ? result.SameRows(*oracle)
                                 : result.SameRowsInOrder(*oracle);
}

}  // namespace tcells::protocol
