#include "protocol/reference.h"

#include <deque>

#include "sql/analyzer.h"

namespace tcells::protocol {

Result<sql::QueryResult> ExecuteReference(const Fleet& fleet,
                                          const std::string& sql) {
  if (fleet.size() == 0) {
    return Status::InvalidArgument("empty fleet");
  }
  // The reference joins stay *internal* — each TDS's combined rows are
  // computed separately, matching the paper's "no external joins" model.
  // Because WHERE + joins are evaluated per TDS and aggregation is a union
  // over collection tuples, running the analyzed query per TDS and merging
  // collection tuples is the faithful oracle.
  //
  // An analysis binds the FROM tables to positions in one interned catalog,
  // and in a fleet of mixed shapes a table can sit at another position. So
  // the query is analyzed once per distinct catalog, and each TDS runs the
  // analysis of its own. The first TDS's analysis shapes the result.
  std::deque<sql::AnalyzedQuery> analyses;
  auto analysis_for =
      [&](const storage::Database& db) -> Result<const sql::AnalyzedQuery*> {
    for (const auto& q : analyses) {
      if (q.catalog == db.shared_catalog()) return &q;
    }
    TCELLS_ASSIGN_OR_RETURN(sql::AnalyzedQuery q,
                            sql::AnalyzeSql(sql, db.catalog()));
    return &analyses.emplace_back(std::move(q));
  };
  TCELLS_ASSIGN_OR_RETURN(const sql::AnalyzedQuery* query,
                          analysis_for(fleet.at(0)->db()));

  sql::QueryResult result;
  result.schema = query->result_schema;
  sql::GroupedAggregation agg(query->agg_specs);
  for (size_t i = 0; i < fleet.size(); ++i) {
    const storage::Database& db = fleet.at(i)->db();
    TCELLS_ASSIGN_OR_RETURN(const sql::AnalyzedQuery* own, analysis_for(db));
    TCELLS_ASSIGN_OR_RETURN(std::vector<storage::Tuple> rows,
                            sql::CollectionTuples(db, *own));
    for (auto& row : rows) {
      if (query->is_aggregation) {
        TCELLS_RETURN_IF_ERROR(agg.AccumulateTuple(row, query->key_arity));
      } else {
        result.rows.push_back(std::move(row));
      }
    }
  }
  if (query->is_aggregation) {
    TCELLS_ASSIGN_OR_RETURN(result, sql::FinalizeAggregation(agg, *query));
  }
  TCELLS_RETURN_IF_ERROR(sql::ApplyOrderAndLimit(*query, &result));
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
