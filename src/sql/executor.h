// Local query execution over one Database. Three callers:
//  * a TDS evaluating WHERE + local internal joins and producing its
//    collection-phase tuples (§3.2 step 3);
//  * a TDS finalizing groups and applying HAVING in the filtering phase;
//  * the plaintext reference oracle used by tests and examples: run the whole
//    query over the union of all local databases and compare with what a
//    distributed protocol produced.
#ifndef TCELLS_SQL_EXECUTOR_H_
#define TCELLS_SQL_EXECUTOR_H_

#include <vector>

#include "common/result.h"
#include "sql/aggregates.h"
#include "sql/analyzer.h"
#include "storage/table.h"

namespace tcells::sql {

/// Final result of a query as the querier sees it.
struct QueryResult {
  storage::Schema schema;
  std::vector<storage::Tuple> rows;

  /// Multiset equality, order-insensitive (protocols may emit groups in any
  /// order). Doubles are compared with a small relative tolerance because
  /// distributed AVG/SUM merge in a different order than local execution.
  bool SameRows(const QueryResult& other, double rel_tol = 1e-9) const;
  /// Row-for-row equality in order, with SameRows' tolerance: the check for
  /// a query with ORDER BY, whose row order is part of its answer.
  bool SameRowsInOrder(const QueryResult& other, double rel_tol = 1e-9) const;

  /// Pretty table rendering for examples and debugging.
  std::string ToString() const;
};

/// Collection-phase tuples: for aggregation queries, rows of
/// [group values..., aggregate inputs...]; for plain SFW queries, the
/// projected SELECT rows. One entry per combined row (Cartesian product of
/// the FROM tables) that passes WHERE; a single-table query is evaluated on
/// its stored rows without copying them.
Result<std::vector<storage::Tuple>> CollectionTuples(
    const storage::Database& db, const AnalyzedQuery& q);

/// Builds the final result rows from a completed aggregation: finalizes each
/// group, applies HAVING, projects the SELECT list. Groups come out in key
/// order (deterministic).
Result<QueryResult> FinalizeAggregation(const GroupedAggregation& agg,
                                        const AnalyzedQuery& q);

/// Sorts and truncates `result` per the query's ORDER BY / LIMIT. Called by
/// the querier after decryption (and by the oracle); a no-op when the query
/// has neither clause. Rows that tie on every ORDER BY key are ordered by the
/// full row, so the order (and the rows LIMIT keeps) does not depend on the
/// order the rows arrived in.
Status ApplyOrderAndLimit(const AnalyzedQuery& q, QueryResult* result);

/// Runs the entire query locally (the trusted oracle path).
Result<QueryResult> ExecuteLocal(const storage::Database& db,
                                 const AnalyzedQuery& q);

}  // namespace tcells::sql

#endif  // TCELLS_SQL_EXECUTOR_H_
