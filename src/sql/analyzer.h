// Semantic analysis: binds a parsed SelectStatement against the common
// catalog and produces the layouts that both the local executor (inside one
// TDS) and the distributed protocols share:
//
//  * combined row    — concatenation of the FROM tables' columns; WHERE and
//                      all inputs are evaluated against it locally by a TDS.
//  * collection tuple— what a TDS emits in the collection phase. For
//                      aggregation queries: [group values..., agg inputs...];
//                      for plain SFW queries: the projected SELECT values.
//  * output row      — for aggregation queries: [group values..., finalized
//                      aggregate values...]; SELECT items and HAVING are
//                      rewritten to reference it.
#ifndef TCELLS_SQL_ANALYZER_H_
#define TCELLS_SQL_ANALYZER_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "sql/aggregates.h"
#include "sql/ast.h"
#include "storage/schema.h"

namespace tcells::sql {

/// Fully-bound query, ready for execution by the local executor or the
/// distributed protocols.
struct AnalyzedQuery {
  /// Original statement text form (for queryboxes / debugging).
  std::string sql;

  /// The interned catalog the query was bound against. A FROM table's
  /// bound_index is its position there, so the query runs only on a
  /// database holding this very instance (sql::CollectionTuples checks).
  std::shared_ptr<const storage::Catalog> catalog;

  /// FROM tables in statement order, each bound to its catalog position.
  std::vector<TableRef> from;

  /// Concatenated schema of the FROM tables; column names are qualified
  /// ("alias.column").
  storage::Schema combined_schema;

  /// For each combined-row position: the originating (real table name,
  /// column name) — used by the access-control check.
  std::vector<std::pair<std::string, std::string>> combined_origin;

  /// WHERE predicate bound against the combined row; null if absent.
  ExprPtr where;

  /// True if the query has GROUP BY and/or any aggregate function.
  bool is_aggregation = false;

  /// --- Aggregation queries only ---
  /// Number of grouping attributes (the A_G of the paper).
  size_t key_arity = 0;
  /// Expressions producing each collection-tuple position, bound against the
  /// combined row. First key_arity entries are the grouping attributes.
  std::vector<ExprPtr> collection_exprs;
  /// Aggregate slots; input_index points into the collection tuple.
  std::vector<AggSpec> agg_specs;
  /// SELECT items rewritten over the output row; HAVING likewise (null if
  /// absent). In these expressions, kColumnRef.bound_index points into the
  /// output row: [0, key_arity) group values, then one finalized value per
  /// aggregate slot (via kAggregate.agg_slot).
  std::vector<ExprPtr> select_output_exprs;
  ExprPtr having;

  /// --- Plain SFW queries only ---
  /// SELECT items bound against the combined row ('*' already expanded).
  std::vector<ExprPtr> select_row_exprs;

  /// Result column names (and best-effort types) as seen by the querier.
  storage::Schema result_schema;

  /// ORDER BY, resolved to result-column positions. Sorting (and LIMIT) are
  /// applied by the querier after decryption — ciphertext cannot be ordered
  /// by the SSI, and result order must not leak through the protocol.
  struct SortKey {
    size_t column = 0;
    bool descending = false;
  };
  std::vector<SortKey> sort_keys;
  std::optional<uint64_t> limit;
  /// SELECT DISTINCT: de-duplicate result rows (querier-side).
  bool select_distinct = false;

  std::optional<SizeClause> size;

  /// Schema of the collection tuple (aggregation) or the projected tuple
  /// (plain SFW) — the plaintext a TDS encrypts in the collection phase.
  storage::Schema collection_schema;
};

/// Binds `stmt` against `catalog` (through its interned instance,
/// Catalog::Intern). Validation errors come back as InvalidArgument with a
/// human-readable message.
Result<AnalyzedQuery> Analyze(const SelectStatement& stmt,
                              const storage::Catalog& catalog);

/// Convenience: parse + analyze.
Result<AnalyzedQuery> AnalyzeSql(const std::string& sql,
                                 const storage::Catalog& catalog);

}  // namespace tcells::sql

#endif  // TCELLS_SQL_ANALYZER_H_
