#include "sql/executor.h"

#include <algorithm>
#include <set>
#include <cmath>
#include <sstream>

#include "sql/eval.h"

namespace tcells::sql {

using storage::Tuple;
using storage::Value;
using storage::ValueType;

namespace {

bool ValuesClose(const Value& a, const Value& b, double rel_tol) {
  if (a.is_null() && b.is_null()) return true;
  if (a.is_null() || b.is_null()) return false;
  if (a.is_numeric() && b.is_numeric()) {
    double x = a.ToDouble().ValueOrDie();
    double y = b.ToDouble().ValueOrDie();
    if (x == y) return true;
    double scale = std::max(std::fabs(x), std::fabs(y));
    return std::fabs(x - y) <= rel_tol * scale;
  }
  return a.IsSameGroup(b);
}

bool RowsClose(const Tuple& a, const Tuple& b, double rel_tol) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!ValuesClose(a.at(i), b.at(i), rel_tol)) return false;
  }
  return true;
}

}  // namespace

bool QueryResult::SameRows(const QueryResult& other, double rel_tol) const {
  if (rows.size() != other.rows.size()) return false;
  std::vector<bool> used(other.rows.size(), false);
  for (const auto& row : rows) {
    bool matched = false;
    for (size_t j = 0; j < other.rows.size(); ++j) {
      if (!used[j] && RowsClose(row, other.rows[j], rel_tol)) {
        used[j] = true;
        matched = true;
        break;
      }
    }
    if (!matched) return false;
  }
  return true;
}

bool QueryResult::SameRowsInOrder(const QueryResult& other,
                                  double rel_tol) const {
  if (rows.size() != other.rows.size()) return false;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (!RowsClose(rows[i], other.rows[i], rel_tol)) return false;
  }
  return true;
}

std::string QueryResult::ToString() const {
  std::ostringstream os;
  for (size_t i = 0; i < schema.num_columns(); ++i) {
    if (i) os << " | ";
    os << schema.column(i).name;
  }
  os << "\n";
  for (const auto& row : rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i) os << " | ";
      os << row.at(i).ToString();
    }
    os << "\n";
  }
  return os.str();
}

Result<std::vector<Tuple>> CollectionTuples(const storage::Database& db,
                                            const AnalyzedQuery& q) {
  const std::vector<ExprPtr>& exprs =
      q.is_aggregation ? q.collection_exprs : q.select_row_exprs;
  std::vector<Tuple> out;
  // WHERE, then the projection, evaluated on one combined row.
  auto emit = [&](const Tuple& row) -> Status {
    EvalContext ctx{&row, 0};
    if (q.where) {
      TCELLS_ASSIGN_OR_RETURN(bool keep, EvalPredicate(*q.where, ctx));
      if (!keep) return Status::OK();
    }
    std::vector<Value> projected;
    projected.reserve(exprs.size());
    for (const auto& e : exprs) {
      TCELLS_ASSIGN_OR_RETURN(Value v, Eval(*e, ctx));
      projected.push_back(std::move(v));
    }
    out.emplace_back(std::move(projected));
    return Status::OK();
  };

  // The FROM tables are bound to positions in the catalog the query was
  // analyzed against; in another catalog a position names another table.
  if (q.catalog != db.shared_catalog()) {
    return Status::FailedPrecondition(
        "query was analyzed against another catalog than the database's");
  }
  // A single-table query evaluates on the stored rows themselves.
  if (q.from.size() == 1) {
    for (const Tuple& row : db.table(q.from[0].bound_index).rows()) {
      TCELLS_RETURN_IF_ERROR(emit(row));
    }
    return out;
  }
  // A local join: the Cartesian product of the FROM tables, constrained by
  // WHERE. The per-TDS tables are tiny, so nested loops are appropriate;
  // each concatenation is materialized into one reused row.
  std::vector<const storage::Table*> tables;
  for (const auto& ref : q.from) tables.push_back(&db.table(ref.bound_index));
  for (const auto* t : tables) {
    if (t->num_rows() == 0) return out;  // empty product
  }
  std::vector<size_t> idx(tables.size(), 0);
  Tuple combined;
  for (;;) {
    std::vector<Value>& values = combined.mutable_values();
    values.clear();
    for (size_t i = 0; i < tables.size(); ++i) {
      const std::vector<Value>& part = tables[i]->row(idx[i]).values();
      values.insert(values.end(), part.begin(), part.end());
    }
    TCELLS_RETURN_IF_ERROR(emit(combined));
    // Advance the odometer.
    size_t k = tables.size();
    while (k > 0) {
      --k;
      if (++idx[k] < tables[k]->num_rows()) break;
      idx[k] = 0;
      if (k == 0) return out;
    }
  }
}

Result<QueryResult> FinalizeAggregation(const GroupedAggregation& agg,
                                        const AnalyzedQuery& q) {
  QueryResult result;
  result.schema = q.result_schema;
  for (const auto& [key, states] : agg.groups()) {
    // Output row = group values then finalized aggregate values.
    Tuple output = key;
    for (const auto& state : states) {
      TCELLS_ASSIGN_OR_RETURN(Value v, state.Finalize());
      output.Append(std::move(v));
    }
    EvalContext ctx{&output, q.key_arity};
    if (q.having) {
      TCELLS_ASSIGN_OR_RETURN(bool keep, EvalPredicate(*q.having, ctx));
      if (!keep) continue;
    }
    Tuple projected;
    for (const auto& e : q.select_output_exprs) {
      TCELLS_ASSIGN_OR_RETURN(Value v, Eval(*e, ctx));
      projected.Append(std::move(v));
    }
    result.rows.push_back(std::move(projected));
  }
  return result;
}

Status ApplyOrderAndLimit(const AnalyzedQuery& q, QueryResult* result) {
  if (q.select_distinct) {
    // Stable de-duplication on the canonical row encoding.
    std::set<Bytes> seen;
    std::vector<Tuple> unique;
    unique.reserve(result->rows.size());
    for (auto& row : result->rows) {
      if (seen.insert(row.Encode()).second) unique.push_back(std::move(row));
    }
    result->rows = std::move(unique);
  }
  if (!q.sort_keys.empty()) {
    // Rows that tie on every sort key are ordered by the full row, column by
    // column ascending: a total order, so LIMIT keeps the same rows whatever
    // order the TDSs answered in.
    Status sort_status = Status::OK();
    auto compare = [&](const Value& a, const Value& b, int* out) {
      auto cmp = a.Compare(b);
      if (!cmp.ok()) {
        if (sort_status.ok()) sort_status = cmp.status();
        return false;
      }
      *out = *cmp;
      return true;
    };
    std::stable_sort(
        result->rows.begin(), result->rows.end(),
        [&](const Tuple& a, const Tuple& b) {
          int cmp = 0;
          for (const auto& key : q.sort_keys) {
            if (!compare(a.at(key.column), b.at(key.column), &cmp)) {
              return false;
            }
            if (cmp != 0) return key.descending ? cmp > 0 : cmp < 0;
          }
          for (size_t i = 0; i < a.size(); ++i) {
            if (!compare(a.at(i), b.at(i), &cmp)) return false;
            if (cmp != 0) return cmp < 0;
          }
          return false;
        });
    TCELLS_RETURN_IF_ERROR(sort_status);
  }
  if (q.limit && result->rows.size() > *q.limit) {
    result->rows.resize(*q.limit);
  }
  return Status::OK();
}

Result<QueryResult> ExecuteLocal(const storage::Database& db,
                                 const AnalyzedQuery& q) {
  QueryResult result;
  TCELLS_ASSIGN_OR_RETURN(std::vector<Tuple> collection,
                          CollectionTuples(db, q));
  if (!q.is_aggregation) {
    result.schema = q.result_schema;
    result.rows = std::move(collection);
  } else {
    GroupedAggregation agg(q.agg_specs);
    for (const auto& t : collection) {
      TCELLS_RETURN_IF_ERROR(agg.AccumulateTuple(t, q.key_arity));
    }
    TCELLS_ASSIGN_OR_RETURN(result, FinalizeAggregation(agg, q));
  }
  TCELLS_RETURN_IF_ERROR(ApplyOrderAndLimit(q, &result));
  return result;
}

}  // namespace tcells::sql
