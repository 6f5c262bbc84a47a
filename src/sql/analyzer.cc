#include "sql/analyzer.h"

#include <functional>

#include "common/strings.h"
#include "sql/parser.h"

namespace tcells::sql {

using storage::Column;
using storage::Schema;
using storage::ValueType;

namespace {

/// Deep copy of an expression tree (analysis mutates bound indices; we never
/// touch the caller's AST).
ExprPtr CloneExpr(const ExprPtr& e) {
  if (!e) return nullptr;
  auto copy = std::make_shared<Expr>(*e);
  for (auto& child : copy->children) child = CloneExpr(child);
  return copy;
}

struct ColumnEntry {
  std::string table;       // effective (alias) name, original case
  std::string real_table;  // underlying table name
  std::string column;      // original case
  ValueType type;
};

class Binder {
 public:
  Binder(std::vector<TableRef>& from, const storage::Catalog& catalog)
      : from_(from), catalog_(catalog) {}

  /// Binds each FROM table to its catalog position and lists its columns.
  Status Init() {
    for (auto& ref : from_) {
      TCELLS_ASSIGN_OR_RETURN(size_t index, catalog_.FindTable(ref.table));
      ref.bound_index = static_cast<int>(index);
      for (const auto& col : catalog_.table(index).schema.columns()) {
        entries_.push_back({ref.effective_name(), ref.table, col.name, col.type});
      }
    }
    // Reject duplicate effective table names (ambiguous binding).
    for (size_t i = 0; i < from_.size(); ++i) {
      for (size_t j = i + 1; j < from_.size(); ++j) {
        if (EqualsIgnoreCase(from_[i].effective_name(),
                             from_[j].effective_name())) {
          return Status::InvalidArgument("duplicate table name/alias: " +
                                         from_[i].effective_name());
        }
      }
    }
    return Status::OK();
  }

  const std::vector<ColumnEntry>& entries() const { return entries_; }

  Schema CombinedSchema() const {
    std::vector<Column> cols;
    cols.reserve(entries_.size());
    for (const auto& e : entries_) {
      cols.push_back({e.table + "." + e.column, e.type});
    }
    return Schema(std::move(cols));
  }

  Result<int> Resolve(const std::string& qualifier,
                      const std::string& column) const {
    int found = -1;
    for (size_t i = 0; i < entries_.size(); ++i) {
      if (!EqualsIgnoreCase(entries_[i].column, column)) continue;
      if (!qualifier.empty() &&
          !EqualsIgnoreCase(entries_[i].table, qualifier)) {
        continue;
      }
      if (found >= 0) {
        return Status::InvalidArgument("ambiguous column: " + column);
      }
      found = static_cast<int>(i);
    }
    if (found < 0) {
      std::string name = qualifier.empty() ? column : qualifier + "." + column;
      return Status::NotFound("unknown column: " + name);
    }
    return found;
  }

  /// Binds every ColumnRef in `e` to a combined-row index. Rejects aggregate
  /// nodes when `allow_aggregates` is false.
  Status BindExpr(const ExprPtr& e, bool allow_aggregates) {
    if (!e) return Status::OK();
    if (e->kind == Expr::Kind::kColumnRef) {
      if (e->column == "*") {
        return Status::InvalidArgument("'*' is only valid as a SELECT item");
      }
      TCELLS_ASSIGN_OR_RETURN(e->bound_index, Resolve(e->qualifier, e->column));
      return Status::OK();
    }
    if (e->kind == Expr::Kind::kAggregate) {
      if (!allow_aggregates) {
        return Status::InvalidArgument(
            "aggregate function not allowed in this clause");
      }
      // The aggregate's argument is evaluated per input row.
      for (const auto& child : e->children) {
        TCELLS_RETURN_IF_ERROR(BindExpr(child, /*allow_aggregates=*/false));
      }
      return Status::OK();
    }
    for (const auto& child : e->children) {
      TCELLS_RETURN_IF_ERROR(BindExpr(child, allow_aggregates));
    }
    return Status::OK();
  }

 private:
  std::vector<TableRef>& from_;
  const storage::Catalog& catalog_;
  std::vector<ColumnEntry> entries_;
};

bool ContainsAggregate(const ExprPtr& e) {
  if (!e) return false;
  if (e->kind == Expr::Kind::kAggregate) return true;
  for (const auto& child : e->children) {
    if (ContainsAggregate(child)) return true;
  }
  return false;
}

/// Best-effort output type inference; kNull means "unknown".
ValueType InferType(const ExprPtr& e, const Schema& combined) {
  switch (e->kind) {
    case Expr::Kind::kLiteral:
      return e->literal.type();
    case Expr::Kind::kColumnRef:
      if (e->bound_index >= 0 &&
          static_cast<size_t>(e->bound_index) < combined.num_columns()) {
        return combined.column(static_cast<size_t>(e->bound_index)).type;
      }
      return ValueType::kNull;
    case Expr::Kind::kUnary:
      return e->unary_op == UnaryOp::kNot ? ValueType::kBool
                                          : InferType(e->children[0], combined);
    case Expr::Kind::kBinary:
      switch (e->binary_op) {
        case BinaryOp::kOr: case BinaryOp::kAnd:
        case BinaryOp::kEq: case BinaryOp::kNe:
        case BinaryOp::kLt: case BinaryOp::kLe:
        case BinaryOp::kGt: case BinaryOp::kGe:
          return ValueType::kBool;
        case BinaryOp::kDiv:
          return ValueType::kDouble;
        default: {
          ValueType a = InferType(e->children[0], combined);
          ValueType b = InferType(e->children[1], combined);
          if (a == ValueType::kDouble || b == ValueType::kDouble) {
            return ValueType::kDouble;
          }
          return ValueType::kInt64;
        }
      }
    case Expr::Kind::kInList:
    case Expr::Kind::kIsNull:
    case Expr::Kind::kLike:
      return ValueType::kBool;
    case Expr::Kind::kAggregate:
      switch (e->agg_kind) {
        case AggKind::kCount: return ValueType::kInt64;
        case AggKind::kAvg:
        case AggKind::kVariance:
        case AggKind::kStdDev:
          return ValueType::kDouble;
        case AggKind::kSum:
        case AggKind::kMin:
        case AggKind::kMax:
        case AggKind::kMedian:
          return e->star || e->children.empty()
                     ? ValueType::kNull
                     : InferType(e->children[0], combined);
      }
      return ValueType::kNull;
  }
  return ValueType::kNull;
}

/// Default result-column name for an expression.
std::string DefaultName(const ExprPtr& e) { return e->ToString(); }

/// Resolves ORDER BY items against the result schema: 1-based positions or
/// result-column names (exact, or matching the part after the qualifier dot).
Status ResolveOrderBy(const SelectStatement& stmt, AnalyzedQuery* out) {
  for (const auto& item : stmt.order_by) {
    AnalyzedQuery::SortKey key;
    key.descending = item.descending;
    const Expr& e = *item.expr;
    if (e.kind == Expr::Kind::kLiteral &&
        e.literal.type() == ValueType::kInt64) {
      int64_t pos = e.literal.AsInt64();
      if (pos < 1 ||
          pos > static_cast<int64_t>(out->result_schema.num_columns())) {
        return Status::InvalidArgument("ORDER BY position out of range: " +
                                       std::to_string(pos));
      }
      key.column = static_cast<size_t>(pos - 1);
    } else if (e.kind == Expr::Kind::kColumnRef) {
      std::string wanted =
          e.qualifier.empty() ? e.column : e.qualifier + "." + e.column;
      int found = -1;
      for (size_t i = 0; i < out->result_schema.num_columns(); ++i) {
        const std::string& name = out->result_schema.column(i).name;
        bool match = EqualsIgnoreCase(name, wanted);
        if (!match && e.qualifier.empty()) {
          // Allow ordering by the bare column name of a qualified result.
          auto dot = name.rfind('.');
          if (dot != std::string::npos) {
            match = EqualsIgnoreCase(name.substr(dot + 1), wanted);
          }
        }
        if (match) {
          if (found >= 0) {
            return Status::InvalidArgument("ambiguous ORDER BY column: " +
                                           wanted);
          }
          found = static_cast<int>(i);
        }
      }
      if (found < 0) {
        return Status::InvalidArgument(
            "ORDER BY must name a result column: " + wanted);
      }
      key.column = static_cast<size_t>(found);
    } else {
      return Status::InvalidArgument(
          "ORDER BY supports result columns and positions only");
    }
    out->sort_keys.push_back(key);
  }
  out->limit = stmt.limit;
  out->select_distinct = stmt.distinct;
  return Status::OK();
}

}  // namespace

Result<AnalyzedQuery> Analyze(const SelectStatement& stmt,
                              const storage::Catalog& catalog) {
  if (stmt.select_list.empty()) {
    return Status::InvalidArgument("empty SELECT list");
  }
  if (stmt.from.empty()) {
    return Status::InvalidArgument("empty FROM clause");
  }

  AnalyzedQuery out;
  out.sql = stmt.ToString();
  out.catalog = storage::Catalog::Intern(catalog);
  out.from = stmt.from;
  out.size = stmt.size;

  Binder binder(out.from, *out.catalog);
  TCELLS_RETURN_IF_ERROR(binder.Init());
  out.combined_schema = binder.CombinedSchema();
  for (const auto& e : binder.entries()) {
    out.combined_origin.emplace_back(e.real_table, e.column);
  }

  // WHERE: bound against the combined row; aggregates are not allowed.
  if (stmt.where) {
    out.where = CloneExpr(stmt.where);
    TCELLS_RETURN_IF_ERROR(binder.BindExpr(out.where, false));
  }

  bool any_aggregate = false;
  for (const auto& item : stmt.select_list) {
    if (ContainsAggregate(item.expr)) any_aggregate = true;
  }
  if (stmt.having && !ContainsAggregate(stmt.having) && stmt.group_by.empty()) {
    return Status::InvalidArgument("HAVING requires GROUP BY or an aggregate");
  }
  out.is_aggregation = any_aggregate || !stmt.group_by.empty() ||
                       (stmt.having && ContainsAggregate(stmt.having));

  if (!out.is_aggregation) {
    // ----- Plain Select-From-Where (§3.2) -----
    if (stmt.having) {
      return Status::InvalidArgument("HAVING without aggregation");
    }
    std::vector<Column> result_cols;
    for (const auto& item : stmt.select_list) {
      if (item.expr->kind == Expr::Kind::kColumnRef &&
          item.expr->column == "*") {
        // Expand '*' to all combined columns.
        for (size_t i = 0; i < out.combined_schema.num_columns(); ++i) {
          auto ref = MakeColumnRef("", out.combined_schema.column(i).name);
          ref->bound_index = static_cast<int>(i);
          out.select_row_exprs.push_back(std::move(ref));
          result_cols.push_back(out.combined_schema.column(i));
        }
        continue;
      }
      ExprPtr bound = CloneExpr(item.expr);
      TCELLS_RETURN_IF_ERROR(binder.BindExpr(bound, false));
      result_cols.push_back(
          {item.alias.empty() ? DefaultName(bound) : item.alias,
           InferType(bound, out.combined_schema)});
      out.select_row_exprs.push_back(std::move(bound));
    }
    out.result_schema = Schema(std::move(result_cols));
    out.collection_schema = out.result_schema;
    TCELLS_RETURN_IF_ERROR(ResolveOrderBy(stmt, &out));
    return out;
  }

  // ----- Aggregation query (§4) -----
  // 1. Bind grouping attributes.
  std::vector<ExprPtr> group_refs;
  for (const auto& g : stmt.group_by) {
    ExprPtr bound = CloneExpr(g);
    TCELLS_RETURN_IF_ERROR(binder.BindExpr(bound, false));
    group_refs.push_back(std::move(bound));
  }
  out.key_arity = group_refs.size();
  out.collection_exprs = group_refs;

  // 2. Walk SELECT + HAVING, turning each Aggregate node into a slot and
  //    each bare grouping column into an output-row reference.
  std::vector<Column> collection_cols;
  for (size_t i = 0; i < group_refs.size(); ++i) {
    const ExprPtr& g = group_refs[i];
    collection_cols.push_back(
        {g->ToString(),
         out.combined_schema.column(static_cast<size_t>(g->bound_index)).type});
  }

  auto find_group_index = [&](const ExprPtr& col_ref) -> int {
    for (size_t i = 0; i < group_refs.size(); ++i) {
      if (group_refs[i]->bound_index == col_ref->bound_index) {
        return static_cast<int>(i);
      }
    }
    return -1;
  };

  // Rewrites `e` (already a private clone) in place so that it evaluates
  // against the output row. Registers aggregate slots as it goes.
  std::function<Status(ExprPtr&)> rewrite = [&](ExprPtr& e) -> Status {
    if (!e) return Status::OK();
    if (e->kind == Expr::Kind::kColumnRef) {
      TCELLS_RETURN_IF_ERROR(binder.BindExpr(e, false));
      int gidx = find_group_index(e);
      if (gidx < 0) {
        return Status::InvalidArgument(
            "column " + e->ToString() +
            " must appear in GROUP BY or inside an aggregate");
      }
      e->bound_index = gidx;  // now an output-row index
      return Status::OK();
    }
    if (e->kind == Expr::Kind::kAggregate) {
      AggSpec spec;
      spec.kind = e->agg_kind;
      spec.distinct = e->distinct;
      spec.name = e->ToString();
      if (!e->star) {
        ExprPtr arg = CloneExpr(e->children[0]);
        TCELLS_RETURN_IF_ERROR(binder.BindExpr(arg, false));
        // Each aggregate input becomes one collection-tuple position.
        spec.input_index = static_cast<int>(out.collection_exprs.size());
        out.collection_exprs.push_back(arg);
        collection_cols.push_back(
            {spec.name, InferType(arg, out.combined_schema)});
      }
      e->agg_slot = static_cast<int>(out.agg_specs.size());
      out.agg_specs.push_back(spec);
      e->children.clear();  // argument now lives in the collection layout
      return Status::OK();
    }
    for (auto& child : e->children) {
      TCELLS_RETURN_IF_ERROR(rewrite(child));
    }
    return Status::OK();
  };

  std::vector<Column> result_cols;
  for (const auto& item : stmt.select_list) {
    if (item.expr->kind == Expr::Kind::kColumnRef &&
        item.expr->column == "*") {
      return Status::InvalidArgument("'*' is not valid in aggregation queries");
    }
    // Infer the result type from a combined-row-bound copy before rewriting
    // (after the rewrite, indices refer to the output row).
    ExprPtr typed = CloneExpr(item.expr);
    TCELLS_RETURN_IF_ERROR(binder.BindExpr(typed, /*allow_aggregates=*/true));
    ExprPtr bound = CloneExpr(item.expr);
    TCELLS_RETURN_IF_ERROR(rewrite(bound));
    result_cols.push_back(
        {item.alias.empty() ? item.expr->ToString() : item.alias,
         InferType(typed, out.combined_schema)});
    out.select_output_exprs.push_back(std::move(bound));
  }
  if (stmt.having) {
    out.having = CloneExpr(stmt.having);
    TCELLS_RETURN_IF_ERROR(rewrite(out.having));
  }

  out.result_schema = Schema(std::move(result_cols));
  out.collection_schema = Schema(std::move(collection_cols));
  TCELLS_RETURN_IF_ERROR(ResolveOrderBy(stmt, &out));
  return out;
}

Result<AnalyzedQuery> AnalyzeSql(const std::string& sql,
                                 const storage::Catalog& catalog) {
  TCELLS_ASSIGN_OR_RETURN(SelectStatement stmt, Parse(sql));
  return Analyze(stmt, catalog);
}

}  // namespace tcells::sql
