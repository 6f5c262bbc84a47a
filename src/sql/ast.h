// Abstract syntax tree for the paper's query dialect (§2.3):
//
//   SELECT <attribute(s) and/or aggregate function(s)>
//   FROM <table(s)>
//   [WHERE <condition(s)>]
//   [GROUP BY <grouping attribute(s)>]
//   [HAVING <grouping condition(s)>]
//   [SIZE <size condition(s)>]
//
// The SIZE clause is borrowed from StreamSQL windows: a maximum number of
// collected tuples and/or a collection duration.
#ifndef TCELLS_SQL_AST_H_
#define TCELLS_SQL_AST_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "storage/value.h"

namespace tcells::sql {

struct Expr;
using ExprPtr = std::shared_ptr<Expr>;

/// Aggregate functions. The paper (footnote 9) targets the distributive,
/// algebraic and holistic classes of [27]; MEDIAN is the holistic example.
enum class AggKind {
  kCount,
  kSum,
  kAvg,
  kMin,
  kMax,
  kMedian,
  kVariance,  ///< population variance (algebraic: sum, sum of squares, count)
  kStdDev,    ///< sqrt of the population variance
};

const char* AggKindToString(AggKind kind);

/// Binary operators, loosest-binding first is handled by the parser.
enum class BinaryOp {
  kOr, kAnd,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAdd, kSub, kMul, kDiv, kMod,
};

enum class UnaryOp { kNot, kNeg };

const char* BinaryOpToString(BinaryOp op);

/// One AST node. A tagged struct rather than a class hierarchy: the dialect
/// is small and this keeps the evaluator a single switch.
struct Expr {
  enum class Kind {
    kLiteral,    ///< value
    kColumnRef,  ///< qualifier.column; bound_index set by the analyzer
    kUnary,      ///< op child[0]
    kBinary,     ///< child[0] op child[1]
    kInList,     ///< child[0] IN (child[1..])
    kIsNull,     ///< child[0] IS [NOT] NULL (negated via `negated`)
    kLike,       ///< child[0] [NOT] LIKE child[1]; '%%' any run, '_' one char
    kAggregate,  ///< agg_kind(child[0]) or COUNT(*); bound by analyzer
  };

  Kind kind;

  // kLiteral
  storage::Value literal;

  // kColumnRef
  std::string qualifier;  // table name or alias; may be empty
  std::string column;
  int bound_index = -1;   // index into the combined input row after analysis

  // kUnary / kBinary
  UnaryOp unary_op = UnaryOp::kNot;
  BinaryOp binary_op = BinaryOp::kAnd;

  // kIsNull
  bool negated = false;

  // kAggregate
  AggKind agg_kind = AggKind::kCount;
  bool distinct = false;
  bool star = false;       // COUNT(*)
  int agg_slot = -1;       // index into the aggregate slot list after analysis

  std::vector<ExprPtr> children;

  /// Debug rendering (parenthesized).
  std::string ToString() const;
};

ExprPtr MakeLiteral(storage::Value v);
ExprPtr MakeColumnRef(std::string qualifier, std::string column);
ExprPtr MakeUnary(UnaryOp op, ExprPtr child);
ExprPtr MakeBinary(BinaryOp op, ExprPtr lhs, ExprPtr rhs);
ExprPtr MakeInList(ExprPtr needle, std::vector<ExprPtr> haystack);
ExprPtr MakeIsNull(ExprPtr child, bool negated);
ExprPtr MakeLike(ExprPtr value, ExprPtr pattern, bool negated);
ExprPtr MakeAggregate(AggKind kind, bool distinct, ExprPtr arg /*null => star*/);

/// FROM item: table name with optional alias.
struct TableRef {
  std::string table;
  std::string alias;  // empty if none
  int bound_index = -1;  // the table's catalog position after analysis

  const std::string& effective_name() const {
    return alias.empty() ? table : alias;
  }
};

/// SELECT item: expression with optional AS alias.
struct SelectItem {
  ExprPtr expr;
  std::string alias;  // empty if none
};

/// SIZE clause: stop collecting when either bound is reached.
struct SizeClause {
  std::optional<uint64_t> max_tuples;
  std::optional<uint64_t> max_duration_ticks;  // simulation ticks
};

/// ORDER BY item: a result column (by name/alias or 1-based position).
struct OrderItem {
  ExprPtr expr;
  bool descending = false;
};

/// A parsed SELECT statement.
struct SelectStatement {
  /// SELECT DISTINCT: result rows are de-duplicated (querier-side, like
  /// ORDER BY).
  bool distinct = false;
  std::vector<SelectItem> select_list;
  std::vector<TableRef> from;
  ExprPtr where;                 // may be null
  std::vector<ExprPtr> group_by; // column refs
  ExprPtr having;                // may be null
  std::vector<OrderItem> order_by;
  std::optional<uint64_t> limit;
  std::optional<SizeClause> size;

  std::string ToString() const;
};

}  // namespace tcells::sql

#endif  // TCELLS_SQL_AST_H_
