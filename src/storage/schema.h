// Schema and Catalog: the common relational schema all TDSs conform to
// (§2.1: "local databases conform to a common schema which can be queried in
// SQL", e.g. the national distribution company defines the Power schema).
#ifndef TCELLS_STORAGE_SCHEMA_H_
#define TCELLS_STORAGE_SCHEMA_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/value.h"

namespace tcells::storage {

/// A named, typed column.
struct Column {
  std::string name;
  ValueType type = ValueType::kNull;

  /// Exact: the name's case counts.
  bool operator==(const Column& other) const = default;
};

/// Ordered column list of one table.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Column> columns);

  size_t num_columns() const { return columns_.size(); }
  const Column& column(size_t i) const { return columns_[i]; }
  const std::vector<Column>& columns() const { return columns_; }

  /// Case-insensitive lookup; nullopt if absent.
  std::optional<size_t> FindColumn(std::string_view name) const;

  /// Concatenation (used for local internal joins).
  static Schema Concat(const Schema& a, const Schema& b);

  /// Exact equality: names with their case, and column types.
  bool operator==(const Schema& other) const = default;

 private:
  std::vector<Column> columns_;
};

/// One table of a catalog: its name, with the case it was created with, and
/// its schema.
struct TableDef {
  std::string name;
  Schema schema;

  bool operator==(const TableDef& other) const = default;
};

/// Named tables -> schemas. The analyzer binds queries against it. A
/// Database holds its catalog interned (Catalog::Intern), so the TDSs of a
/// fleet built on the common schema share one immutable instance, and with
/// it every table name and schema: a Database's tables point into it.
class Catalog {
 public:
  /// Fails if the name is already taken (case-insensitive).
  Status AddTable(const std::string& name, Schema schema);

  /// The position of the table named `name` (case-insensitive): tables are
  /// kept in the order of their lower-cased names, whatever order they were
  /// added in. NotFound if absent.
  Result<size_t> FindTable(std::string_view name) const;
  size_t num_tables() const { return tables_.size(); }
  const TableDef& table(size_t i) const { return tables_[i]; }

  /// Exact equality: table and column names with their case, and column
  /// types.
  bool operator==(const Catalog& other) const = default;

  /// The process-wide instance equal to `catalog` (operator==), created
  /// from it if no live one exists. Two databases of the same shape thus
  /// hold the same pointer, and a query's analysis keys on that identity
  /// (sql::AnalyzedQuery::catalog, tds::QueryCache::Analysis). Thread-safe.
  /// The pool holds its instances weakly: a shape no database or analysis
  /// holds any more is freed.
  static std::shared_ptr<const Catalog> Intern(const Catalog& catalog);

 private:
  // Sorted by lower-cased name.
  std::vector<TableDef> tables_;
};

}  // namespace tcells::storage

#endif  // TCELLS_STORAGE_SCHEMA_H_
