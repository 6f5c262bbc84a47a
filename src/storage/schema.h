// Schema and Catalog: the common relational schema all TDSs conform to
// (§2.1: "local databases conform to a common schema which can be queried in
// SQL", e.g. the national distribution company defines the Power schema).
#ifndef TCELLS_STORAGE_SCHEMA_H_
#define TCELLS_STORAGE_SCHEMA_H_

#include <map>
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

/// Named tables -> schemas. The analyzer binds queries against it. A
/// Database holds its catalog interned (Catalog::Intern), so the TDSs of a
/// fleet built on the common schema share one immutable instance.
class Catalog {
 public:
  /// Fails if the name is already taken (case-insensitive).
  Status AddTable(const std::string& name, Schema schema);

  Result<const Schema*> GetSchema(std::string_view name) const;
  bool HasTable(std::string_view name) const;
  std::vector<std::string> TableNames() const;

  /// Exact equality: table and column names with their case, and column
  /// types.
  bool operator==(const Catalog& other) const = default;

  /// The process-wide instance equal to `catalog` (operator==), created
  /// from it if no live one exists. Two databases of the same shape thus
  /// hold the same pointer, and a query's cached analysis
  /// (tds::QueryCache::Analysis) keys on that identity. Thread-safe. The pool
  /// holds its instances weakly: a shape no database holds any more is
  /// freed.
  static std::shared_ptr<const Catalog> Intern(Catalog catalog);

 private:
  // Keyed by lower-cased name.
  std::map<std::string, std::pair<std::string, Schema>> tables_;
};

}  // namespace tcells::storage

#endif  // TCELLS_STORAGE_SCHEMA_H_
