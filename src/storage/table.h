// Table: the in-memory row store of a personal database. The local datasets
// in the paper fit in the token's Flash; a vector of rows models that here.
#ifndef TCELLS_STORAGE_TABLE_H_
#define TCELLS_STORAGE_TABLE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/schema.h"
#include "storage/tuple.h"

namespace tcells::storage {

/// A schema-checked bag of tuples.
class Table {
 public:
  Table(std::string name, Schema schema)
      : name_(std::move(name)), schema_(std::move(schema)) {}

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return rows_.size(); }
  const std::vector<Tuple>& rows() const { return rows_; }
  const Tuple& row(size_t i) const { return rows_[i]; }

  /// Checks arity and per-column type (NULL fits any column).
  Status Insert(Tuple row);

  void Clear() { rows_.clear(); }

 private:
  std::string name_;
  Schema schema_;
  std::vector<Tuple> rows_;
};

/// A set of named tables with an interned catalog — one TDS's local
/// database, or the plaintext union database used as the test oracle.
class Database {
 public:
  /// Starts with the interned empty catalog.
  Database();

  /// Interns the current catalog plus the new table (Catalog::Intern) and
  /// creates empty storage.
  Status CreateTable(const std::string& name, Schema schema);

  Result<Table*> GetTable(std::string_view name);
  Result<const Table*> GetTable(std::string_view name) const;
  const Catalog& catalog() const { return *catalog_; }
  /// The interned instance itself: every database of the same shape holds
  /// the same pointer.
  const std::shared_ptr<const Catalog>& shared_catalog() const {
    return catalog_;
  }

 private:
  std::shared_ptr<const Catalog> catalog_;
  // Parallel to catalog registration order; keyed by lower-case name.
  std::vector<std::unique_ptr<Table>> tables_;
};

}  // namespace tcells::storage

#endif  // TCELLS_STORAGE_TABLE_H_
