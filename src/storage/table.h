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

/// A schema-checked bag of tuples. Its name and schema live in the owning
/// Database's interned catalog; the table holds only its rows.
class Table {
 public:
  const std::string& name() const { return def_->name; }
  const Schema& schema() const { return def_->schema; }
  size_t num_rows() const { return rows_.size(); }
  const std::vector<Tuple>& rows() const { return rows_; }
  const Tuple& row(size_t i) const { return rows_[i]; }

  /// Checks arity and per-column type (NULL fits any column).
  Status Insert(Tuple row);

 private:
  friend class Database;
  Table() = default;

  const TableDef* def_ = nullptr;
  std::vector<Tuple> rows_;
};

/// A set of named tables with an interned catalog — one TDS's local
/// database, or the plaintext union database used as the test oracle.
/// Table i is the catalog's table i.
class Database {
 public:
  /// Starts with the interned empty catalog.
  Database();

  /// Interns the current catalog plus the new table (Catalog::Intern) and
  /// creates empty storage at the table's catalog position. A Table* from
  /// GetTable stays valid only until the next CreateTable.
  Status CreateTable(const std::string& name, Schema schema);

  /// The table at the name's catalog position (case-insensitive); NotFound
  /// if absent.
  Result<Table*> GetTable(std::string_view name);
  Result<const Table*> GetTable(std::string_view name) const;
  /// The table at catalog position `i`.
  const Table& table(size_t i) const { return tables_[i]; }
  const Catalog& catalog() const { return *catalog_; }
  /// The interned instance itself: every database of the same shape holds
  /// the same pointer.
  const std::shared_ptr<const Catalog>& shared_catalog() const {
    return catalog_;
  }

 private:
  std::shared_ptr<const Catalog> catalog_;
  std::vector<Table> tables_;
};

}  // namespace tcells::storage

#endif  // TCELLS_STORAGE_TABLE_H_
