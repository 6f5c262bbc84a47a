#include "storage/table.h"

#include <cmath>
#include <utility>

namespace tcells::storage {

Status Table::Insert(Tuple row) {
  const Schema& s = schema();
  if (row.size() != s.num_columns()) {
    return Status::InvalidArgument("arity mismatch inserting into " + name());
  }
  for (size_t i = 0; i < row.size(); ++i) {
    const Value& v = row.at(i);
    if (v.is_null()) continue;
    const Column& col = s.column(i);
    // NaN is rejected at the storage boundary: it has no total order, which
    // would break grouping maps and MIN/MAX/MEDIAN invariants downstream.
    if (v.type() == ValueType::kDouble && std::isnan(v.AsDouble())) {
      return Status::InvalidArgument("NaN is not storable in column " +
                                     name() + "." + col.name);
    }
    if (v.type() != col.type) {
      return Status::InvalidArgument(
          "type mismatch in column " + name() + "." + col.name +
          ": expected " + ValueTypeToString(col.type) + ", got " +
          ValueTypeToString(v.type()));
    }
  }
  rows_.push_back(std::move(row));
  return Status::OK();
}

Database::Database() {
  static const std::shared_ptr<const Catalog> empty =
      Catalog::Intern(Catalog());
  catalog_ = empty;
}

Status Database::CreateTable(const std::string& name, Schema schema) {
  Catalog next = *catalog_;
  TCELLS_RETURN_IF_ERROR(next.AddTable(name, std::move(schema)));
  catalog_ = Catalog::Intern(next);
  const size_t at = catalog_->FindTable(name).ValueOrDie();
  tables_.insert(tables_.begin() + static_cast<std::ptrdiff_t>(at), Table());
  // The new catalog is another instance: every table re-points at it.
  for (size_t i = 0; i < tables_.size(); ++i) {
    tables_[i].def_ = &catalog_->table(i);
  }
  return Status::OK();
}

Result<const Table*> Database::GetTable(std::string_view name) const {
  TCELLS_ASSIGN_OR_RETURN(size_t i, catalog_->FindTable(name));
  return &tables_[i];
}

Result<Table*> Database::GetTable(std::string_view name) {
  TCELLS_ASSIGN_OR_RETURN(const Table* t, std::as_const(*this).GetTable(name));
  return const_cast<Table*>(t);
}

}  // namespace tcells::storage
