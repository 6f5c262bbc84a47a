#include "storage/table.h"

#include <cmath>

#include "common/strings.h"

namespace tcells::storage {

Status Table::Insert(Tuple row) {
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument("arity mismatch inserting into " + name_);
  }
  for (size_t i = 0; i < row.size(); ++i) {
    const Value& v = row.at(i);
    if (v.is_null()) continue;
    // NaN is rejected at the storage boundary: it has no total order, which
    // would break grouping maps and MIN/MAX/MEDIAN invariants downstream.
    if (v.type() == ValueType::kDouble && std::isnan(v.AsDouble())) {
      return Status::InvalidArgument("NaN is not storable in column " +
                                     schema_.column(i).name);
    }
    if (v.type() != schema_.column(i).type) {
      return Status::InvalidArgument(
          "type mismatch in column " + schema_.column(i).name + ": expected " +
          ValueTypeToString(schema_.column(i).type) + ", got " +
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
  TCELLS_RETURN_IF_ERROR(next.AddTable(name, schema));
  catalog_ = Catalog::Intern(std::move(next));
  tables_.push_back(std::make_unique<Table>(name, std::move(schema)));
  return Status::OK();
}

Result<Table*> Database::GetTable(std::string_view name) {
  for (auto& t : tables_) {
    if (EqualsIgnoreCase(t->name(), name)) return t.get();
  }
  return Status::NotFound("no such table: " + std::string(name));
}

Result<const Table*> Database::GetTable(std::string_view name) const {
  for (const auto& t : tables_) {
    if (EqualsIgnoreCase(t->name(), name)) return t.get();
  }
  return Status::NotFound("no such table: " + std::string(name));
}

}  // namespace tcells::storage
