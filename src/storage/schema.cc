#include "storage/schema.h"

#include <algorithm>
#include <mutex>
#include <utility>

#include "common/strings.h"

namespace tcells::storage {

Schema::Schema(std::vector<Column> columns) : columns_(std::move(columns)) {}

std::optional<size_t> Schema::FindColumn(std::string_view name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (EqualsIgnoreCase(columns_[i].name, name)) return i;
  }
  return std::nullopt;
}

Schema Schema::Concat(const Schema& a, const Schema& b) {
  std::vector<Column> cols = a.columns();
  cols.insert(cols.end(), b.columns().begin(), b.columns().end());
  return Schema(std::move(cols));
}

Status Catalog::AddTable(const std::string& name, Schema schema) {
  if (FindTable(name).ok()) {
    return Status::InvalidArgument("table already exists: " + name);
  }
  const std::string key = ToLower(name);
  auto after = [&](const TableDef& t) { return key < ToLower(t.name); };
  tables_.insert(std::find_if(tables_.begin(), tables_.end(), after),
                 TableDef{name, std::move(schema)});
  return Status::OK();
}

Result<size_t> Catalog::FindTable(std::string_view name) const {
  for (size_t i = 0; i < tables_.size(); ++i) {
    if (EqualsIgnoreCase(tables_[i].name, name)) return i;
  }
  return Status::NotFound("no such table: " + std::string(name));
}

std::shared_ptr<const Catalog> Catalog::Intern(const Catalog& catalog) {
  static std::mutex mu;
  static std::vector<std::weak_ptr<const Catalog>> pool;
  std::lock_guard<std::mutex> lock(mu);
  // A fleet has a handful of live shapes, so a scan beats hashing a
  // catalog. Expired entries are dropped on the way.
  for (size_t i = 0; i < pool.size();) {
    std::shared_ptr<const Catalog> live = pool[i].lock();
    if (live == nullptr) {
      std::swap(pool[i], pool.back());
      pool.pop_back();
      continue;
    }
    if (live.get() == &catalog || *live == catalog) return live;
    ++i;
  }
  auto interned = std::make_shared<const Catalog>(catalog);
  pool.push_back(interned);
  return interned;
}

}  // namespace tcells::storage
