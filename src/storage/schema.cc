#include "storage/schema.h"

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
  std::string key = ToLower(name);
  if (tables_.count(key)) {
    return Status::InvalidArgument("table already exists: " + name);
  }
  tables_.emplace(key, std::make_pair(name, std::move(schema)));
  return Status::OK();
}

Result<const Schema*> Catalog::GetSchema(std::string_view name) const {
  auto it = tables_.find(ToLower(name));
  if (it == tables_.end()) {
    return Status::NotFound("no such table: " + std::string(name));
  }
  return &it->second.second;
}

bool Catalog::HasTable(std::string_view name) const {
  return tables_.count(ToLower(name)) > 0;
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [key, value] : tables_) names.push_back(value.first);
  return names;
}

std::shared_ptr<const Catalog> Catalog::Intern(Catalog catalog) {
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
    if (*live == catalog) return live;
    ++i;
  }
  auto interned = std::make_shared<const Catalog>(std::move(catalog));
  pool.push_back(interned);
  return interned;
}

}  // namespace tcells::storage
