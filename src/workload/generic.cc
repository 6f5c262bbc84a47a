#include "workload/generic.h"

#include <cstdio>

namespace tcells::workload {

using storage::Schema;
using storage::Tuple;
using storage::Value;
using storage::ValueType;

Schema GenericSchema() {
  return Schema({{"gid", ValueType::kInt64},
                 {"grp", ValueType::kString},
                 {"val", ValueType::kDouble},
                 {"cat", ValueType::kInt64}});
}

std::string GroupName(size_t i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "G%02zu", i);
  return buf;
}

Status PopulateGenericDb(storage::Database* db, uint64_t tds_id,
                         const GenericOptions& opts, Rng* rng) {
  TCELLS_RETURN_IF_ERROR(db->CreateTable("T", GenericSchema()));
  TCELLS_ASSIGN_OR_RETURN(storage::Table * t, db->GetTable("T"));
  ZipfSampler group_sampler(opts.num_groups, opts.group_skew);
  for (size_t r = 0; r < opts.rows_per_tds; ++r) {
    size_t g = group_sampler.Sample(rng);
    TCELLS_RETURN_IF_ERROR(t->Insert(Tuple({
        Value::Int64(static_cast<int64_t>(g)),
        Value::String(GroupName(g)),
        Value::Double(rng->NextDouble() * 100.0),
        Value::Int64(rng->NextInRange(0, 9)),
    })));
  }
  (void)tds_id;
  return Status::OK();
}

Result<std::unique_ptr<protocol::Fleet>> BuildGenericFleet(
    const GenericOptions& opts,
    std::shared_ptr<const crypto::KeyStore> keys,
    std::shared_ptr<const tds::Authority> authority,
    const tds::AccessPolicy& policy) {
  Rng rng(opts.seed);
  auto fleet = std::make_unique<protocol::Fleet>();
  for (size_t i = 0; i < opts.num_tds; ++i) {
    auto server = std::make_unique<tds::TrustedDataServer>(
        /*id=*/i, keys, authority, policy);
    TCELLS_RETURN_IF_ERROR(PopulateGenericDb(&server->db(), i, opts, &rng));
    fleet->Add(std::move(server));
  }
  return fleet;
}

}  // namespace tcells::workload
