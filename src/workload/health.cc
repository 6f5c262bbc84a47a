#include "workload/health.h"

namespace tcells::workload {

using storage::Schema;
using storage::Tuple;
using storage::Value;
using storage::ValueType;

Schema PatientSchema() {
  return Schema({{"pid", ValueType::kInt64},
                 {"age", ValueType::kInt64},
                 {"city", ValueType::kString},
                 {"condition", ValueType::kString}});
}

Schema VitalsSchema() {
  return Schema({{"pid", ValueType::kInt64},
                 {"systolic", ValueType::kInt64},
                 {"weight", ValueType::kDouble}});
}

Status PopulateHealthDb(storage::Database* db, uint64_t pid,
                        const HealthOptions& opts, Rng* rng) {
  TCELLS_RETURN_IF_ERROR(db->CreateTable("Patient", PatientSchema()));
  TCELLS_RETURN_IF_ERROR(db->CreateTable("Vitals", VitalsSchema()));

  ZipfSampler condition_sampler(opts.conditions.size(), opts.condition_skew);
  const std::string& city =
      opts.cities[rng->NextBelow(opts.cities.size())];
  const std::string& condition =
      opts.conditions[condition_sampler.Sample(rng)];
  int64_t age = rng->NextInRange(1, 99);

  TCELLS_ASSIGN_OR_RETURN(storage::Table * patient, db->GetTable("Patient"));
  TCELLS_RETURN_IF_ERROR(patient->Insert(Tuple({
      Value::Int64(static_cast<int64_t>(pid)),
      Value::Int64(age),
      Value::String(city),
      Value::String(condition),
  })));

  TCELLS_ASSIGN_OR_RETURN(storage::Table * vitals, db->GetTable("Vitals"));
  TCELLS_RETURN_IF_ERROR(vitals->Insert(Tuple({
      Value::Int64(static_cast<int64_t>(pid)),
      Value::Int64(rng->NextInRange(95, 180)),
      Value::Double(45.0 + rng->NextDouble() * 70.0),
  })));
  return Status::OK();
}

Result<std::unique_ptr<protocol::Fleet>> BuildHealthFleet(
    const HealthOptions& opts,
    std::shared_ptr<const crypto::KeyStore> keys,
    std::shared_ptr<const tds::Authority> authority,
    const tds::AccessPolicy& policy) {
  Rng rng(opts.seed);
  auto fleet = std::make_unique<protocol::Fleet>();
  for (size_t i = 0; i < opts.num_tds; ++i) {
    auto server = std::make_unique<tds::TrustedDataServer>(
        /*id=*/i, keys, authority, policy);
    TCELLS_RETURN_IF_ERROR(PopulateHealthDb(&server->db(), i, opts, &rng));
    fleet->Add(std::move(server));
  }
  return fleet;
}

}  // namespace tcells::workload
