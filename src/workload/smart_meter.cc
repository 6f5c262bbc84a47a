#include "workload/smart_meter.h"

#include <cstdio>

namespace tcells::workload {

using storage::Column;
using storage::Schema;
using storage::Tuple;
using storage::Value;
using storage::ValueType;

Schema ConsumerSchema() {
  return Schema({{"cid", ValueType::kInt64},
                 {"district", ValueType::kString},
                 {"accomodation", ValueType::kString}});
}

Schema PowerSchema() {
  return Schema({{"cid", ValueType::kInt64},
                 {"cons", ValueType::kDouble},
                 {"hour", ValueType::kInt64}});
}

std::string DistrictName(size_t i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "D%03zu", i);
  return buf;
}

Status PopulateSmartMeterDb(storage::Database* db, uint64_t cid,
                            const SmartMeterOptions& opts, Rng* rng) {
  TCELLS_RETURN_IF_ERROR(db->CreateTable("Consumer", ConsumerSchema()));
  TCELLS_RETURN_IF_ERROR(db->CreateTable("Power", PowerSchema()));

  ZipfSampler district_sampler(opts.num_districts,
                               opts.district_skew);
  size_t district = district_sampler.Sample(rng);
  bool detached = rng->NextBool(opts.detached_fraction);

  TCELLS_ASSIGN_OR_RETURN(storage::Table * consumer, db->GetTable("Consumer"));
  TCELLS_RETURN_IF_ERROR(consumer->Insert(Tuple({
      Value::Int64(static_cast<int64_t>(cid)),
      Value::String(DistrictName(district)),
      Value::String(detached ? "detached house" : "apartment"),
  })));

  TCELLS_ASSIGN_OR_RETURN(storage::Table * power, db->GetTable("Power"));
  for (size_t r = 0; r < opts.readings_per_tds; ++r) {
    // Consumption in kWh: detached houses draw more on average.
    double base = detached ? 1.2 : 0.6;
    double cons = base + rng->NextDouble() * base;
    TCELLS_RETURN_IF_ERROR(power->Insert(Tuple({
        Value::Int64(static_cast<int64_t>(cid)),
        Value::Double(cons),
        Value::Int64(static_cast<int64_t>(r % 24)),
    })));
  }
  return Status::OK();
}

Result<std::unique_ptr<protocol::Fleet>> BuildSmartMeterFleet(
    const SmartMeterOptions& opts,
    std::shared_ptr<const crypto::KeyStore> keys,
    std::shared_ptr<const tds::Authority> authority,
    const tds::AccessPolicy& policy) {
  Rng rng(opts.seed);
  auto fleet = std::make_unique<protocol::Fleet>();
  for (size_t i = 0; i < opts.num_tds; ++i) {
    auto server = std::make_unique<tds::TrustedDataServer>(
        /*id=*/i, keys, authority, policy);
    TCELLS_RETURN_IF_ERROR(
        PopulateSmartMeterDb(&server->db(), /*cid=*/i, opts, &rng));
    fleet->Add(std::move(server));
  }
  return fleet;
}

}  // namespace tcells::workload
