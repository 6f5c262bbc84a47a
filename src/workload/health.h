// PCEHR workload: Personally Controlled Electronic Health Records embedded
// in seldom-connected secure tokens (§2.3, second scenario). Schema:
//
//   Patient(pid INT64, age INT64, city STRING, condition STRING)
//   Vitals(pid INT64, systolic INT64, weight DOUBLE)
//
// Supports both identifying SFW queries ("alert people older than 80 in
// Memphis") and aggregate surveillance queries ("COUNT patients with flu per
// state"), with doctor-scoped access control.
#ifndef TCELLS_WORKLOAD_HEALTH_H_
#define TCELLS_WORKLOAD_HEALTH_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "protocol/fleet.h"
#include "storage/schema.h"

namespace tcells::workload {

struct HealthOptions {
  size_t num_tds = 100;
  std::vector<std::string> cities = {"Memphis", "Nashville", "Knoxville"};
  std::vector<std::string> conditions = {"flu", "asthma", "diabetes", "none"};
  /// Zipf exponent of condition prevalence.
  double condition_skew = 0.8;
  uint64_t seed = 11;
};

storage::Schema PatientSchema();
storage::Schema VitalsSchema();

Status PopulateHealthDb(storage::Database* db, uint64_t pid,
                        const HealthOptions& opts, Rng* rng);

Result<std::unique_ptr<protocol::Fleet>> BuildHealthFleet(
    const HealthOptions& opts,
    std::shared_ptr<const crypto::KeyStore> keys,
    std::shared_ptr<const tds::Authority> authority,
    const tds::AccessPolicy& policy);

}  // namespace tcells::workload

#endif  // TCELLS_WORKLOAD_HEALTH_H_
