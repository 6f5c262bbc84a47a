// Generic single-table workload for property tests and benches: a table
//
//   T(gid INT64, grp STRING, val DOUBLE, cat INT64)
//
// with a controllable number of groups and skew, so that protocol-vs-oracle
// equivalence can be swept over (N_t, G, skew, protocol) combinations.
#ifndef TCELLS_WORKLOAD_GENERIC_H_
#define TCELLS_WORKLOAD_GENERIC_H_

#include <memory>

#include "common/result.h"
#include "protocol/fleet.h"
#include "storage/schema.h"

namespace tcells::workload {

struct GenericOptions {
  size_t num_tds = 50;
  size_t num_groups = 5;
  /// Zipf exponent of group popularity (0 = uniform).
  double group_skew = 0.0;
  /// Rows per TDS.
  size_t rows_per_tds = 1;
  uint64_t seed = 3;
};

storage::Schema GenericSchema();

/// Group label for index i ("G00", ...).
std::string GroupName(size_t i);

Status PopulateGenericDb(storage::Database* db, uint64_t tds_id,
                         const GenericOptions& opts, Rng* rng);

Result<std::unique_ptr<protocol::Fleet>> BuildGenericFleet(
    const GenericOptions& opts,
    std::shared_ptr<const crypto::KeyStore> keys,
    std::shared_ptr<const tds::Authority> authority,
    const tds::AccessPolicy& policy);

}  // namespace tcells::workload

#endif  // TCELLS_WORKLOAD_GENERIC_H_
