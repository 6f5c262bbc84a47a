// Smart-meter workload: the paper's motivating scenario (§2.3). Every TDS is
// a power meter holding the common schema
//
//   Consumer(cid INT64, district STRING, accomodation STRING)
//   Power(cid INT64, cons DOUBLE, hour INT64)
//
// ("accomodation" keeps the paper's spelling). The example query:
//
//   SELECT AVG(Cons) FROM Power P, Consumer C
//   WHERE C.accomodation = 'detached house' AND C.cid = P.cid
//   GROUP BY C.district HAVING COUNT(DISTINCT C.cid) > 100 SIZE 50000
#ifndef TCELLS_WORKLOAD_SMART_METER_H_
#define TCELLS_WORKLOAD_SMART_METER_H_

#include <memory>

#include "common/result.h"
#include "protocol/fleet.h"
#include "storage/schema.h"

namespace tcells::workload {

struct SmartMeterOptions {
  size_t num_tds = 100;
  size_t num_districts = 10;
  /// Zipf exponent of district popularity (0 = uniform).
  double district_skew = 0.0;
  /// Power readings per meter.
  size_t readings_per_tds = 1;
  /// Fraction of consumers living in a detached house.
  double detached_fraction = 0.5;
  uint64_t seed = 7;
};

storage::Schema ConsumerSchema();
storage::Schema PowerSchema();

/// District name for index i ("D000", "D001", ...).
std::string DistrictName(size_t i);

/// Populates one Database with a consumer + readings (used directly by unit
/// tests; fleet construction below uses it per TDS).
Status PopulateSmartMeterDb(storage::Database* db, uint64_t cid,
                            const SmartMeterOptions& opts, Rng* rng);

/// Builds a fleet of `opts.num_tds` power-meter TDSs sharing `keys`,
/// `authority` and `policy`.
Result<std::unique_ptr<protocol::Fleet>> BuildSmartMeterFleet(
    const SmartMeterOptions& opts,
    std::shared_ptr<const crypto::KeyStore> keys,
    std::shared_ptr<const tds::Authority> authority,
    const tds::AccessPolicy& policy);

}  // namespace tcells::workload

#endif  // TCELLS_WORKLOAD_SMART_METER_H_
