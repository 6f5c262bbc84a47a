// CostAccountant: tallies what a protocol run actually moved and computed,
// per phase and per TDS, while the run executes functionally. The figures of
// §6.3 are then derived by combining these tallies with a DeviceModel.
//
// It is the one per-query tally: protocol::RunMetrics embeds it, and the
// trace's collection and round counts and the engine.* registry counters are
// written from it (docs/OBSERVABILITY.md), never counted a second time.
#ifndef TCELLS_SIM_COST_ACCOUNTANT_H_
#define TCELLS_SIM_COST_ACCOUNTANT_H_

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "sim/device_model.h"

namespace tcells::sim {

/// The three phases of the generic protocol (§4.1).
enum class Phase { kCollection = 0, kAggregation = 1, kFiltering = 2 };

const char* PhaseToString(Phase phase);

/// Totals for one phase.
struct PhaseTally {
  uint64_t bytes_uploaded = 0;     ///< TDS -> SSI
  uint64_t bytes_downloaded = 0;   ///< SSI -> TDS
  uint64_t tuples_processed = 0;   ///< tuples deserialized/aggregated on TDSs
  uint64_t partitions = 0;         ///< partitions (collection: uploads)
  uint64_t iterations = 0;         ///< aggregation rounds (S_Agg)
  uint64_t dropouts = 0;           ///< partitions re-dispatched after a loss
};

/// Per-TDS work (to derive T_local and the parallelism profile).
struct TdsTally {
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  uint64_t tuples = 0;
  uint64_t participations = 0;
};

/// Accumulates tallies during a protocol run.
class CostAccountant {
 public:
  /// Records one partition of `phase` (a collection upload is one
  /// partition). `tds_id` is the TDS that processed it and is charged its
  /// bytes and tuples. A partition no TDS processed (lost at stage or fetch)
  /// passes nullopt: it counts in the phase's partitions and nowhere else.
  void RecordPartition(Phase phase, std::optional<uint64_t> tds_id,
                       uint64_t bytes_in, uint64_t bytes_out, uint64_t tuples);
  void RecordIteration(Phase phase);
  void RecordDropouts(Phase phase, uint64_t count);

  const PhaseTally& phase(Phase p) const {
    return phases_[static_cast<int>(p)];
  }
  /// Per-TDS tallies in id order, folded from the recorded charges.
  std::vector<std::pair<uint64_t, TdsTally>> per_tds() const;

  /// Number of distinct TDSs that participated anywhere — P_TDS.
  size_t DistinctTds() const { return per_tds().size(); }

  /// Total bytes through the system — Load_Q.
  uint64_t TotalBytes() const;

  /// Average per-TDS busy time under `model` — T_local, summed in id order.
  double AverageTdsSeconds(const DeviceModel& model) const;

 private:
  PhaseTally phases_[3];
  /// One (TDS id, charge) per partition, in arrival order; per_tds() sorts
  /// and merges by id, so recording is one append, not a tree insertion.
  std::vector<std::pair<uint64_t, TdsTally>> charges_;
};

}  // namespace tcells::sim

#endif  // TCELLS_SIM_COST_ACCOUNTANT_H_
