#include "sim/cost_accountant.h"

namespace tcells::sim {

const char* PhaseToString(Phase phase) {
  switch (phase) {
    case Phase::kCollection: return "collection";
    case Phase::kAggregation: return "aggregation";
    case Phase::kFiltering: return "filtering";
  }
  return "?";
}

void CostAccountant::RecordPartition(Phase phase,
                                     std::optional<uint64_t> tds_id,
                                     uint64_t bytes_in, uint64_t bytes_out,
                                     uint64_t tuples) {
  PhaseTally& t = phases_[static_cast<int>(phase)];
  t.partitions += 1;
  if (!tds_id) return;
  t.bytes_downloaded += bytes_in;
  t.bytes_uploaded += bytes_out;
  t.tuples_processed += tuples;
  TdsTally& d = per_tds_[*tds_id];
  d.bytes_in += bytes_in;
  d.bytes_out += bytes_out;
  d.tuples += tuples;
  d.participations += 1;
}

void CostAccountant::RecordIteration(Phase phase) {
  phases_[static_cast<int>(phase)].iterations += 1;
}

void CostAccountant::RecordDropouts(Phase phase, uint64_t count) {
  phases_[static_cast<int>(phase)].dropouts += count;
}

uint64_t CostAccountant::TotalBytes() const {
  uint64_t total = 0;
  for (const auto& t : phases_) {
    total += t.bytes_uploaded + t.bytes_downloaded;
  }
  return total;
}

double CostAccountant::AverageTdsSeconds(const DeviceModel& model) const {
  if (per_tds_.empty()) return 0;
  double total = 0;
  for (const auto& [id, t] : per_tds_) {
    total += model.BusySeconds(t.bytes_in + t.bytes_out, t.tuples);
  }
  return total / static_cast<double>(per_tds_.size());
}

}  // namespace tcells::sim
