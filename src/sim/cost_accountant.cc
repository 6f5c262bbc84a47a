#include "sim/cost_accountant.h"

#include <algorithm>

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
  charges_.push_back({*tds_id, {bytes_in, bytes_out, tuples, 1}});
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

std::vector<std::pair<uint64_t, TdsTally>> CostAccountant::per_tds() const {
  std::vector<std::pair<uint64_t, TdsTally>> folded = charges_;
  std::sort(folded.begin(), folded.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  // Merge each run of one id into its first charge.
  size_t n = 0;
  for (const auto& [id, c] : folded) {
    if (n > 0 && folded[n - 1].first == id) {
      TdsTally& d = folded[n - 1].second;
      d.bytes_in += c.bytes_in;
      d.bytes_out += c.bytes_out;
      d.tuples += c.tuples;
      d.participations += c.participations;
    } else {
      folded[n++] = {id, c};
    }
  }
  folded.resize(n);
  return folded;
}

double CostAccountant::AverageTdsSeconds(const DeviceModel& model) const {
  const std::vector<std::pair<uint64_t, TdsTally>> tallies = per_tds();
  if (tallies.empty()) return 0;
  double total = 0;
  for (const auto& [id, t] : tallies) {
    total += model.BusySeconds(t.bytes_in + t.bytes_out, t.tuples);
  }
  return total / static_cast<double>(tallies.size());
}

}  // namespace tcells::sim
