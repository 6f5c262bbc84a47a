// Closed-form model for the compromised-TDS threat extension (the paper's
// future work item 2), complementing the empirical LeakLog measurements.
//
// Assumption: c of the A available compute TDSs (CostParams::Available())
// are compromised and leak everything they decrypt; partition assignment is
// uniform, and the aggregation trees have the cost model's fan-outs
// (PlanFanOut). Three exposure quantities per protocol:
//   * raw tuples  — every collection tuple is decrypted by exactly one
//     first-step TDS, so the expected leaked fraction is c/A for every
//     protocol (the protocols differ downstream, not here);
//   * group aggregates — fraction of groups whose (partial or final)
//     aggregate some compromised TDS decrypts; depends on how many TDSs
//     touch each group;
//   * all-groups event — probability that a single compromised TDS sees the
//     aggregates of *every* group. S_Agg's merge root makes this a c/A
//     event, a structural single point of exposure the tag-based protocols
//     do not have.
#ifndef TCELLS_ANALYSIS_COMPROMISE_H_
#define TCELLS_ANALYSIS_COMPROMISE_H_

#include <string>

#include "analysis/cost_model.h"
#include "common/result.h"

namespace tcells::analysis {

/// The cost model's workload, with c compromised TDSs in its compute pool.
struct CompromiseParams : CostParams {
  double compromised = 1;  ///< c: compromised TDSs within the pool
};

struct CompromiseExposure {
  /// Expected fraction of raw collection tuples leaked in plaintext.
  double raw_tuple_fraction = 0;
  /// Expected fraction of groups whose aggregate is leaked.
  double group_aggregate_fraction = 0;
  /// Probability that one compromised TDS alone sees every group.
  double all_groups_probability = 0;
};

/// Exposure of the protocol named as in ResolveProtocol.
Result<CompromiseExposure> CompromiseFor(const std::string& protocol,
                                         CompromiseParams p);

}  // namespace tcells::analysis

#endif  // TCELLS_ANALYSIS_COMPROMISE_H_
