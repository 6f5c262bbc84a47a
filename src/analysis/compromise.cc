#include "analysis/compromise.h"

#include <algorithm>
#include <cmath>

namespace tcells::analysis {

Result<CompromiseExposure> CompromiseFor(const std::string& protocol,
                                         CompromiseParams p) {
  TCELLS_ASSIGN_OR_RETURN(ModelTree tree, ResolveProtocol(protocol, &p));
  const FanOut f = PlanFanOut(p);
  // Probability that a uniformly assigned TDS is compromised, and that at
  // least one of m independent assignments is: 1 - (1-q)^m.
  const double q =
      p.Available() <= 0 ? 0 : std::min(1.0, p.compromised / p.Available());
  auto at_least_one = [q](double m) {
    return 1.0 - std::pow(1.0 - q, std::max(0.0, m));
  };
  CompromiseExposure e;
  e.raw_tuple_fraction = q;
  if (tree == ModelTree::kSAgg) {
    // A group's running aggregate passes through one TDS per merge level,
    // and the final merge root sees every group at once.
    e.group_aggregate_fraction = at_least_one(f.sagg_levels);
    e.all_groups_probability = q;
    return e;
  }
  // A group is touched by its n_NB step-1 TDSs plus one merger (noise), or
  // by its bucket's n_ED step-1 TDSs and its own m_ED + 1 mergers (ED_Hist).
  e.group_aggregate_fraction = at_least_one(
      tree == ModelTree::kNoise ? f.n_nb + 1.0 : f.n_ed + f.m_ed + 1.0);
  // No TDS ever holds more than one group's aggregate; seeing all G groups
  // requires G independent compromised assignments.
  e.all_groups_probability = std::pow(e.group_aggregate_fraction, p.groups);
  return e;
}

}  // namespace tcells::analysis
