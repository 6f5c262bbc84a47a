#include "analysis/tradeoff.h"

#include <algorithm>
#include <functional>
#include <sstream>

namespace tcells::analysis {

const char* TradeoffAxisToString(TradeoffAxis axis) {
  switch (axis) {
    case TradeoffAxis::kFeasibilityLocalResource:
      return "Feasibility, Local Resource Consumption";
    case TradeoffAxis::kResponsivenessLargeG:
      return "Responsiveness (large G)";
    case TradeoffAxis::kResponsivenessSmallG:
      return "Responsiveness (small G)";
    case TradeoffAxis::kGlobalResource:
      return "Global Resource Consumption";
    case TradeoffAxis::kConfidentiality:
      return "Confidentiality";
    case TradeoffAxis::kElasticity:
      return "Elasticity";
  }
  return "?";
}

namespace {

/// Orders ComparedProtocols() worst (largest score) to best (smallest).
std::vector<std::string> RankWorstFirst(
    const std::function<double(const std::string&)>& score) {
  std::vector<std::pair<double, std::string>> scored;
  for (const auto& name : ComparedProtocols()) {
    scored.emplace_back(score(name), name);
  }
  std::stable_sort(scored.begin(), scored.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<std::string> out;
  for (const auto& [score, name] : scored) out.push_back(name);
  return out;
}

/// Ranks by one cost-model output at `p`, the largest worst.
std::vector<std::string> RankByMetric(const CostParams& p,
                                      double CostMetrics::*metric) {
  return RankWorstFirst([&](const std::string& name) {
    return CostFor(name, p).ValueOrDie().*metric;
  });
}

}  // namespace

std::vector<std::string> RankAxis(TradeoffAxis axis, const CostParams& base) {
  switch (axis) {
    case TradeoffAxis::kFeasibilityLocalResource:
      return RankByMetric(base, &CostMetrics::tlocal_seconds);
    case TradeoffAxis::kResponsivenessLargeG: {
      // Evaluated at abundant availability so the axis reflects the
      // protocols' intrinsic parallel structure, not resource starvation
      // (starvation is the Elasticity axis).
      CostParams p = base;
      p.groups = 1e5;
      p.available_fraction = 1.0;
      return RankByMetric(p, &CostMetrics::tq_seconds);
    }
    case TradeoffAxis::kResponsivenessSmallG: {
      CostParams p = base;
      p.groups = 5;
      p.available_fraction = 1.0;
      return RankByMetric(p, &CostMetrics::tq_seconds);
    }
    case TradeoffAxis::kGlobalResource:
      return RankByMetric(base, &CostMetrics::load_bytes);
    case TradeoffAxis::kConfidentiality:
      // §5's conclusion: noise/histogram schemes must pay (huge noise volume,
      // strong collision) to match S_Agg's exposure; S_Agg is best by
      // construction. Orderings as in Fig 11.
      return {"R2_Noise", "C_Noise", "R1000_Noise", "ED_Hist", "S_Agg"};
    case TradeoffAxis::kElasticity: {
      // Relative T_Q degradation when availability drops 100% -> 1%;
      // worst = degrades most... S_Agg degrades least but also cannot
      // exploit extra TDSs — the paper ranks it worst on elasticity because
      // its parallelism is capped by G regardless of resources. Rank by
      // inability to convert resources into speed: the gain
      // T_Q(scarce) / T_Q(abundant), negated so that the smallest gain (the
      // least elastic) ranks worst.
      return RankWorstFirst([&](const std::string& name) {
        CostParams scarce = base;
        scarce.available_fraction = 0.01;
        CostParams abundant = base;
        abundant.available_fraction = 1.0;
        return -(CostFor(name, scarce)->tq_seconds /
                 std::max(1e-12, CostFor(name, abundant)->tq_seconds));
      });
    }
  }
  return {};
}

std::string RenderTradeoffFigure(const CostParams& base) {
  std::ostringstream os;
  for (TradeoffAxis axis :
       {TradeoffAxis::kFeasibilityLocalResource,
        TradeoffAxis::kResponsivenessLargeG,
        TradeoffAxis::kResponsivenessSmallG, TradeoffAxis::kGlobalResource,
        TradeoffAxis::kConfidentiality, TradeoffAxis::kElasticity}) {
    os << TradeoffAxisToString(axis) << "  (worst -> best)\n  ";
    auto ranking = RankAxis(axis, base);
    for (size_t i = 0; i < ranking.size(); ++i) {
      if (i) os << "  ->  ";
      os << ranking[i];
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace tcells::analysis
