// Fig 11: qualitative worst-to-best ranking of the protocols along six axes,
// derived from the cost model (four performance axes) and the exposure
// analysis (confidentiality), plus the elasticity conclusion of §6.3.
#ifndef TCELLS_ANALYSIS_TRADEOFF_H_
#define TCELLS_ANALYSIS_TRADEOFF_H_

#include <string>
#include <vector>

#include "analysis/cost_model.h"

namespace tcells::analysis {

/// The comparison axes of Fig 11.
enum class TradeoffAxis {
  kFeasibilityLocalResource,  ///< T_local (feasibility on low-end TDSs)
  kResponsivenessLargeG,      ///< T_Q at large G
  kResponsivenessSmallG,      ///< T_Q at small G
  kGlobalResource,            ///< Load_Q
  kConfidentiality,           ///< exposure coefficient
  kElasticity,                ///< T_Q sensitivity to available TDSs
};

const char* TradeoffAxisToString(TradeoffAxis axis);

/// Worst-to-best ordering of ComparedProtocols() along `axis`, computed from
/// the cost model at the paper's reference parameters (confidentiality and
/// elasticity use the analysis of §5/§6.3).
std::vector<std::string> RankAxis(TradeoffAxis axis, const CostParams& base);

/// Full Fig 11 rendering.
std::string RenderTradeoffFigure(const CostParams& base);

}  // namespace tcells::analysis

#endif  // TCELLS_ANALYSIS_TRADEOFF_H_
