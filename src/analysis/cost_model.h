// Analytical cost model of §6.1, calibrated by the device model of §6.2.
//
// For each protocol it computes the four metrics of the evaluation:
//   P_TDS   — number of TDSs participating in the computation (parallelism);
//   Load_Q  — global resource consumption in bytes (scalability);
//   T_Q     — query response time, aggregation phase only (responsiveness);
//   T_local — average per-TDS compute time (feasibility).
//
// The model follows the paper's formulas step by step, with one addition:
// when a phase demands more concurrent TDSs than are available, its time is
// multiplied by the number of assignment waves (this is what makes the
// elasticity sweeps of Fig 10 i/e/j come out).
#ifndef TCELLS_ANALYSIS_COST_MODEL_H_
#define TCELLS_ANALYSIS_COST_MODEL_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "sim/device_model.h"

namespace tcells::analysis {

/// Model inputs (§6.3 fixed values as defaults).
struct CostParams {
  double nt = 1e6;        ///< N_t: tuples (== TDSs) in the collection phase
  double groups = 1e3;    ///< G: number of groups
  double tuple_bytes = 16;///< s_t: size of one encrypted tuple
  double alpha = 3.6;     ///< S_Agg reduction factor (3.6 is optimal)
  double nf = 2;          ///< Rnf_Noise: fakes per true tuple
  double domain_cardinality = 0;  ///< C_Noise: n_d; 0 means n_d == G
  double h = 5;           ///< ED_Hist: groups per hash bucket
  double available_fraction = 0.1;  ///< TDSs available for compute phases / N_t
  double agg_state_bytes = 48;      ///< per-group in-RAM aggregate state size
  /// The TDS hardware (§6.2): its DeviceModel gives T_t, the per-tuple cost
  /// (transfer + crypto + CPU), and its RAM bounds S_Agg's partial aggregate.
  sim::DeviceParams device;

  /// A: TDSs available for the compute phases.
  double Available() const { return available_fraction * nt; }
  /// T_t: DeviceModel::PerTupleSeconds(s_t).
  double TupleSeconds() const {
    return sim::DeviceModel(device).PerTupleSeconds(
        static_cast<uint64_t>(tuple_bytes));
  }
};

/// Model outputs.
struct CostMetrics {
  double ptds = 0;
  double load_bytes = 0;
  double tq_seconds = 0;       // aggregation phase (the paper's T_Q)
  double tlocal_seconds = 0;
  /// Per-TDS cost of producing its collection tuple(s) (the wall-clock of
  /// this phase is application-dependent, §2.3).
  double collection_seconds_per_tds = 0;
  /// Filtering phase: covering result spread over the available TDSs.
  double filtering_seconds = 0;
  /// S_Agg only: false when G * agg_state_bytes exceeds the device RAM —
  /// the feasibility limit of §4.2 (tag-based protocols keep per-partition
  /// group counts small and are unaffected).
  bool ram_feasible = true;
};

/// The aggregation trees' fan-outs at `p` (§6.1), each capped by the TDSs
/// available. The cost and compromise models both read them from here.
struct FanOut {
  double sagg_levels = 1;  ///< S_Agg merge levels: ceil(log_alpha(N_t/G))
  double n_nb = 1;  ///< Noise: step-1 TDSs per group, sqrt((nf+1)·N_t/G)
  double n_ed = 1;  ///< ED_Hist: step-1 TDSs per bucket, (h·N_t/G)^(2/3)
  double m_ed = 1;  ///< ED_Hist: step-2 TDSs per group, (h·N_t/G)^(1/3)
};
FanOut PlanFanOut(const CostParams& p);

/// The aggregation tree a model protocol builds.
enum class ModelTree { kSAgg, kNoise, kEdHist };

/// Resolves a model protocol name: "S_Agg", "ED_Hist", "C_Noise" (sets
/// `p->nf` to n_d - 1) or "R<nf>_Noise" (sets `p->nf`). InvalidArgument on
/// any other name, or on an nf that is not a finite non-negative number
/// (`p->nf` is then unspecified).
Result<ModelTree> ResolveProtocol(const std::string& name, CostParams* p);

/// The protocols of Figs 10 and 11, by model name.
std::vector<std::string> ComparedProtocols();

/// §6.1.1. Optimal reduction factor: alpha ≈ 3.6 minimizes
/// (alpha+1)·log_alpha(N_t/G).
CostMetrics SAggCost(const CostParams& p);
double SAggOptimalAlpha();

/// §6.1.2, white-noise flavour. The optimal n_NB is sqrt((nf+1)·N_t/G).
CostMetrics RnfNoiseCost(const CostParams& p);

/// §6.1.2 with complementary-domain noise: nf = n_d - 1.
CostMetrics CNoiseCost(const CostParams& p);

/// §6.1.3. Optimal n_ED = (h·N_t/G)^(2/3), m_ED = (h·N_t/G)^(1/3).
CostMetrics EdHistCost(const CostParams& p);

/// Cost of the protocol named as in ResolveProtocol.
Result<CostMetrics> CostFor(const std::string& protocol, CostParams p);

}  // namespace tcells::analysis

#endif  // TCELLS_ANALYSIS_COST_MODEL_H_
