#include "analysis/cost_model.h"

#include <algorithm>
#include <cmath>
#include <string_view>

#include "common/strings.h"

namespace tcells::analysis {

namespace {

/// Assignment waves when a step needs `demand` concurrent TDSs but only
/// `available` exist.
double Waves(double demand, double available) {
  if (available <= 0) return 1;
  return std::max(1.0, std::ceil(demand / available));
}

/// Shared phase costs: collection is one tuple upload per TDS; filtering
/// spreads the G-item covering result's download+upload pairs over the
/// available TDSs.
void FillCommonPhases(const CostParams& p, CostMetrics* m) {
  m->collection_seconds_per_tds = p.TupleSeconds();
  double waves = Waves(p.groups, p.Available());
  m->filtering_seconds = waves * 2.0 * p.TupleSeconds();
}

}  // namespace

FanOut PlanFanOut(const CostParams& p) {
  FanOut f;
  const double avail = p.Available();
  // At least one merge level, however few tuples per group.
  f.sagg_levels = std::max(
      1.0, std::ceil(std::log(std::max(p.alpha, p.nt / p.groups)) /
                     std::log(p.alpha)));
  // The tag protocols' optima (Cauchy, §6.1.2/§6.1.3) are bounded by the
  // TDSs that can be devoted to each group (A/G) or bucket (A·h/G): with
  // fewer, one TDS handles several groups in sequence, which shows up as a
  // larger per-TDS ingest in step 1 — how scarcity slows these protocols.
  f.n_nb = std::max(1.0, std::min(std::sqrt((p.nf + 1.0) * p.nt / p.groups),
                                  std::max(1.0, avail / p.groups)));
  const double r = p.h * p.nt / p.groups;  // tuples per bucket
  f.n_ed = std::max(1.0, std::min(std::pow(r, 2.0 / 3.0),
                                  std::max(1.0, avail * p.h / p.groups)));
  f.m_ed = std::max(1.0,
                    std::min(std::cbrt(r), std::max(1.0, avail / p.groups)));
  return f;
}

Result<ModelTree> ResolveProtocol(const std::string& name, CostParams* p) {
  if (name == "S_Agg") return ModelTree::kSAgg;
  if (name == "ED_Hist") return ModelTree::kEdHist;
  if (name == "C_Noise") {  // Rnf_Noise with nf = n_d - 1
    double nd = p->domain_cardinality > 0 ? p->domain_cardinality : p->groups;
    p->nf = std::max(0.0, nd - 1.0);
    return ModelTree::kNoise;
  }
  constexpr std::string_view kNoise = "_Noise";
  std::string_view s = name;
  if (s.starts_with('R') && s.ends_with(kNoise) &&
      ParseFiniteDouble(s.substr(1, s.size() - 1 - kNoise.size()), &p->nf) &&
      p->nf >= 0) {
    return ModelTree::kNoise;
  }
  return Status::InvalidArgument("unknown model protocol: " + name);
}

std::vector<std::string> ComparedProtocols() {
  return {"S_Agg", "R2_Noise", "R1000_Noise", "C_Noise", "ED_Hist"};
}

double SAggOptimalAlpha() { return 3.6; }

CostMetrics SAggCost(const CostParams& p) {
  CostMetrics m;
  const double a = p.alpha;
  const double n = PlanFanOut(p).sagg_levels;
  const double avail = p.Available();
  const double tt = p.TupleSeconds();

  // N_i = N_t / (G * a^i); the last step has a single TDS.
  double ptds = 0;
  double tq = 0;
  double merge_load_tuples = 0;  // tuples ingested in steps 2..n (a*G each)
  for (int i = 1; i <= static_cast<int>(n); ++i) {
    double ni = std::max(1.0, p.nt / (p.groups * std::pow(a, i)));
    ptds += ni;
    // Per step: download a*G pairs, upload G pairs (t_i + t_i').
    tq += Waves(ni, avail) * (a + 1.0) * p.groups * tt;
    if (i >= 2) merge_load_tuples += a * p.groups * ni;
  }

  // Load_Q = (1 + 2*sum a^-i) * N_t * s_t (§6.1.1): the raw tuples once,
  // plus each merge step's downloads and uploads.
  double geo = 0;
  for (int i = 1; i <= static_cast<int>(n); ++i) geo += std::pow(a, -i);
  m.load_bytes = (1.0 + 2.0 * geo) * p.nt * p.tuple_bytes;

  m.ptds = ptds;
  m.tq_seconds = tq;
  m.tlocal_seconds = (p.nt + merge_load_tuples) * tt / std::max(1.0, ptds);
  FillCommonPhases(p, &m);
  // §4.2: the partial aggregate structure (one state per group) must fit in
  // the device RAM, or S_Agg's merging becomes infeasible on this hardware.
  m.ram_feasible = p.groups * p.agg_state_bytes <= p.device.ram_bytes;
  return m;
}

CostMetrics RnfNoiseCost(const CostParams& p) {
  CostMetrics m;
  const double noisy_nt = (p.nf + 1.0) * p.nt;
  const double n_nb = PlanFanOut(p).n_nb;
  const double tt = p.TupleSeconds();

  // Step 1: n_NB TDSs per group, each ingesting (nf+1)N_t/(n_NB G) tuples.
  double t1 = (noisy_nt / (n_nb * p.groups) + 1.0) * tt;
  // Step 2: one TDS per group merges the n_NB partials.
  double t2 = (n_nb + 1.0) * tt;

  m.tq_seconds = t1 + t2;
  m.ptds = (n_nb + 1.0) * p.groups;
  m.load_bytes = (noisy_nt + 2.0 * n_nb * p.groups + p.groups) * p.tuple_bytes;
  m.tlocal_seconds = noisy_nt / p.groups * tt;
  FillCommonPhases(p, &m);
  return m;
}

CostMetrics CNoiseCost(const CostParams& p) {
  return CostFor("C_Noise", p).ValueOrDie();
}

CostMetrics EdHistCost(const CostParams& p) {
  CostMetrics m;
  const double r = p.h * p.nt / p.groups;  // tuples per bucket
  const FanOut f = PlanFanOut(p);
  const double n_ed = f.n_ed, m_ed = f.m_ed;
  const double tt = p.TupleSeconds();

  // Step 1: n_ED TDSs per bucket ingest r/n_ED tuples and emit one partial
  // per group of the bucket (h uploads).
  double t1 = (r / n_ed + p.h) * tt;
  // Step 2: m_ED TDSs per group merge n_ED/m_ED partials each.
  double t2 = (n_ed / m_ed + 1.0) * tt;
  // Step 3: one TDS per group merges the m_ED partials.
  double t3 = (m_ed + 1.0) * tt;

  m.tq_seconds = t1 + t2 + t3;
  m.ptds = (n_ed / p.h + m_ed + 1.0) * p.groups;
  m.load_bytes =
      (p.nt + 2.0 * n_ed * p.groups + 2.0 * m_ed * p.groups + p.groups) *
      p.tuple_bytes;
  m.tlocal_seconds = (p.nt + n_ed * p.groups + m_ed * p.groups) * tt /
                     std::max(1.0, m.ptds);
  FillCommonPhases(p, &m);
  return m;
}

Result<CostMetrics> CostFor(const std::string& protocol, CostParams p) {
  TCELLS_ASSIGN_OR_RETURN(ModelTree tree, ResolveProtocol(protocol, &p));
  if (tree == ModelTree::kNoise) return RnfNoiseCost(p);
  if (tree == ModelTree::kEdHist) return EdHistCost(p);
  return SAggCost(p);
}

}  // namespace tcells::analysis
