// Protocol advisor: given deployment parameters (fleet size, expected group
// count, availability), evaluates the §6.1 cost model and §5 exposure
// analysis for every protocol and prints a Fig-11-style recommendation.
//
//   $ ./protocol_advisor [Nt] [G] [available_fraction]
//
// N_t and G must be positive finite numbers and the availability fraction
// must lie in (0, 1]; anything else exits 2 with "bad value: ...".
#include <cstdio>

#include "analysis/cost_model.h"
#include "analysis/tradeoff.h"
#include "common/strings.h"

using namespace tcells;

int main(int argc, char** argv) {
  analysis::CostParams p;
  double* positional[] = {&p.nt, &p.groups, &p.available_fraction};
  for (int i = 1; i < argc; ++i) {
    double v = 0;
    bool ok = i <= 3 && ParseFiniteDouble(argv[i], &v) && v > 0;
    if (i == 3) ok = ok && v <= 1;  // a fraction of the fleet
    if (!ok) {
      std::fprintf(stderr, "bad value: %s\n", argv[i]);
      return 2;
    }
    *positional[i - 1] = v;
  }

  std::printf("deployment: N_t=%.0f tuples, G=%.0f groups, %.0f%% of TDSs "
              "available for compute, s_t=%.0f B, T_t=%.1f us\n\n",
              p.nt, p.groups, p.available_fraction * 100, p.tuple_bytes,
              p.TupleSeconds() * 1e6);

  std::printf("%-12s %14s %14s %12s %14s\n", "protocol", "P_TDS", "Load_Q(MB)",
              "T_Q(s)", "T_local(s)");
  for (const auto& name : analysis::ComparedProtocols()) {
    analysis::CostMetrics m = analysis::CostFor(name, p).ValueOrDie();
    std::printf("%-12s %14.0f %14.1f %12.4f %14.6f%s\n", name.c_str(), m.ptds,
                m.load_bytes / 1e6, m.tq_seconds, m.tlocal_seconds,
                m.ram_feasible ? "" : "  [!] partial aggregate exceeds TDS RAM");
  }

  std::printf("\n%s\n", analysis::RenderTradeoffFigure(p).c_str());

  // A blunt recommendation following §6.4's two reference scenarios.
  bool seldom_connected = p.available_fraction <= 0.05;
  bool small_g = p.groups <= 10;
  const char* pick;
  if (small_g) {
    pick = "S_Agg (few groups: its merge tree is shallow and it needs very "
           "few TDSs)";
  } else if (seldom_connected) {
    pick = "ED_Hist (low-availability personal tokens: spreads tiny amounts "
           "of work over whoever is online)";
  } else {
    pick = "S_Agg for maximal confidentiality and global capacity, ED_Hist "
           "for responsiveness — both dominate the noise protocols";
  }
  std::printf("recommendation: %s\n", pick);
  return 0;
}
