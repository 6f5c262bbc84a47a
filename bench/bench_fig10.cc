// Fig 10 a–j: the §6 cost model's four metrics for every compared protocol,
// P_TDS (10a/b), Load_Q (10c/d), T_Q (10e/f/i/j) and T_local (10g/h). Each
// metric is printed as the paper's series: one row per x-value, one column
// per protocol, for a G sweep at N_t = 10^6 and an N_t sweep at G = 10^3,
// with the §6.3 fixed parameters. `--csv` switches the sweeps to CSV rows
// (machine-readable, for plotting scripts).
#include <cstdio>
#include <functional>
#include <string_view>

#include "analysis/cost_model.h"

namespace tcells::bench {
namespace {

using analysis::CostMetrics;
using MetricFn = std::function<double(const CostMetrics&)>;

bool g_csv = false;

/// Fig 10 left-column panels: metric vs G (G = 1 .. 10^6, log steps).
void SweepG(const char* title, const MetricFn& metric,
            double available_fraction = 0.1) {
  if (g_csv) {
    std::printf("metric,availability,G");
    for (const auto& p : analysis::ComparedProtocols()) {
      std::printf(",%s", p.c_str());
    }
    std::printf("\n");
  } else {
    std::printf("%s  (N_t=1e6, %.0f%% of N_t available)\n", title,
                available_fraction * 100);
    std::printf("%-10s", "G");
    for (const auto& p : analysis::ComparedProtocols()) {
      std::printf(" %14s", p.c_str());
    }
    std::printf("\n");
  }
  for (double g = 1; g <= 1e6; g *= 10) {
    analysis::CostParams params;
    params.groups = g;
    params.available_fraction = available_fraction;
    if (g_csv) {
      std::printf("%s,%.2f,%.0f", title, available_fraction, g);
      for (const auto& p : analysis::ComparedProtocols()) {
        std::printf(",%.9g", metric(*analysis::CostFor(p, params)));
      }
    } else {
      std::printf("%-10.0f", g);
      for (const auto& p : analysis::ComparedProtocols()) {
        std::printf(" %14.6g", metric(*analysis::CostFor(p, params)));
      }
    }
    std::printf("\n");
  }
  std::printf("\n");
}

/// Fig 10 right-column panels: metric vs N_t (5M .. 65M).
void SweepNt(const char* title, const MetricFn& metric) {
  if (g_csv) {
    std::printf("metric,Nt_million");
    for (const auto& p : analysis::ComparedProtocols()) {
      std::printf(",%s", p.c_str());
    }
    std::printf("\n");
  } else {
    std::printf("%s  (G=1e3, 10%% available)\n", title);
    std::printf("%-12s", "Nt(million)");
    for (const auto& p : analysis::ComparedProtocols()) {
      std::printf(" %14s", p.c_str());
    }
    std::printf("\n");
  }
  for (double nt = 5e6; nt <= 65e6; nt += 10e6) {
    analysis::CostParams params;
    params.nt = nt;
    if (g_csv) {
      std::printf("%s,%.0f", title, nt / 1e6);
      for (const auto& p : analysis::ComparedProtocols()) {
        std::printf(",%.9g", metric(*analysis::CostFor(p, params)));
      }
    } else {
      std::printf("%-12.0f", nt / 1e6);
      for (const auto& p : analysis::ComparedProtocols()) {
        std::printf(" %14.6g", metric(*analysis::CostFor(p, params)));
      }
    }
    std::printf("\n");
  }
  std::printf("\n");
}

}  // namespace
}  // namespace tcells::bench

int main(int argc, char** argv) {
  using tcells::analysis::CostMetrics;
  using tcells::bench::SweepG;
  using tcells::bench::SweepNt;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--csv") tcells::bench::g_csv = true;
  }

  // Fig 10a/10b: level of parallelism.
  auto ptds = [](const CostMetrics& m) { return m.ptds; };
  std::printf("=== Fig 10a: P_TDS vs G ===\n");
  SweepG("P_TDS", ptds);
  std::printf("=== Fig 10b: P_TDS vs N_t ===\n");
  SweepNt("P_TDS (millions)",
          [](const CostMetrics& m) { return m.ptds / 1e6; });

  // Fig 10c/10d: global resource consumption.
  auto mb = [](const CostMetrics& m) { return m.load_bytes / 1e6; };
  std::printf("=== Fig 10c: Load_Q (MB) vs G ===\n");
  SweepG("Load_Q(MB)", mb);
  std::printf("=== Fig 10d: Load_Q (MB) vs N_t ===\n");
  SweepNt("Load_Q(MB)", mb);

  // Fig 10e/10f/10i/10j: query response time (aggregation phase) at three
  // availability levels, and vs N_t.
  auto tq = [](const CostMetrics& m) { return m.tq_seconds; };
  std::printf("=== Fig 10i: T_Q (s) vs G, available TDS = 1%% of N_t ===\n");
  SweepG("T_Q(s)", tq, 0.01);
  std::printf(
      "=== Fig 10e: T_Q (s) vs G, available TDS = 10%% of N_t ===\n");
  SweepG("T_Q(s)", tq, 0.1);
  std::printf(
      "=== Fig 10j: T_Q (s) vs G, available TDS = 100%% of N_t ===\n");
  SweepG("T_Q(s)", tq, 1.0);
  std::printf("=== Fig 10f: T_Q (s) vs N_t ===\n");
  SweepNt("T_Q(s)", tq);

  // Fig 10g/10h: average local execution time.
  auto tlocal = [](const CostMetrics& m) { return m.tlocal_seconds; };
  std::printf("=== Fig 10g: T_local (s) vs G ===\n");
  SweepG("T_local(s)", tlocal);
  std::printf("=== Fig 10h: T_local (s) vs N_t ===\n");
  SweepNt("T_local(s)", tlocal);
  return 0;
}
