// Shared sweep scaffolding for the Fig 10 cost-model benches. Each bench
// prints the paper's series: one row per x-value, one column per protocol,
// for (a) a G sweep at N_t = 10^6 and (b) an N_t sweep at G = 10^3, with the
// §6.3 fixed parameters.
#ifndef TCELLS_BENCH_FIG10_COMMON_H_
#define TCELLS_BENCH_FIG10_COMMON_H_

#include <cstdio>
#include <functional>
#include <string_view>

#include "analysis/cost_model.h"

namespace tcells::bench {

/// Set from main(argc, argv): "--csv" switches the sweeps to CSV rows
/// (machine-readable, for plotting scripts).
inline bool& CsvMode() {
  static bool csv = false;
  return csv;
}

inline void ParseBenchArgs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--csv") CsvMode() = true;
  }
}

using MetricFn = std::function<double(const analysis::CostMetrics&)>;

/// Fig 10 left-column panels: metric vs G (G = 1 .. 10^6, log steps).
inline void SweepG(const char* title, const MetricFn& metric,
                   double available_fraction = 0.1) {
  if (CsvMode()) {
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
    if (CsvMode()) {
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
inline void SweepNt(const char* title, const MetricFn& metric) {
  if (CsvMode()) {
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
    if (CsvMode()) {
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

}  // namespace tcells::bench

#endif  // TCELLS_BENCH_FIG10_COMMON_H_
