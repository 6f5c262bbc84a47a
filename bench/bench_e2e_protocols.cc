// End-to-end validation bench: runs the *functional* protocol simulation
// (real AES ciphertext through a real SSI) at laptop scale, reports the
// measured metrics per protocol and group count, and checks every result
// against the plaintext oracle. Complements the analytical Fig 10 benches:
// the shapes (who parallelizes, who pays for noise, how S_Agg iterates) are
// measured rather than modeled here.
//
// After the human-readable table, two machine-readable CSV blocks follow:
// one row per (G, protocol) run, and the engine-wide MetricsRegistry dump
// (counters + histograms) accumulated across all runs. A JSON summary with
// per-protocol wall time and ns/tuple is also written to BENCH_e2e.json (or
// argv[1]).
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "protocol/discovery.h"
#include "protocol/protocols.h"
#include "protocol/reference.h"
#include "tcells/engine.h"
#include "tds/access_control.h"
#include "workload/generic.h"

using namespace tcells;

int main(int argc, char** argv) {
  const size_t kTds = 600;
  sim::DeviceModel device;
  bool all_match = true;
  std::string metrics_csv;
  std::string run_csv =
      "groups,protocol,match,p_tds,load_bytes,tq_seconds,tlocal_seconds,"
      "rounds\n";
  // One JSON object per (G, protocol) run. ns_per_tuple is computed from
  // RunMetrics' query-path wall clock (aggregation + filtering rounds) over
  // the tuples those rounds processed — fleet setup, query submission and
  // the collection/load pass are excluded, so the committed before/after
  // numbers measure the per-tuple round path only. The total wall around
  // engine->Run is still reported separately as wall_ms.
  //
  // Each cell runs kReps times and reports the best (lowest ns_per_tuple)
  // repetition: the first run of a process pays one-off warm-up (thread
  // pool spin-up, page faults, cache fills) that swamps a ~2 ms query
  // path, and the regression gate needs a stable statistic. Correctness is
  // checked on every repetition.
  const int kReps = 3;
  std::string json_runs;

  std::printf("=== e2e simulation: N_t=%zu TDSs, functional protocols ===\n",
              kTds);
  std::printf("%-6s %-10s %-6s %8s %12s %10s %12s %7s\n", "G", "protocol",
              "match", "P_TDS", "Load_Q(B)", "T_Q(s)", "T_local(s)",
              "rounds");

  for (size_t groups : {2u, 8u, 32u}) {
    workload::GenericOptions gopts;
    gopts.num_tds = kTds;
    gopts.num_groups = groups;
    gopts.group_skew = 0.8;
    gopts.seed = 5 + groups;

    auto keys = crypto::KeyStore::CreateForTest(1000 + groups);
    auto authority = std::make_shared<tds::Authority>(Bytes(16, 0x44));
    auto fleet = workload::BuildGenericFleet(gopts, keys, authority,
                                             tds::AccessPolicy::AllowAll())
                     .ValueOrDie();
    protocol::Querier querier("bench", authority->Issue("bench"), keys);

    const std::string sql =
        "SELECT grp, AVG(val), COUNT(*) FROM T GROUP BY grp";
    auto oracle = protocol::ExecuteReference(*fleet, sql).ValueOrDie();

    auto domain = std::make_shared<std::vector<storage::Tuple>>();
    for (size_t g = 0; g < groups; ++g) {
      domain->push_back(
          storage::Tuple({storage::Value::String(workload::GroupName(g))}));
    }

    Engine::Config cfg;
    cfg.options.compute_availability = 0.1;
    cfg.options.expected_groups = groups;
    auto engine = Engine::Create(std::move(fleet), cfg).ValueOrDie();
    auto discovered = engine->DiscoverInputs(querier, 1, sql).ValueOrDie();

    std::vector<std::unique_ptr<protocol::Protocol>> protocols;
    protocols.push_back(std::make_unique<protocol::SAggProtocol>());
    protocols.push_back(
        std::make_unique<protocol::NoiseProtocol>(false, domain));
    protocols.push_back(std::make_unique<protocol::NoiseProtocol>(true, domain));
    protocols.push_back(protocol::EdHistProtocol::FromDistribution(
        discovered.distribution, std::max<size_t>(1, groups / 4)));

    uint64_t query_id = 10;
    for (const auto& proto : protocols) {
      const char* name = proto->name();
      std::optional<protocol::RunOutcome> best;
      double best_wall_ns = 0;
      bool match = true;
      bool errored = false;
      for (int rep = 0; rep < kReps; ++rep) {
        const auto wall0 = std::chrono::steady_clock::now();
        auto outcome = engine->Run(*proto, querier, query_id++, sql);
        const double wall_ns =
            std::chrono::duration<double, std::nano>(
                std::chrono::steady_clock::now() - wall0)
                .count();
        if (!outcome.ok()) {
          std::printf("%-6zu %-10s ERROR %s\n", groups, name,
                      outcome.status().ToString().c_str());
          errored = true;
          break;
        }
        match = match && outcome->result.SameRows(oracle);
        if (!best || outcome->metrics.QueryPathWallMicros() <
                         best->metrics.QueryPathWallMicros()) {
          best = std::move(*outcome);
          best_wall_ns = wall_ns;
        }
      }
      if (errored || !best) {
        all_match = false;
        continue;
      }
      all_match = all_match && match;
      const double wall_ns = best_wall_ns;
      const auto& m = best->metrics;
      const uint64_t tuples =
          m.accountant.phase(sim::Phase::kCollection).tuples_processed +
          m.QueryPathTuples();
      std::printf("%-6zu %-10s %-6s %8zu %12llu %10.5f %12.6f %7zu\n", groups,
                  name, match ? "yes" : "NO", m.Ptds(),
                  static_cast<unsigned long long>(m.LoadBytes()), m.Tq(),
                  m.Tlocal(device), m.aggregation_rounds);
      run_csv += std::to_string(groups) + "," + name + "," +
                 (match ? "1" : "0") + "," + std::to_string(m.Ptds()) + "," +
                 std::to_string(m.LoadBytes()) + "," +
                 obs::FormatDouble(m.Tq()) + "," +
                 obs::FormatDouble(m.Tlocal(device)) + "," +
                 std::to_string(m.aggregation_rounds) + "\n";
      const double query_path_wall_us = m.QueryPathWallMicros();
      const uint64_t query_path_tuples = m.QueryPathTuples();
      const double ns_per_tuple =
          query_path_tuples == 0
              ? 0.0
              : query_path_wall_us * 1000.0 /
                    static_cast<double>(query_path_tuples);
      char json_row[640];
      std::snprintf(
          json_row, sizeof(json_row),
          "    {\"groups\": %zu, \"protocol\": \"%s\", \"match\": %s, "
          "\"wall_ms\": %.3f, \"collection_wall_ms\": %.3f, "
          "\"query_path_wall_ms\": %.3f, \"query_path_tuples\": %llu, "
          "\"tuples_processed\": %llu, "
          "\"ns_per_tuple\": %.1f, \"p_tds\": %zu, \"load_bytes\": %llu, "
          "\"tq_seconds\": %.6f, \"rounds\": %zu}",
          groups, name, match ? "true" : "false", wall_ns / 1e6,
          m.collection_wall_micros / 1e3, query_path_wall_us / 1e3,
          static_cast<unsigned long long>(query_path_tuples),
          static_cast<unsigned long long>(tuples), ns_per_tuple,
          m.Ptds(), static_cast<unsigned long long>(m.LoadBytes()), m.Tq(),
          m.aggregation_rounds);
      if (!json_runs.empty()) json_runs += ",\n";
      json_runs += json_row;
    }
    metrics_csv += engine->metrics().ToCsv();
  }

  std::printf("\n--- per-run metrics (csv) ---\n%s", run_csv.c_str());
  std::printf("\n--- engine metrics (csv, one block per G) ---\n%s",
              metrics_csv.c_str());

  const char* json_path = argc > 1 ? argv[1] : "BENCH_e2e.json";
  if (FILE* f = std::fopen(json_path, "w")) {
    std::fprintf(f, "{\n  \"bench\": \"bench_e2e_protocols\",\n");
    std::fprintf(f, "  \"num_tds\": %zu,\n", kTds);
    std::fprintf(f, "  \"all_match\": %s,\n", all_match ? "true" : "false");
    std::fprintf(f, "  \"runs\": [\n%s\n  ]\n}\n", json_runs.c_str());
    std::fclose(f);
    std::printf("wrote %s\n", json_path);
  } else {
    std::printf("could not write %s\n", json_path);
  }

  std::printf("\nall protocol results match the plaintext oracle: %s\n",
              all_match ? "yes" : "NO");
  return all_match ? 0 : 1;
}
