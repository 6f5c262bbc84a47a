// Fleet-scale scheduling bench: queries/sec and per-query tail latency of
// the concurrent engine as the TDS population and the SSI shard count grow.
//
// For each (fleet size, shard count) cell, 16 S_Agg queries are submitted at
// once against an engine with 16 scheduler slots; every query gets its own
// waiter thread, so the recorded latency spans submit -> outcome. The
// compute pool is held at ~200 TDSs per query (availability scaled down with
// the fleet) so the cells compare collection scale and shard routing, not
// ever-growing aggregation trees. Every result is checked against the
// plaintext oracle — a cell that returns wrong rows invalidates the run.
//
// A second section reproduces the paper's Fig 10/11 shape at simulation
// scale: a single S_Agg query at 10k -> 1M TDSes, recording wall time, T_Q
// (aggregation seconds, the paper's responsiveness metric), P_TDS and
// Load_Q per point — the curve the per-tuple arena/span rework makes
// affordable to measure at 1M.
//
// Every cell and curve point also records its memory: the process's peak
// RSS while its queries run (VmHWM, reset once the fleet and engine are
// built) and the transient bytes per TDS, that peak minus the RSS the built
// fleet and engine held before the first query, divided by the fleet size.
//
// Output: a human-readable table plus BENCH_fleet.json (or argv[1]) with
// qps, p50/p99 latency, wall time and memory per cell. Timing is
// hand-rolled (steady_clock) so the target stays dependency-light.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/process_memory.h"
#include "protocol/reference.h"
#include "tcells/engine.h"
#include "tds/access_control.h"
#include "workload/generic.h"

using namespace tcells;

namespace {

constexpr size_t kQueries = 16;
constexpr size_t kMaxInflight = 16;
constexpr size_t kComputePoolTarget = 200;

struct Cell {
  size_t num_tds;
  size_t shards;
  net::TransportKind transport;
  size_t batch_max_calls;
  double wall_seconds;
  double qps;
  double p50_ms;
  double p99_ms;
  bool all_match;
  double peak_rss_mb;
  double transient_bytes_per_tds;
};

/// Resets the peak-RSS mark and returns the resident bytes it starts from.
uint64_t StartMemoryMark() {
  ResetPeakRss();
  return CurrentRssBytes();
}

/// The peak RSS since StartMemoryMark, in MB, and what it added over
/// `baseline` per TDS of a `num_tds` fleet, in bytes.
std::pair<double, double> EndMemoryMark(uint64_t baseline, size_t num_tds) {
  const uint64_t peak = PeakRssBytes();
  const double added = peak > baseline ? static_cast<double>(peak - baseline)
                                       : 0.0;
  return {static_cast<double>(peak) / (1024.0 * 1024.0),
          added / static_cast<double>(num_tds)};
}

double Quantile(std::vector<double> sorted, double q) {
  if (sorted.empty()) return 0;
  size_t idx = static_cast<size_t>(q * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

Cell RunCell(size_t num_tds, size_t shards, net::TransportKind transport,
             size_t batch_max_calls) {
  workload::GenericOptions gopts;
  gopts.num_tds = num_tds;
  gopts.num_groups = 8;
  gopts.group_skew = 0.8;
  gopts.rows_per_tds = 1;
  gopts.seed = 29;

  auto keys = crypto::KeyStore::CreateForTest(2028);
  auto authority = std::make_shared<tds::Authority>(Bytes(16, 0x66));
  auto fleet = workload::BuildGenericFleet(gopts, keys, authority,
                                           tds::AccessPolicy::AllowAll())
                   .ValueOrDie();
  protocol::Querier querier("bench", authority->Issue("bench"), keys);

  const std::string sql =
      "SELECT grp, COUNT(*), SUM(cat), AVG(val) FROM T GROUP BY grp";
  auto oracle = protocol::ExecuteReference(*fleet, sql).ValueOrDie();

  Engine::Config cfg;
  cfg.options.compute_availability = std::min(
      1.0, static_cast<double>(kComputePoolTarget) /
               static_cast<double>(num_tds));
  cfg.options.expected_groups = gopts.num_groups;
  cfg.options.num_threads = 1;
  cfg.options.seed = 7;
  cfg.num_shards = shards;
  cfg.transport = transport;
  cfg.transport_batch_max_calls = batch_max_calls;
  cfg.max_inflight_queries = kMaxInflight;
  cfg.tracing = false;  // keep the shared tracer out of the hot path
  auto engine = Engine::Create(std::move(fleet), cfg).ValueOrDie();

  protocol::SAggProtocol s_agg;
  std::vector<double> latencies_ms(kQueries, 0);
  std::vector<bool> match(kQueries, false);
  std::vector<std::thread> waiters;
  waiters.reserve(kQueries);

  const uint64_t rss_baseline = StartMemoryMark();
  auto wall0 = std::chrono::steady_clock::now();
  for (size_t i = 0; i < kQueries; ++i) {
    QueryHandle handle =
        engine->Submit(s_agg, querier, /*query_id=*/1 + i, sql).ValueOrDie();
    waiters.emplace_back([&, handle, i]() mutable {
      auto outcome = handle.Wait();
      auto done = std::chrono::steady_clock::now();
      latencies_ms[i] =
          std::chrono::duration<double, std::milli>(done - wall0).count();
      match[i] = outcome.ok() && outcome->result.SameRows(oracle);
    });
  }
  for (auto& w : waiters) w.join();
  double wall = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - wall0)
                    .count();

  Cell cell;
  std::tie(cell.peak_rss_mb, cell.transient_bytes_per_tds) =
      EndMemoryMark(rss_baseline, num_tds);
  cell.num_tds = num_tds;
  cell.shards = shards;
  cell.transport = transport;
  cell.batch_max_calls = batch_max_calls;
  cell.wall_seconds = wall;
  cell.qps = static_cast<double>(kQueries) / wall;
  std::vector<double> sorted = latencies_ms;
  std::sort(sorted.begin(), sorted.end());
  cell.p50_ms = Quantile(sorted, 0.50);
  cell.p99_ms = Quantile(sorted, 0.99);
  cell.all_match = true;
  for (bool m : match) cell.all_match = cell.all_match && m;
  return cell;
}

/// One Fig 10/11-style point: a single S_Agg query against a fleet of
/// `num_tds`, auto-batched loopback transport, 4 shards. The compute pool is
/// capped like the grid cells, so the curve isolates collection scale.
struct CurvePoint {
  size_t num_tds;
  double wall_seconds;
  double tq_seconds;
  size_t p_tds;
  uint64_t load_bytes;
  uint64_t query_path_tuples;
  double ns_per_tuple;
  bool match;
  double peak_rss_mb;
  double transient_bytes_per_tds;
};

CurvePoint RunCurvePoint(size_t num_tds) {
  workload::GenericOptions gopts;
  gopts.num_tds = num_tds;
  gopts.num_groups = 8;
  gopts.group_skew = 0.8;
  gopts.rows_per_tds = 1;
  gopts.seed = 31;

  auto keys = crypto::KeyStore::CreateForTest(2029);
  auto authority = std::make_shared<tds::Authority>(Bytes(16, 0x67));
  auto fleet = workload::BuildGenericFleet(gopts, keys, authority,
                                           tds::AccessPolicy::AllowAll())
                   .ValueOrDie();
  protocol::Querier querier("bench", authority->Issue("bench"), keys);

  const std::string sql =
      "SELECT grp, COUNT(*), SUM(cat), AVG(val) FROM T GROUP BY grp";
  auto oracle = protocol::ExecuteReference(*fleet, sql).ValueOrDie();

  Engine::Config cfg;
  cfg.options.compute_availability = std::min(
      1.0, static_cast<double>(kComputePoolTarget) /
               static_cast<double>(num_tds));
  cfg.options.expected_groups = gopts.num_groups;
  cfg.options.num_threads = 1;
  cfg.options.seed = 7;
  cfg.num_shards = 4;
  cfg.transport = net::TransportKind::kLoopback;
  cfg.transport_batch_max_calls = 0;  // auto: the per-backend default
  cfg.tracing = false;
  auto engine = Engine::Create(std::move(fleet), cfg).ValueOrDie();

  protocol::SAggProtocol s_agg;
  const uint64_t rss_baseline = StartMemoryMark();
  auto wall0 = std::chrono::steady_clock::now();
  auto outcome = engine->Run(s_agg, querier, /*query_id=*/1, sql);
  double wall = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - wall0)
                    .count();

  CurvePoint pt;
  std::tie(pt.peak_rss_mb, pt.transient_bytes_per_tds) =
      EndMemoryMark(rss_baseline, num_tds);
  pt.num_tds = num_tds;
  pt.wall_seconds = wall;
  pt.match = outcome.ok() && outcome->result.SameRows(oracle);
  if (outcome.ok()) {
    const auto& m = outcome->metrics;
    pt.tq_seconds = m.Tq();
    pt.p_tds = m.Ptds();
    pt.load_bytes = m.LoadBytes();
    pt.query_path_tuples = m.QueryPathTuples();
    pt.ns_per_tuple = pt.query_path_tuples > 0
                          ? m.QueryPathWallMicros() * 1000.0 /
                                static_cast<double>(pt.query_path_tuples)
                          : 0.0;
  } else {
    pt.tq_seconds = 0;
    pt.p_tds = 0;
    pt.load_bytes = 0;
    pt.query_path_tuples = 0;
    pt.ns_per_tuple = 0;
  }
  return pt;
}

}  // namespace

int main(int argc, char** argv) {
  struct Point {
    size_t num_tds;
    size_t shards;
    net::TransportKind transport;
    size_t batch_max_calls;
  };
  constexpr auto kLoop = net::TransportKind::kLoopback;
  constexpr auto kTcp = net::TransportKind::kTcp;
  // 10k swept across the shard grid; 100k anchors the scale claim at the
  // single-node baseline and the 4-shard configuration. The 10k x 4-shard
  // cell is additionally run over real TCP sockets, serial (batch 1) vs
  // batched (batch 32), to pin the wire tax the batch envelope removes.
  const std::vector<Point> grid = {
      {10000, 1, kLoop, 1},  {10000, 2, kLoop, 1}, {10000, 4, kLoop, 1},
      {10000, 8, kLoop, 1},  {10000, 4, kLoop, 32},
      {10000, 4, kTcp, 1},   {10000, 4, kTcp, 32},
      {100000, 1, kLoop, 1}, {100000, 4, kLoop, 1},
  };

  std::printf("=== fleet scale: %zu concurrent S_Agg queries, %zu slots ===\n",
              kQueries, kMaxInflight);
  std::printf("%-10s %-8s %-10s %-6s %10s %10s %12s %12s %10s %10s %-6s\n",
              "N_t", "shards", "transport", "batch", "wall(s)", "qps",
              "p50(ms)", "p99(ms)", "peak(MB)", "B/TDS", "match");

  std::string json_rows;
  bool ok = true;
  for (const Point& p : grid) {
    Cell c = RunCell(p.num_tds, p.shards, p.transport, p.batch_max_calls);
    ok = ok && c.all_match;
    const std::string transport = net::TransportKindToString(c.transport);
    std::printf(
        "%-10zu %-8zu %-10s %-6zu %10.3f %10.2f %12.1f %12.1f %10.1f %10.0f "
        "%-6s\n",
        c.num_tds, c.shards, transport.c_str(), c.batch_max_calls,
        c.wall_seconds, c.qps, c.p50_ms, c.p99_ms, c.peak_rss_mb,
        c.transient_bytes_per_tds, c.all_match ? "yes" : "NO");
    char row[512];
    std::snprintf(row, sizeof(row),
                  "    {\"num_tds\": %zu, \"shards\": %zu, "
                  "\"transport\": \"%s\", \"batch_max_calls\": %zu, "
                  "\"queries\": %zu, "
                  "\"wall_seconds\": %.3f, \"qps\": %.2f, \"p50_ms\": %.1f, "
                  "\"p99_ms\": %.1f, \"peak_rss_mb\": %.1f, "
                  "\"transient_bytes_per_tds\": %.0f, \"all_match\": %s}",
                  c.num_tds, c.shards, transport.c_str(), c.batch_max_calls,
                  kQueries, c.wall_seconds, c.qps, c.p50_ms, c.p99_ms,
                  c.peak_rss_mb, c.transient_bytes_per_tds,
                  c.all_match ? "true" : "false");
    if (!json_rows.empty()) json_rows += ",\n";
    json_rows += row;
  }

  // Fig 10/11-style scale curve: one query, growing fleet. The 1M point is
  // the headline the arena/span rework buys; pass --no-curve to skip.
  bool run_curve = true;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--no-curve") run_curve = false;
  }
  std::string curve_rows;
  if (run_curve) {
    const std::vector<size_t> curve_sizes = {10000, 30000, 100000, 300000,
                                             1000000};
    std::printf("\n=== scale curve: single S_Agg query, auto-batched "
                "loopback, 4 shards ===\n");
    std::printf("%-10s %10s %10s %10s %14s %12s %10s %10s %-6s\n", "N_t",
                "wall(s)", "T_Q(s)", "P_TDS", "Load_Q(MB)", "ns/tuple",
                "peak(MB)", "B/TDS", "match");
    for (size_t n : curve_sizes) {
      CurvePoint pt = RunCurvePoint(n);
      ok = ok && pt.match;
      std::printf("%-10zu %10.3f %10.3f %10zu %14.2f %12.1f %10.1f %10.0f "
                  "%-6s\n",
                  pt.num_tds, pt.wall_seconds, pt.tq_seconds, pt.p_tds,
                  static_cast<double>(pt.load_bytes) / 1e6, pt.ns_per_tuple,
                  pt.peak_rss_mb, pt.transient_bytes_per_tds,
                  pt.match ? "yes" : "NO");
      char row[512];
      std::snprintf(row, sizeof(row),
                    "    {\"num_tds\": %zu, \"wall_seconds\": %.3f, "
                    "\"tq_seconds\": %.3f, \"p_tds\": %zu, "
                    "\"load_bytes\": %llu, \"query_path_tuples\": %llu, "
                    "\"ns_per_tuple\": %.1f, \"peak_rss_mb\": %.1f, "
                    "\"transient_bytes_per_tds\": %.0f, \"match\": %s}",
                    pt.num_tds, pt.wall_seconds, pt.tq_seconds, pt.p_tds,
                    static_cast<unsigned long long>(pt.load_bytes),
                    static_cast<unsigned long long>(pt.query_path_tuples),
                    pt.ns_per_tuple, pt.peak_rss_mb,
                    pt.transient_bytes_per_tds, pt.match ? "true" : "false");
      if (!curve_rows.empty()) curve_rows += ",\n";
      curve_rows += row;
    }
  }

  const char* json_path = "BENCH_fleet.json";
  for (int i = 1; i < argc; ++i) {
    if (argv[i][0] != '-') json_path = argv[i];
  }
  if (FILE* f = std::fopen(json_path, "w")) {
    std::fprintf(f, "{\n  \"bench\": \"bench_fleet_scale\",\n");
    std::fprintf(f, "  \"concurrent_queries\": %zu,\n", kQueries);
    std::fprintf(f, "  \"max_inflight\": %zu,\n", kMaxInflight);
    std::fprintf(f, "  \"all_match\": %s,\n", ok ? "true" : "false");
    std::fprintf(f, "  \"cells\": [\n%s\n  ],\n", json_rows.c_str());
    std::fprintf(f, "  \"scale_curve\": [\n%s\n  ]\n}\n", curve_rows.c_str());
    std::fclose(f);
    std::printf("wrote %s\n", json_path);
  } else {
    std::printf("could not write %s\n", json_path);
  }

  std::printf("\nall %zu queries per cell oracle-correct: %s\n", kQueries,
              ok ? "yes" : "NO");
  return ok ? 0 : 1;
}
