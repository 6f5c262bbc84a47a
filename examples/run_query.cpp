// run_query: a small CLI that executes an arbitrary SQL query of the
// supported dialect over a simulated fleet with a chosen protocol, printing
// the result, the oracle check, the cost metrics and the adversary view,
// and its peak RSS (VmHWM) on stderr.
// Built on the tcells::Engine facade, so every run records telemetry: a
// per-query span tree (exportable with --trace-json) and engine-wide
// counters/histograms.
//
//   ./run_query "SELECT grp, AVG(val) FROM T GROUP BY grp"
//       [--protocol=s_agg|r_noise|c_noise|ed_hist|basic]
//       [--tds=N] [--groups=G] [--skew=Z] [--availability=F] [--dropout=P]
//       [--threads=N] [--transport=loopback|tcp]
//       [--shards=N] [--max-inflight=M] [--batch=N]
//       [--trace-json=PATH] [--metrics-json=PATH]
//
// --threads sets the parallel fleet engine's worker count (0 = all hardware
// threads, 1 = serial). The result is bit-identical for any value — and so
// is the --trace-json output (wall times are excluded by default; see
// obs/trace.h).
//
// --transport selects the SSI channel backend (docs/TRANSPORT.md): loopback
// keeps every exchange in-process (the default); tcp starts a real SSI
// server on 127.0.0.1 and routes every exchange through framed sockets.
// Results are bit-identical either way.
//
// --shards hash-partitions the TDS population across N SSI nodes behind the
// engine's shard router, and --max-inflight sets the concurrent query slots
// of the scheduler (DESIGN.md "Sharding & scheduling"). Results are
// bit-identical at any shard count too.
//
// --batch caps the calls packed per transport frame (docs/TRANSPORT.md
// "Batched exchanges"; 0 = per-backend auto, the default; 1 = one call per
// frame). Results are bit-identical at any batch size.
//
// Numeric flags must parse whole: a malformed value ("--tds=abc",
// "--skew=1x", "--shards=") or a non-finite one ("--dropout=nan",
// "--skew=inf") exits 2 instead of becoming a silent default.
//
// The fleet schema is the generic workload: T(gid INT, grp STRING,
// val DOUBLE, cat INT), one row per TDS by default.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <type_traits>

#include "common/process_memory.h"
#include "protocol/reference.h"
#include "tcells/engine.h"
#include "tds/access_control.h"
#include "workload/generic.h"

using namespace tcells;

namespace {

bool FlagValue(const char* arg, const char* name, std::string* out) {
  size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) == 0 && arg[n] == '=') {
    *out = arg + n + 1;
    return true;
  }
  return false;
}

/// Whole-string numeric parse: an empty value, garbage, trailing characters
/// and a non-finite floating-point value ("nan", "inf") are errors.
template <typename T>
bool ParseNumber(const std::string& s, T* out) {
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(s.data(), end, *out);
  if (ec != std::errc() || ptr != end || s.empty()) return false;
  if constexpr (std::is_floating_point_v<T>) return std::isfinite(*out);
  return true;
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  size_t written = std::fwrite(content.data(), 1, content.size(), f);
  return std::fclose(f) == 0 && written == content.size();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s \"<SQL>\" [--protocol=...] [--tds=N] "
                 "[--groups=G] [--skew=Z] [--availability=F] [--dropout=P] "
                 "[--threads=N] [--transport=loopback|tcp] "
                 "[--shards=N] [--max-inflight=M] [--batch=N] "
                 "[--trace-json=PATH] [--metrics-json=PATH]\n",
                 argv[0]);
    return 2;
  }
  std::string sql = argv[1];
  std::string protocol_name = "s_agg";
  std::string trace_json_path;
  std::string metrics_json_path;
  workload::GenericOptions gopts;
  gopts.num_tds = 200;
  gopts.num_groups = 6;
  Engine::Config config;

  for (int i = 2; i < argc; ++i) {
    std::string v;
    bool parsed = true;
    if (FlagValue(argv[i], "--protocol", &v)) protocol_name = v;
    else if (FlagValue(argv[i], "--tds", &v)) parsed = ParseNumber(v, &gopts.num_tds);
    else if (FlagValue(argv[i], "--groups", &v)) parsed = ParseNumber(v, &gopts.num_groups);
    else if (FlagValue(argv[i], "--skew", &v)) parsed = ParseNumber(v, &gopts.group_skew);
    else if (FlagValue(argv[i], "--availability", &v)) parsed = ParseNumber(v, &config.options.compute_availability);
    else if (FlagValue(argv[i], "--dropout", &v)) parsed = ParseNumber(v, &config.options.dropout_rate);
    else if (FlagValue(argv[i], "--threads", &v)) parsed = ParseNumber(v, &config.options.num_threads);
    else if (FlagValue(argv[i], "--shards", &v)) parsed = ParseNumber(v, &config.num_shards);
    else if (FlagValue(argv[i], "--max-inflight", &v)) parsed = ParseNumber(v, &config.max_inflight_queries);
    else if (FlagValue(argv[i], "--batch", &v)) parsed = ParseNumber(v, &config.transport_batch_max_calls);
    else if (FlagValue(argv[i], "--transport", &v)) {
      auto kind_or = net::TransportKindFromName(v);
      if (!kind_or.ok()) {
        std::fprintf(stderr, "%s\n", kind_or.status().ToString().c_str());
        return 2;
      }
      config.transport = *kind_or;
    }
    else if (FlagValue(argv[i], "--trace-json", &v)) trace_json_path = v;
    else if (FlagValue(argv[i], "--metrics-json", &v)) metrics_json_path = v;
    else if (std::strcmp(argv[i], "--trace-json") == 0 && i + 1 < argc) trace_json_path = argv[++i];
    else if (std::strcmp(argv[i], "--metrics-json") == 0 && i + 1 < argc) metrics_json_path = argv[++i];
    else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
    if (!parsed) {
      std::fprintf(stderr, "bad value: %s\n", argv[i]);
      return 2;
    }
  }

  auto keys = crypto::KeyStore::CreateForTest(12345);
  auto authority = std::make_shared<tds::Authority>(Bytes(16, 0x42));
  auto fleet_or = workload::BuildGenericFleet(gopts, keys, authority,
                                              tds::AccessPolicy::AllowAll());
  if (!fleet_or.ok()) {
    std::fprintf(stderr, "fleet: %s\n", fleet_or.status().ToString().c_str());
    return 1;
  }
  protocol::Querier querier("cli", authority->Issue("cli"), keys);
  config.options.expected_groups = gopts.num_groups;

  auto engine_or = Engine::Create(std::move(fleet_or).ValueOrDie(), config);
  if (!engine_or.ok()) {
    std::fprintf(stderr, "engine: %s\n",
                 engine_or.status().ToString().c_str());
    return 2;
  }
  Engine& engine = **engine_or;
  if (config.transport == net::TransportKind::kTcp) {
    for (size_t s = 0; s < engine.num_shards(); ++s) {
      std::printf("SSI shard %zu serving on 127.0.0.1:%u (tcp transport)\n",
                  s, static_cast<unsigned>(engine.shard_port(s)));
    }
  }

  // Protocol selection via the factory; ED_Hist and the Noise protocols get
  // their prior knowledge from a secure discovery round.
  auto kind_or = protocol::ProtocolKindFromName(protocol_name);
  if (!kind_or.ok()) {
    std::fprintf(stderr, "%s\n", kind_or.status().ToString().c_str());
    return 2;
  }
  protocol::ProtocolKind kind = *kind_or;
  protocol::ProtocolInputs inputs;
  if (kind == protocol::ProtocolKind::kEdHist ||
      kind == protocol::ProtocolKind::kRnfNoise ||
      kind == protocol::ProtocolKind::kCNoise) {
    auto discovered = engine.DiscoverInputs(querier, /*query_id=*/1, sql);
    if (!discovered.ok()) {
      std::fprintf(stderr, "discovery: %s\n",
                   discovered.status().ToString().c_str());
      return 1;
    }
    inputs = std::move(discovered).ValueOrDie();
  }
  auto protocol_or = protocol::MakeProtocol(kind, inputs);
  if (!protocol_or.ok()) {
    std::fprintf(stderr, "%s\n", protocol_or.status().ToString().c_str());
    return 2;
  }
  auto protocol = std::move(protocol_or).ValueOrDie();

  auto outcome = engine.Run(*protocol, querier, /*query_id=*/2, sql);
  if (!outcome.ok()) {
    std::fprintf(stderr, "run: %s\n", outcome.status().ToString().c_str());
    return 1;
  }

  std::printf("%s over %zu TDSs via %s:\n\n%s\n", sql.c_str(),
              engine.fleet().size(), protocol->name(),
              outcome->result.ToString().c_str());

  const bool match =
      protocol::MatchesReference(engine.fleet(), sql, outcome->result);
  std::printf("matches plaintext oracle: %s\n", match ? "yes" : "NO");

  const auto& m = outcome->metrics;
  std::printf("P_TDS=%zu  Load_Q=%llu B  T_Q=%.5f s  T_local=%.6f s  "
              "rounds=%zu  dropped-and-redispatched=%llu\n",
              m.Ptds(), static_cast<unsigned long long>(m.LoadBytes()),
              m.Tq(), m.Tlocal(engine.device()), m.aggregation_rounds,
              static_cast<unsigned long long>(
                  m.accountant.phase(sim::Phase::kAggregation).dropouts));
  std::printf("SSI view: %llu collection items, %zu distinct routing tags\n",
              static_cast<unsigned long long>(
                  outcome->adversary.collection_items),
              outcome->adversary.collection_tag_histogram.size());
  // Process-wide and host-dependent, so it goes to stderr, never into the
  // deterministic exports.
  std::fprintf(stderr, "peak RSS (VmHWM): %.1f MB\n",
               static_cast<double>(PeakRssBytes()) / (1024.0 * 1024.0));

  if (!trace_json_path.empty()) {
    if (!outcome->trace) {
      std::fprintf(stderr, "trace: no trace recorded\n");
      return 1;
    }
    if (!WriteFile(trace_json_path, outcome->trace->ToJson())) {
      std::fprintf(stderr, "trace: cannot write %s\n",
                   trace_json_path.c_str());
      return 1;
    }
    std::printf("trace written to %s\n", trace_json_path.c_str());
  }
  if (!metrics_json_path.empty()) {
    if (!WriteFile(metrics_json_path, engine.metrics().ToJson())) {
      std::fprintf(stderr, "metrics: cannot write %s\n",
                   metrics_json_path.c_str());
      return 1;
    }
    std::printf("metrics written to %s\n", metrics_json_path.c_str());
  }
  return match ? 0 : 1;
}
