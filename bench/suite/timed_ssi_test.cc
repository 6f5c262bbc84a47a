// TimedSsi must be invisible to the stack it wraps. For one query per
// protocol (plus S_Agg under dynamic keys over TCP), a run through the
// decorator and a run without it, each on a fresh engine built from the same
// inputs, must agree byte for byte: result rows, RunMetrics counts, the
// AdversaryView, and the engine's net.* counter deltas. A source-level check
// confirms TimedSsi overrides every virtual of net::SsiApi, so a virtual added
// later cannot silently fall back to the base class's serial loop.
#include <cctype>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "protocol/discovery.h"
#include "protocol/reference.h"
#include "tcells/engine.h"
#include "tds/access_control.h"
#include "timed_ssi.h"
#include "workload/generic.h"

namespace tcells::bench {
namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

std::string ReadFile(const char* path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Names of the methods `src` declares virtual (the destructor excluded):
/// the identifier right before the first '(' after each "virtual ".
std::set<std::string> VirtualNames(const std::string& src) {
  std::set<std::string> names;
  for (size_t pos = src.find("virtual "); pos != std::string::npos;
       pos = src.find("virtual ", pos + 1)) {
    const size_t paren = src.find('(', pos);
    if (paren == std::string::npos) break;
    size_t begin = paren;
    while (begin > pos && IsIdentChar(src[begin - 1])) --begin;
    if (begin > 0 && src[begin - 1] == '~') continue;
    names.insert(src.substr(begin, paren - begin));
  }
  return names;
}

/// Whether `src` declares `name(...) override;`.
bool DeclaresOverride(const std::string& src, const std::string& name) {
  const std::string call = name + "(";
  for (size_t pos = src.find(call); pos != std::string::npos;
       pos = src.find(call, pos + 1)) {
    if (pos > 0 && IsIdentChar(src[pos - 1])) continue;
    const size_t semi = src.find(';', pos);
    const std::string decl = src.substr(pos, semi - pos);
    if (decl.find(") override") != std::string::npos) return true;
  }
  return false;
}

void CheckEveryVirtualOverridden() {
  const std::string api = ReadFile(TCELLS_SSI_API_HEADER);
  const std::string timed = ReadFile(TIMED_SSI_HEADER);
  Expect(!api.empty() && !timed.empty(), "headers readable");
  const std::set<std::string> names = VirtualNames(api);
  Expect(names.size() == kNumSsiCalls,
         "SsiApi has " + std::to_string(names.size()) +
             " virtuals; SsiCall lists " + std::to_string(kNumSsiCalls));
  for (const std::string& name : names) {
    Expect(DeclaresOverride(timed, name),
           "TimedSsi does not override SsiApi::" + name);
  }
}

struct Case {
  const char* label;
  protocol::ProtocolKind kind;
  const char* sql;
  net::TransportKind transport;
  KeyMode key_mode;
};

struct Observed {
  std::string rows;
  std::string metrics;
  Bytes adversary;
  std::string net;
  size_t spans = 0;
};

uint64_t Counter(Engine& engine, const char* name) {
  return engine.metrics().counter(name).value();
}

/// One query on a fresh engine, through QuerySession over the engine's SSI
/// client, wrapped in TimedSsi when `timed` is set.
Observed RunOnce(const Case& c, bool timed) {
  workload::GenericOptions gopts;
  gopts.num_tds = 300;
  gopts.num_groups = 8;
  gopts.group_skew = 0.8;
  gopts.seed = 11;
  auto keys = crypto::KeyStore::CreateForTest(77);
  auto authority = std::make_shared<tds::Authority>(Bytes(16, 0x5a));
  auto fleet = workload::BuildGenericFleet(gopts, keys, authority,
                                           tds::AccessPolicy::AllowAll())
                   .ValueOrDie();
  protocol::Querier querier("test", authority->Issue("test"), keys);
  const auto oracle = protocol::ExecuteReference(*fleet, c.sql).ValueOrDie();

  Engine::Config cfg;
  cfg.options.expected_groups = gopts.num_groups;
  cfg.options.num_threads = 1;
  cfg.options.seed = 5;
  cfg.num_shards = 2;
  cfg.transport = c.transport;
  cfg.key_mode = c.key_mode;
  auto engine = Engine::Create(std::move(fleet), cfg).ValueOrDie();

  auto domain = std::make_shared<std::vector<storage::Tuple>>();
  for (size_t g = 0; g < gopts.num_groups; ++g) {
    domain->push_back(
        storage::Tuple({storage::Value::String(workload::GroupName(g))}));
  }
  std::unique_ptr<protocol::Protocol> proto;
  switch (c.kind) {
    case protocol::ProtocolKind::kBasicSfw:
      proto = std::make_unique<protocol::BasicSfwProtocol>();
      break;
    case protocol::ProtocolKind::kSAgg:
      proto = std::make_unique<protocol::SAggProtocol>();
      break;
    case protocol::ProtocolKind::kRnfNoise:
      proto = std::make_unique<protocol::NoiseProtocol>(false, domain);
      break;
    case protocol::ProtocolKind::kCNoise:
      proto = std::make_unique<protocol::NoiseProtocol>(true, domain);
      break;
    case protocol::ProtocolKind::kEdHist: {
      auto inputs = engine->DiscoverInputs(querier, 900, c.sql).ValueOrDie();
      proto = protocol::EdHistProtocol::FromDistribution(inputs.distribution, 2);
      break;
    }
  }

  SpanLog log;
  TimedSsi decorator(engine->ssi_client(), &log);
  net::SsiApi* client =
      timed ? static_cast<net::SsiApi*>(&decorator) : engine->ssi_client();
  const char* counters[] = {"net.calls_sent", "net.frames_sent",
                            "net.bytes_sent", "net.bytes_received"};
  uint64_t before[4];
  for (int i = 0; i < 4; ++i) before[i] = Counter(*engine, counters[i]);

  protocol::QuerySession session(&engine->fleet(), engine->device(),
                                 engine->options(), obs::Telemetry{}, client);
  Observed out;
  Status submitted = session.Submit(1, &querier, proto.get(), c.sql);
  Expect(submitted.ok(), std::string(c.label) + ": submit " +
                             submitted.ToString());
  if (!submitted.ok()) return out;
  auto outcomes = session.RunAll();
  Expect(outcomes.ok(), std::string(c.label) + ": run");
  if (!outcomes.ok()) return out;
  const protocol::RunOutcome& o = outcomes->at(1);
  Expect(o.result.SameRows(oracle), std::string(c.label) + ": oracle match");

  out.rows = o.result.ToString();
  const protocol::RunMetrics& m = o.metrics;
  out.metrics = std::to_string(m.collection_ticks) + "/" +
                std::to_string(m.collection_participants) + "/" +
                std::to_string(m.aggregation_rounds) + "/" +
                std::to_string(m.available_compute_tds) + "/" +
                std::to_string(m.contributions_rejected) + "/" +
                std::to_string(m.partitions_lost) + "/" +
                std::to_string(m.Ptds()) + "/" +
                std::to_string(m.LoadBytes()) + "/" +
                std::to_string(m.QueryPathTuples());
  o.adversary.EncodeTo(&out.adversary);
  for (int i = 0; i < 4; ++i) {
    out.net += std::to_string(Counter(*engine, counters[i]) - before[i]) + " ";
  }
  out.spans = log.size();
  return out;
}

void CheckForwardingEquivalence() {
  const char* group_sql =
      "SELECT grp, COUNT(*), SUM(cat), AVG(val) FROM T GROUP BY grp";
  const Case cases[] = {
      {"basic", protocol::ProtocolKind::kBasicSfw,
       "SELECT gid, val FROM T WHERE cat = 3", net::TransportKind::kLoopback,
       KeyMode::kStatic},
      {"s_agg", protocol::ProtocolKind::kSAgg, group_sql,
       net::TransportKind::kLoopback, KeyMode::kStatic},
      {"r_noise", protocol::ProtocolKind::kRnfNoise, group_sql,
       net::TransportKind::kLoopback, KeyMode::kStatic},
      {"c_noise", protocol::ProtocolKind::kCNoise, group_sql,
       net::TransportKind::kLoopback, KeyMode::kStatic},
      {"ed_hist", protocol::ProtocolKind::kEdHist, group_sql,
       net::TransportKind::kLoopback, KeyMode::kStatic},
      {"s_agg_tcp_dynamic", protocol::ProtocolKind::kSAgg, group_sql,
       net::TransportKind::kTcp, KeyMode::kDynamic},
  };
  for (const Case& c : cases) {
    const Observed plain = RunOnce(c, false);
    const Observed timed = RunOnce(c, true);
    const std::string label = c.label;
    Expect(!plain.rows.empty(), label + ": produced rows");
    Expect(plain.rows == timed.rows, label + ": result rows differ");
    Expect(plain.metrics == timed.metrics,
           label + ": RunMetrics " + plain.metrics + " vs " + timed.metrics);
    Expect(plain.adversary == timed.adversary,
           label + ": AdversaryView differs");
    Expect(plain.net == timed.net,
           label + ": net counters " + plain.net + "vs " + timed.net);
    Expect(plain.spans == 0 && timed.spans > 0,
           label + ": only the decorated run records spans");
    std::fprintf(stderr, "%-18s net deltas %s spans %zu\n", c.label,
                 timed.net.c_str(), timed.spans);
  }
}

}  // namespace
}  // namespace tcells::bench

int main() {
  tcells::bench::CheckEveryVirtualOverridden();
  tcells::bench::CheckForwardingEquivalence();
  if (tcells::bench::g_failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", tcells::bench::g_failures);
    return 1;
  }
  std::fprintf(stderr, "all checks passed\n");
  return 0;
}
