// End-to-end protocol tests: every protocol must produce exactly the rows the
// plaintext oracle produces, while the SSI's observations satisfy each
// protocol's security claims. Also covers SIZE, dropouts, and discovery.
#include <gtest/gtest.h>

#include <set>

#include "protocol/factory.h"
#include "protocol/protocols.h"
#include "protocol/reference.h"
#include "tcells/engine.h"
#include "tds/access_control.h"
#include "workload/generic.h"
#include "crypto/encryption.h"
#include "workload/smart_meter.h"

namespace tcells::protocol {
namespace {

using storage::Tuple;
using storage::Value;

RunOptions FastOptions() {
  RunOptions opts;
  opts.compute_availability = 0.2;
  opts.seed = 99;
  return opts;
}

Engine::Config FastConfig() {
  Engine::Config cfg;
  cfg.options = FastOptions();
  return cfg;
}

struct TestWorld {
  std::shared_ptr<const crypto::KeyStore> keys;
  std::shared_ptr<tds::Authority> authority;
  std::unique_ptr<Querier> querier;
  std::unique_ptr<Engine> engine;
  Fleet* fleet = nullptr;  // owned by the engine
  sim::DeviceModel device;

  static TestWorld Generic(const workload::GenericOptions& opts,
                           Engine::Config cfg = FastConfig()) {
    TestWorld w;
    w.keys = crypto::KeyStore::CreateForTest(2024);
    w.authority = std::make_shared<tds::Authority>(Bytes(16, 0x11));
    auto fleet = workload::BuildGenericFleet(opts, w.keys, w.authority,
                                             tds::AccessPolicy::AllowAll())
                     .ValueOrDie();
    w.querier = std::make_unique<Querier>(
        "tester", w.authority->Issue("tester"), w.keys);
    w.engine = Engine::Create(std::move(fleet), cfg).ValueOrDie();
    w.fleet = &w.engine->fleet();
    return w;
  }

  static TestWorld SmartMeter(const workload::SmartMeterOptions& opts) {
    TestWorld w;
    w.keys = crypto::KeyStore::CreateForTest(2025);
    w.authority = std::make_shared<tds::Authority>(Bytes(16, 0x22));
    auto fleet = workload::BuildSmartMeterFleet(opts, w.keys, w.authority,
                                                tds::AccessPolicy::AllowAll())
                     .ValueOrDie();
    w.querier = std::make_unique<Querier>(
        "energy-co", w.authority->Issue("energy-co"), w.keys);
    Engine::Config cfg;
    cfg.options = FastOptions();
    w.engine = Engine::Create(std::move(fleet), cfg).ValueOrDie();
    w.fleet = &w.engine->fleet();
    return w;
  }

  std::shared_ptr<const std::vector<Tuple>> GroupDomain(size_t num_groups) {
    auto domain = std::make_shared<std::vector<Tuple>>();
    for (size_t g = 0; g < num_groups; ++g) {
      domain->push_back(Tuple({Value::String(workload::GroupName(g))}));
    }
    return domain;
  }
};

// ---------------------------------------------------------------------------
// Correctness vs the oracle, across protocols and query shapes.

struct E2eCase {
  const char* name;
  const char* sql;
};

class ProtocolOracleTest
    : public ::testing::TestWithParam<std::tuple<ProtocolKind, E2eCase>> {};

TEST_P(ProtocolOracleTest, MatchesPlaintextOracle) {
  auto [kind, c] = GetParam();
  workload::GenericOptions gopts;
  gopts.num_tds = 60;
  gopts.num_groups = 5;
  gopts.group_skew = 0.7;
  TestWorld w = TestWorld::Generic(gopts);

  std::unique_ptr<Protocol> protocol;
  switch (kind) {
    case ProtocolKind::kSAgg:
      protocol = std::make_unique<SAggProtocol>();
      break;
    case ProtocolKind::kRnfNoise:
      protocol = std::make_unique<NoiseProtocol>(false, w.GroupDomain(5));
      break;
    case ProtocolKind::kCNoise:
      protocol = std::make_unique<NoiseProtocol>(true, w.GroupDomain(5));
      break;
    case ProtocolKind::kEdHist: {
      // Learn the true A_G distribution the way a deployment would: through
      // the secure discovery protocol (itself an S_Agg round).
      auto discovered =
          w.engine->DiscoverInputs(*w.querier, 999, c.sql).ValueOrDie();
      protocol = EdHistProtocol::FromDistribution(discovered.distribution, 2);
      break;
    }
    default:
      FAIL() << "unexpected protocol";
  }

  auto outcome = w.engine->Run(*protocol, *w.querier, 1, c.sql).ValueOrDie();
  auto expected = ExecuteReference(*w.fleet, c.sql).ValueOrDie();
  // In order when the query has ORDER BY.
  EXPECT_TRUE(MatchesReference(*w.fleet, c.sql, outcome.result))
      << "protocol:\n" << outcome.result.ToString()
      << "oracle:\n" << expected.ToString();
  EXPECT_FALSE(expected.rows.empty());
}

constexpr E2eCase kAggCases[] = {
    {"count", "SELECT grp, COUNT(*) FROM T GROUP BY grp"},
    {"avg_sum",
     "SELECT grp, AVG(val), SUM(cat) FROM T GROUP BY grp"},
    {"minmax",
     "SELECT grp, MIN(val), MAX(val) FROM T GROUP BY grp"},
    {"having",
     "SELECT grp, COUNT(*) FROM T GROUP BY grp HAVING COUNT(*) > 5"},
    {"where",
     "SELECT grp, COUNT(*) FROM T WHERE cat < 5 GROUP BY grp"},
    {"distinct",
     "SELECT grp, COUNT(DISTINCT cat) FROM T GROUP BY grp"},
    {"median", "SELECT grp, MEDIAN(val) FROM T GROUP BY grp"},
    {"multikey",
     "SELECT grp, cat, COUNT(*), AVG(val) FROM T GROUP BY grp, cat"},
    {"variance", "SELECT grp, VARIANCE(val) FROM T GROUP BY grp"},
    // Rows tie on the ORDER BY key; LIMIT cuts inside a tie.
    {"order_limit",
     "SELECT grp, cat, COUNT(*) FROM T GROUP BY grp, cat ORDER BY grp "
     "DESC LIMIT 4"},
};

INSTANTIATE_TEST_SUITE_P(
    AllProtocolsAllQueries, ProtocolOracleTest,
    ::testing::Combine(::testing::Values(ProtocolKind::kSAgg,
                                         ProtocolKind::kRnfNoise,
                                         ProtocolKind::kCNoise,
                                         ProtocolKind::kEdHist),
                       ::testing::ValuesIn(kAggCases)),
    [](const auto& info) {
      return std::string(
                 ProtocolKindToString(std::get<0>(info.param))) +
             "_" + std::get<1>(info.param).name;
    });

// ---------------------------------------------------------------------------
// The oracle on a fleet of mixed shapes

TEST(ReferenceTest, MixedShapeFleetRunsEachTdsOnItsOwnCatalog) {
  // TDS 1 also holds "A", of T's columns, which sorts before T: T sits at
  // catalog position 0 on TDS 0 and at 1 on TDS 1. The oracle analyzes once
  // per catalog, so it reads T on both and never A.
  auto keys = crypto::KeyStore::CreateForTest(7);
  auto authority = std::make_shared<tds::Authority>(Bytes(16, 0x12));
  Fleet fleet;
  for (int64_t id = 0; id < 2; ++id) {
    auto server = std::make_unique<tds::TrustedDataServer>(
        id, keys, authority, tds::AccessPolicy::AllowAll());
    storage::Database& db = server->db();
    auto row = [](int64_t gid, const char* grp, double val) {
      return Tuple({Value::Int64(gid), Value::String(grp), Value::Double(val),
                    Value::Int64(0)});
    };
    if (id == 1) {
      ASSERT_TRUE(db.CreateTable("A", workload::GenericSchema()).ok());
      ASSERT_TRUE(
          db.GetTable("A").ValueOrDie()->Insert(row(9, "decoy", 99)).ok());
    }
    ASSERT_TRUE(db.CreateTable("T", workload::GenericSchema()).ok());
    ASSERT_TRUE(db.GetTable("T")
                    .ValueOrDie()
                    ->Insert(row(id, "G00", 10.0 * (id + 1)))
                    .ok());
    fleet.Add(std::move(server));
  }
  ASSERT_NE(fleet.at(0)->db().shared_catalog(),
            fleet.at(1)->db().shared_catalog());

  auto rows = ExecuteReference(fleet, "SELECT grp, val FROM T").ValueOrDie();
  ASSERT_EQ(rows.rows.size(), 2u);
  for (const auto& r : rows.rows) EXPECT_EQ(r.at(0).AsString(), "G00");
  auto agg = ExecuteReference(
                 fleet, "SELECT grp, COUNT(*), SUM(val) FROM T GROUP BY grp")
                 .ValueOrDie();
  ASSERT_EQ(agg.rows.size(), 1u);
  EXPECT_EQ(agg.rows[0].at(1).AsInt64(), 2);
  EXPECT_DOUBLE_EQ(agg.rows[0].at(2).AsDouble(), 30.0);
}

// ---------------------------------------------------------------------------
// Basic SFW protocol

TEST(BasicSfwTest, MatchesOracleAndDropsDummies) {
  workload::GenericOptions gopts;
  gopts.num_tds = 40;
  TestWorld w = TestWorld::Generic(gopts);
  BasicSfwProtocol protocol;
  const char* sql = "SELECT grp, val FROM T WHERE cat < 5";
  auto outcome = w.engine->Run(protocol, *w.querier, 2, sql).ValueOrDie();
  auto expected = ExecuteReference(*w.fleet, sql).ValueOrDie();
  EXPECT_TRUE(outcome.result.SameRows(expected));
  // TDSs whose WHERE matched nothing sent dummies: collection saw one item
  // per TDS, the result has only true rows.
  EXPECT_EQ(outcome.adversary.collection_items, w.fleet->size());
  EXPECT_EQ(outcome.result.rows.size(), expected.rows.size());
  EXPECT_LT(outcome.result.rows.size(), w.fleet->size());
}

TEST(BasicSfwTest, OrderByTiesKeepTheOraclesRowsUnderLimit) {
  // Many rows tie on grp. Ties break on the full row, so LIMIT keeps the
  // rows the oracle keeps, in its order, whichever TDSs answered first.
  // Before, a stable sort kept arrival order inside a tie, and the
  // protocol's LIMIT kept other (SQL-valid) rows than the oracle's.
  workload::GenericOptions gopts;
  gopts.num_tds = 200;
  gopts.num_groups = 5;
  gopts.group_skew = 1.2;
  // run_query's engine defaults and query id: at these, the serve order
  // differs from the fleet order inside the first tie.
  Engine::Config cfg;
  cfg.options.expected_groups = gopts.num_groups;
  TestWorld w = TestWorld::Generic(gopts, cfg);
  BasicSfwProtocol protocol;
  const std::string sql =
      "SELECT grp, cat FROM T WHERE cat < 2 ORDER BY grp LIMIT 5";
  auto outcome = w.engine->Run(protocol, *w.querier, 2, sql).ValueOrDie();
  auto expected = ExecuteReference(*w.fleet, sql).ValueOrDie();
  ASSERT_EQ(expected.rows.size(), 5u);
  EXPECT_TRUE(outcome.result.SameRowsInOrder(expected))
      << "protocol:\n" << outcome.result.ToString()
      << "oracle:\n" << expected.ToString();
}

TEST(BasicSfwTest, RejectsAggregationQuery) {
  workload::GenericOptions gopts;
  gopts.num_tds = 4;
  TestWorld w = TestWorld::Generic(gopts);
  BasicSfwProtocol protocol;
  EXPECT_FALSE(w.engine
                   ->Run(protocol, *w.querier, 3,
                         "SELECT grp, COUNT(*) FROM T GROUP BY grp")
                   .ok());
}

TEST(SAggTest, RejectsPlainSfwQuery) {
  workload::GenericOptions gopts;
  gopts.num_tds = 4;
  TestWorld w = TestWorld::Generic(gopts);
  SAggProtocol protocol;
  EXPECT_FALSE(
      w.engine->Run(protocol, *w.querier, 4, "SELECT grp FROM T").ok());
}

// ---------------------------------------------------------------------------
// SIZE clause

TEST(SizeClauseTest, StopsCollectionEarly) {
  workload::GenericOptions gopts;
  gopts.num_tds = 50;
  TestWorld w = TestWorld::Generic(gopts);
  BasicSfwProtocol protocol;
  auto outcome =
      w.engine->Run(protocol, *w.querier, 5, "SELECT grp FROM T SIZE 10")
          .ValueOrDie();
  EXPECT_EQ(outcome.adversary.collection_items, 10u);
  EXPECT_LE(outcome.result.rows.size(), 10u);
}

// ---------------------------------------------------------------------------
// Dropout resilience (§3.2 correctness: SSI re-dispatches partitions)

TEST(DropoutTest, ResultStillCorrectUnderChurn) {
  workload::GenericOptions gopts;
  gopts.num_tds = 50;
  gopts.num_groups = 4;
  TestWorld w = TestWorld::Generic(gopts);
  SAggProtocol protocol;
  RunOptions opts = FastOptions();
  opts.dropout_rate = 0.3;
  const char* sql = "SELECT grp, SUM(val), COUNT(*) FROM T GROUP BY grp";
  auto outcome = w.engine->Run(protocol, *w.querier, 6, sql, opts).ValueOrDie();
  auto expected = ExecuteReference(*w.fleet, sql).ValueOrDie();
  EXPECT_TRUE(outcome.result.SameRows(expected));
  uint64_t drops =
      outcome.metrics.accountant.phase(sim::Phase::kAggregation).dropouts +
      outcome.metrics.accountant.phase(sim::Phase::kFiltering).dropouts;
  EXPECT_GT(drops, 0u);
}

// ---------------------------------------------------------------------------
// Security: what the SSI sees

TEST(AdversaryTest, SAggExposesNoTagsAndNoDuplicateBlobs) {
  workload::GenericOptions gopts;
  gopts.num_tds = 40;
  gopts.num_groups = 3;
  TestWorld w = TestWorld::Generic(gopts);
  SAggProtocol protocol;
  auto outcome = w.engine
                     ->Run(protocol, *w.querier, 7,
                           "SELECT grp, COUNT(*) FROM T GROUP BY grp")
                     .ValueOrDie();
  // No routing tags at all: SSI cannot group anything.
  EXPECT_TRUE(outcome.adversary.collection_tag_histogram.empty());
  // All collection blobs have identical size (same tuple shape + nDet):
  // nothing to distinguish tuples by.
  EXPECT_EQ(outcome.adversary.collection_blob_size_histogram.size(), 1u);
}

TEST(AdversaryTest, CNoiseTagHistogramIsFlat) {
  workload::GenericOptions gopts;
  gopts.num_tds = 60;
  gopts.num_groups = 4;
  gopts.group_skew = 1.2;  // heavily skewed true distribution
  TestWorld w = TestWorld::Generic(gopts);
  NoiseProtocol protocol(true, TestWorld::Generic(gopts).GroupDomain(4));
  auto outcome = w.engine
                     ->Run(protocol, *w.querier, 8,
                           "SELECT grp, COUNT(*) FROM T GROUP BY grp")
                     .ValueOrDie();
  // Every TDS emits exactly one tuple per domain value: perfectly flat.
  const auto& hist = outcome.adversary.collection_tag_histogram;
  ASSERT_EQ(hist.size(), 4u);
  std::set<uint64_t> counts;
  for (const auto& [tag, count] : hist) counts.insert(count);
  EXPECT_EQ(counts.size(), 1u);
  EXPECT_EQ(*counts.begin(), w.fleet->size());
}

TEST(AdversaryTest, RnfNoiseHidesSkewBetterWithMoreNoise) {
  workload::GenericOptions gopts;
  gopts.num_tds = 80;
  gopts.num_groups = 4;
  gopts.group_skew = 1.5;
  auto skew_of = [&](int nf) {
    TestWorld w = TestWorld::Generic(gopts);
    NoiseProtocol protocol(false, w.GroupDomain(4));
    RunOptions opts = FastOptions();
    opts.nf = nf;
    auto outcome = w.engine
                       ->Run(protocol, *w.querier, 9,
                             "SELECT grp, COUNT(*) FROM T GROUP BY grp", opts)
                       .ValueOrDie();
    const auto& hist = outcome.adversary.collection_tag_histogram;
    uint64_t max_c = 0, min_c = UINT64_MAX;
    for (const auto& [tag, count] : hist) {
      max_c = std::max(max_c, count);
      min_c = std::min(min_c, count);
    }
    return static_cast<double>(max_c) / static_cast<double>(min_c);
  };
  // More white noise -> flatter observed distribution (§4.3).
  EXPECT_LT(skew_of(50), skew_of(1));
}

TEST(AdversaryTest, EdHistBucketsNearEquiDepth) {
  workload::GenericOptions gopts;
  gopts.num_tds = 200;
  gopts.num_groups = 8;
  gopts.group_skew = 1.0;
  TestWorld w = TestWorld::Generic(gopts);

  // Build the true distribution, then the histogram with 4 buckets.
  std::map<Tuple, uint64_t> freq;
  for (size_t i = 0; i < w.fleet->size(); ++i) {
    auto rows = sql::CollectionTuples(
                    w.fleet->at(i)->db(),
                    sql::AnalyzeSql("SELECT grp, COUNT(*) FROM T GROUP BY grp",
                                    w.fleet->at(0)->db().catalog())
                        .ValueOrDie())
                    .ValueOrDie();
    for (const auto& r : rows) freq[Tuple({r.at(0)})] += 1;
  }
  auto protocol = EdHistProtocol::FromDistribution(freq, 4);
  auto outcome = w.engine
                     ->Run(*protocol, *w.querier, 10,
                           "SELECT grp, AVG(val) FROM T GROUP BY grp")
                     .ValueOrDie();
  const auto& hist = outcome.adversary.collection_tag_histogram;
  ASSERT_GE(hist.size(), 2u);
  uint64_t max_c = 0, min_c = UINT64_MAX;
  for (const auto& [tag, count] : hist) {
    max_c = std::max(max_c, count);
    min_c = std::min(min_c, count);
  }
  // Nearly equi-depth: no bucket more than ~4x another (with 8 skewed values
  // in 4 buckets, perfect equality is impossible; the paper says "nearly").
  EXPECT_LE(static_cast<double>(max_c) / static_cast<double>(min_c), 4.0);
}


TEST(AdversaryTest, EdHistPhaseTwoRevealsOnlyGroupCount) {
  workload::GenericOptions gopts;
  gopts.num_tds = 100;
  gopts.num_groups = 6;
  TestWorld w = TestWorld::Generic(gopts);
  const char* sql = "SELECT grp, COUNT(*) FROM T GROUP BY grp";
  auto discovered = w.engine->DiscoverInputs(*w.querier, 50, sql).ValueOrDie();
  auto protocol = EdHistProtocol::FromDistribution(discovered.distribution, 2);
  auto outcome = w.engine->Run(*protocol, *w.querier, 51, sql).ValueOrDie();
  // The covering result carries one Det_Enc(group) tag per group: the SSI
  // learns G (the paper accepts this — the querier sees G anyway) but the
  // tags are SIV ciphertexts, not plaintext group names.
  const auto& agg_tags = outcome.adversary.aggregation_tag_histogram;
  EXPECT_EQ(agg_tags.size(), 6u);
  for (const auto& [tag, count] : agg_tags) {
    std::string as_str(tag.begin(), tag.end());
    EXPECT_EQ(as_str.find("G0"), std::string::npos);  // no plaintext leaks
  }
}


TEST(AdversaryTest, PayloadPaddingEqualizesNoiseBlobSizes) {
  // In Det-tag mode, fake tuples carry NULL aggregate inputs and would be a
  // few bytes shorter than true tuples; pad_payload_to removes the length
  // side channel entirely.
  workload::GenericOptions gopts;
  gopts.num_tds = 30;
  gopts.num_groups = 4;
  TestWorld w = TestWorld::Generic(gopts);
  NoiseProtocol protocol(false, w.GroupDomain(4));
  RunOptions opts = FastOptions();
  opts.pad_payload_to = 128;
  auto outcome = w.engine
                     ->Run(protocol, *w.querier, 60,
                           "SELECT grp, AVG(val) FROM T GROUP BY grp", opts)
                     .ValueOrDie();
  const auto& sizes = outcome.adversary.collection_blob_size_histogram;
  EXPECT_EQ(sizes.size(), 1u);
  EXPECT_EQ(sizes.begin()->first, 128u + crypto::NDetEnc::kOverhead);
  // And the result still matches the oracle (padding is transparent).
  auto expected = ExecuteReference(
      *w.fleet, "SELECT grp, AVG(val) FROM T GROUP BY grp").ValueOrDie();
  EXPECT_TRUE(outcome.result.SameRows(expected));
}

TEST(AdversaryTest, WithoutPaddingNoiseBlobSizesDiffer) {
  workload::GenericOptions gopts;
  gopts.num_tds = 30;
  gopts.num_groups = 4;
  TestWorld w = TestWorld::Generic(gopts);
  NoiseProtocol protocol(false, w.GroupDomain(4));
  auto outcome = w.engine
                     ->Run(protocol, *w.querier, 61,
                           "SELECT grp, AVG(val) FROM T GROUP BY grp")
                     .ValueOrDie();
  // Documents why pad_payload_to exists: fakes are distinguishable by size.
  EXPECT_GT(outcome.adversary.collection_blob_size_histogram.size(), 1u);
}

// ---------------------------------------------------------------------------
// Discovery + the paper's flagship smart-meter query
//
// Discovery is an ordinary S_Agg query run through Engine::Run, so it takes
// the engine's real stack: shards, transport, fault plans, tracing, metrics.

/// The oracle's COUNT(*) GROUP BY grp, keyed like a discovered distribution.
std::map<Tuple, uint64_t> OracleDistribution(const Fleet& fleet) {
  auto expected =
      ExecuteReference(fleet, "SELECT grp, COUNT(*) FROM T GROUP BY grp")
          .ValueOrDie();
  std::map<Tuple, uint64_t> freq;
  for (const Tuple& row : expected.rows) {
    freq[Tuple({row.at(0)})] = static_cast<uint64_t>(row.at(1).AsInt64());
  }
  return freq;
}

workload::GenericOptions DiscoveryFleet() {
  workload::GenericOptions gopts;
  gopts.num_tds = 50;
  gopts.num_groups = 4;
  gopts.group_skew = 0.9;
  return gopts;
}

constexpr char kDiscoverySql[] = "SELECT grp, AVG(val) FROM T GROUP BY grp";

TEST(DiscoveryTest, RecoversTrueDistribution) {
  TestWorld w = TestWorld::Generic(DiscoveryFleet());
  auto discovered =
      w.engine->DiscoverInputs(*w.querier, 11, kDiscoverySql).ValueOrDie();
  EXPECT_EQ(discovered.distribution, OracleDistribution(*w.fleet));
}

TEST(DiscoveryTest, DiscoveredInputsMatchOracleAtShardCounts) {
  const char* sql = "SELECT grp, COUNT(*), AVG(val) FROM T GROUP BY grp";
  for (size_t shards : {1u, 2u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    Engine::Config cfg = FastConfig();
    cfg.num_shards = shards;
    TestWorld w = TestWorld::Generic(DiscoveryFleet(), cfg);
    auto inputs = w.engine->DiscoverInputs(*w.querier, 20, sql).ValueOrDie();
    EXPECT_EQ(inputs.distribution, OracleDistribution(*w.fleet));
    auto expected = ExecuteReference(*w.fleet, sql).ValueOrDie();
    uint64_t query_id = 21;
    for (ProtocolKind kind : {ProtocolKind::kRnfNoise, ProtocolKind::kCNoise,
                              ProtocolKind::kEdHist}) {
      SCOPED_TRACE(ProtocolKindToString(kind));
      auto protocol = MakeProtocol(kind, inputs).ValueOrDie();
      auto outcome =
          w.engine->Run(*protocol, *w.querier, query_id++, sql).ValueOrDie();
      EXPECT_TRUE(outcome.result.SameRows(expected));
    }
  }
}

TEST(DiscoveryTest, IsTracedAndCountedAsAnSAggQuery) {
  TestWorld w = TestWorld::Generic(DiscoveryFleet());
  ASSERT_TRUE(w.engine->DiscoverInputs(*w.querier, 30, kDiscoverySql).ok());
  auto trace = w.engine->TraceFor(30);
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(trace->root()->labels.at("protocol"), std::string("S_Agg"));
  EXPECT_GT(trace->CountSpans(obs::kSpanAggregationRound), 0u);
  EXPECT_EQ(
      w.engine->metrics().snapshot().counters.at("engine.queries_completed"),
      1u);
}

TEST(DiscoveryTest, TrafficMovesNetCountersOverTcpShards) {
  Engine::Config cfg = FastConfig();
  cfg.transport = net::TransportKind::kTcp;
  cfg.num_shards = 2;
  TestWorld w = TestWorld::Generic(DiscoveryFleet(), cfg);
  const char* counters[] = {"net.calls_sent", "net.frames_sent",
                            "net.bytes_sent", "net.bytes_received"};
  uint64_t before[4];
  for (int i = 0; i < 4; ++i) {
    before[i] = w.engine->metrics().counter(counters[i]).value();
  }
  auto inputs =
      w.engine->DiscoverInputs(*w.querier, 40, kDiscoverySql).ValueOrDie();
  for (int i = 0; i < 4; ++i) {
    EXPECT_GT(w.engine->metrics().counter(counters[i]).value(), before[i])
        << counters[i];
  }
  EXPECT_EQ(inputs.distribution, OracleDistribution(*w.fleet));
}

TEST(DiscoveryTest, RunsUnderTheEngineFaultPlan) {
  // Drop the first reply of every partition fetch of the discovery query:
  // the fetch is idempotent, so each retry recovers and nothing is lost.
  constexpr uint64_t kQueryId = 50;
  auto plan = std::make_shared<net::FaultPlan>();
  net::ScriptedFault f;
  f.type = net::MsgType::kFetchPartition;
  f.kind = net::FaultKind::kDropReply;
  f.scope = net::ScriptedFault::Scope::kPerKey;
  f.nth = 1;
  f.key_a = kQueryId;
  plan->script.push_back(f);
  Engine::Config cfg = FastConfig();
  cfg.fault_plan = plan;
  TestWorld w = TestWorld::Generic(DiscoveryFleet(), cfg);

  auto inputs = w.engine->DiscoverInputs(*w.querier, kQueryId, kDiscoverySql)
                    .ValueOrDie();
  net::FaultyTransport* injector = w.engine->shard_fault_injector(0);
  ASSERT_NE(injector, nullptr);
  EXPECT_GT(injector->injected_count(), 0u);
  for (const net::FaultEvent& event : injector->events()) {
    EXPECT_EQ(event.key_a, kQueryId);
    EXPECT_EQ(event.kind, net::FaultKind::kDropReply);
  }
  EXPECT_EQ(inputs.distribution, OracleDistribution(*w.fleet));
}

// ---------------------------------------------------------------------------
// Byzantine SSI under the default auto batching: the proxy wraps the node's
// per-call dispatch, so its lies reach calls that share a frame.

TestWorld TamperedWorld(void (*set)(net::TamperPlan*)) {
  auto plan = std::make_shared<net::TamperPlan>();
  set(plan.get());
  Engine::Config cfg = FastConfig();
  cfg.tamper_plan = plan;
  workload::GenericOptions gopts;
  gopts.num_tds = 60;
  gopts.num_groups = 4;
  return TestWorld::Generic(gopts, cfg);
}

TEST(TamperPlanTest, ReplayedRoundOutputsAreFlaggedUnderAutoBatching) {
  TestWorld w = TamperedWorld(
      [](net::TamperPlan* p) { p->replay_round_output = true; });
  SAggProtocol protocol;
  auto outcome =
      w.engine->Run(protocol, *w.querier, 60,
                    "SELECT grp, COUNT(*), SUM(val) FROM T GROUP BY grp")
          .ValueOrDie();
  EXPECT_GE(w.engine->shard_byzantine_proxy(0)->stats().total(), 1u);
  EXPECT_GE(outcome.metrics.partitions_tampered, 1u);
  EXPECT_EQ(outcome.metrics.partitions_tampered,
            outcome.metrics.partitions_lost);
}

TEST(TamperPlanTest, ReversedCollectionIsToleratedUnderAutoBatching) {
  TestWorld w =
      TamperedWorld([](net::TamperPlan* p) { p->reverse_collected = true; });
  SAggProtocol protocol;
  const char* sql = "SELECT grp, COUNT(*), SUM(val) FROM T GROUP BY grp";
  auto outcome = w.engine->Run(protocol, *w.querier, 61, sql).ValueOrDie();
  EXPECT_GE(w.engine->shard_byzantine_proxy(0)->stats().total(), 1u);
  EXPECT_TRUE(outcome.result.SameRows(ExecuteReference(*w.fleet, sql).ValueOrDie()));
}

TEST(SmartMeterTest, FlagshipQueryEndToEndWithDiscoveryAndEdHist) {
  workload::SmartMeterOptions mopts;
  mopts.num_tds = 120;
  mopts.num_districts = 6;
  mopts.readings_per_tds = 2;
  TestWorld w = TestWorld::SmartMeter(mopts);

  const char* sql =
      "SELECT C.district, AVG(P.cons) FROM Power P, Consumer C "
      "WHERE C.accomodation = 'detached house' AND C.cid = P.cid "
      "GROUP BY C.district HAVING COUNT(DISTINCT C.cid) > 5";

  auto discovered = w.engine->DiscoverInputs(*w.querier, 12, sql).ValueOrDie();
  auto protocol = EdHistProtocol::FromDistribution(discovered.distribution, 3);
  auto outcome = w.engine->Run(*protocol, *w.querier, 13, sql).ValueOrDie();
  auto expected = ExecuteReference(*w.fleet, sql).ValueOrDie();
  EXPECT_TRUE(outcome.result.SameRows(expected))
      << "protocol:\n" << outcome.result.ToString()
      << "oracle:\n" << expected.ToString();
}

// ---------------------------------------------------------------------------
// Metrics sanity

TEST(MetricsTest, AccountingIsPopulated) {
  workload::GenericOptions gopts;
  gopts.num_tds = 30;
  gopts.num_groups = 3;
  TestWorld w = TestWorld::Generic(gopts);
  SAggProtocol protocol;
  auto outcome = w.engine
                     ->Run(protocol, *w.querier, 14,
                           "SELECT grp, COUNT(*) FROM T GROUP BY grp")
                     .ValueOrDie();
  const auto& m = outcome.metrics;
  EXPECT_GT(m.Ptds(), 0u);
  EXPECT_GT(m.LoadBytes(), 0u);
  EXPECT_GT(m.Tq(), 0.0);
  EXPECT_GT(m.Tlocal(w.device), 0.0);
  EXPECT_GT(m.aggregation_rounds, 1u);  // iterative merging
  EXPECT_GT(m.times.filtering_seconds, 0.0);
  EXPECT_GT(
      m.accountant.phase(sim::Phase::kCollection).bytes_uploaded, 0u);
}

}  // namespace
}  // namespace tcells::protocol
