// Tests for the workload generators, the device model/cost accountant, and
// protocol plumbing (fleet sampling, querier, dropout exhaustion, discovery
// validation).
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>

#include "protocol/discovery.h"
#include "protocol/factory.h"
#include "protocol/protocols.h"
#include "protocol/reference.h"
#include "sim/cost_accountant.h"
#include "sim/device_model.h"
#include "tcells/engine.h"
#include "tds/access_control.h"
#include "workload/generic.h"
#include "workload/health.h"
#include "workload/smart_meter.h"

namespace tcells {
namespace {

using storage::ValueType;

// ---------------------------------------------------------------------------
// Workload generators

TEST(SmartMeterWorkloadTest, SchemasMatchPaperExample) {
  auto consumer = workload::ConsumerSchema();
  EXPECT_TRUE(consumer.FindColumn("cid").has_value());
  EXPECT_TRUE(consumer.FindColumn("district").has_value());
  EXPECT_TRUE(consumer.FindColumn("accomodation").has_value());
  auto power = workload::PowerSchema();
  EXPECT_EQ(power.column(*power.FindColumn("cons")).type, ValueType::kDouble);
}

TEST(SmartMeterWorkloadTest, FleetShapeAndDeterminism) {
  workload::SmartMeterOptions opts;
  opts.num_tds = 25;
  opts.readings_per_tds = 3;
  auto keys = crypto::KeyStore::CreateForTest(1);
  auto authority = std::make_shared<tds::Authority>(Bytes(16, 1));
  auto a = workload::BuildSmartMeterFleet(opts, keys, authority,
                                          tds::AccessPolicy::AllowAll())
               .ValueOrDie();
  auto b = workload::BuildSmartMeterFleet(opts, keys, authority,
                                          tds::AccessPolicy::AllowAll())
               .ValueOrDie();
  ASSERT_EQ(a->size(), 25u);
  for (size_t i = 0; i < a->size(); ++i) {
    const auto* ta = a->at(i)->db().GetTable("Power").ValueOrDie();
    const auto* tb = b->at(i)->db().GetTable("Power").ValueOrDie();
    ASSERT_EQ(ta->num_rows(), 3u);
    // Same seed -> identical data.
    for (size_t r = 0; r < ta->num_rows(); ++r) {
      EXPECT_TRUE(ta->row(r).IsSameGroup(tb->row(r)));
    }
    // cid matches the TDS id.
    const auto* ca = a->at(i)->db().GetTable("Consumer").ValueOrDie();
    EXPECT_EQ(ca->row(0).at(0).AsInt64(), static_cast<int64_t>(i));
  }
}

TEST(SmartMeterWorkloadTest, DistrictSkewShowsUp) {
  workload::SmartMeterOptions opts;
  opts.num_tds = 400;
  opts.num_districts = 8;
  opts.district_skew = 1.4;
  auto keys = crypto::KeyStore::CreateForTest(2);
  auto authority = std::make_shared<tds::Authority>(Bytes(16, 2));
  auto fleet = workload::BuildSmartMeterFleet(opts, keys, authority,
                                              tds::AccessPolicy::AllowAll())
                   .ValueOrDie();
  std::map<std::string, int> counts;
  for (size_t i = 0; i < fleet->size(); ++i) {
    const auto* c = fleet->at(i)->db().GetTable("Consumer").ValueOrDie();
    counts[c->row(0).at(1).AsString()]++;
  }
  int max_c = 0, min_c = 1 << 30;
  for (const auto& [d, n] : counts) {
    max_c = std::max(max_c, n);
    min_c = std::min(min_c, n);
  }
  EXPECT_GT(max_c, 3 * std::max(1, min_c));
}

TEST(HealthWorkloadTest, ValuesInDomain) {
  workload::HealthOptions opts;
  opts.num_tds = 50;
  auto keys = crypto::KeyStore::CreateForTest(3);
  auto authority = std::make_shared<tds::Authority>(Bytes(16, 3));
  auto fleet = workload::BuildHealthFleet(opts, keys, authority,
                                          tds::AccessPolicy::AllowAll())
                   .ValueOrDie();
  std::set<std::string> cities(opts.cities.begin(), opts.cities.end());
  std::set<std::string> conditions(opts.conditions.begin(),
                                   opts.conditions.end());
  for (size_t i = 0; i < fleet->size(); ++i) {
    const auto* p = fleet->at(i)->db().GetTable("Patient").ValueOrDie();
    ASSERT_EQ(p->num_rows(), 1u);
    EXPECT_TRUE(cities.count(p->row(0).at(2).AsString()));
    EXPECT_TRUE(conditions.count(p->row(0).at(3).AsString()));
    int64_t age = p->row(0).at(1).AsInt64();
    EXPECT_GE(age, 1);
    EXPECT_LE(age, 99);
  }
}

TEST(GenericWorkloadTest, GroupsAndRowCount) {
  workload::GenericOptions opts;
  opts.num_tds = 30;
  opts.num_groups = 4;
  opts.rows_per_tds = 5;
  auto keys = crypto::KeyStore::CreateForTest(4);
  auto authority = std::make_shared<tds::Authority>(Bytes(16, 4));
  auto fleet = workload::BuildGenericFleet(opts, keys, authority,
                                           tds::AccessPolicy::AllowAll())
                   .ValueOrDie();
  std::set<std::string> groups;
  for (size_t i = 0; i < fleet->size(); ++i) {
    const auto* t = fleet->at(i)->db().GetTable("T").ValueOrDie();
    ASSERT_EQ(t->num_rows(), 5u);
    for (const auto& row : t->rows()) {
      groups.insert(row.at(1).AsString());
      // gid and grp are consistent.
      EXPECT_EQ(workload::GroupName(
                    static_cast<size_t>(row.at(0).AsInt64())),
                row.at(1).AsString());
    }
  }
  EXPECT_LE(groups.size(), 4u);
  EXPECT_GE(groups.size(), 2u);
}

// ---------------------------------------------------------------------------
// Device model & accountant

TEST(DeviceModelTest, LinearityAndMonotonicity) {
  sim::DeviceModel dm;
  EXPECT_DOUBLE_EQ(dm.TransferSeconds(0), 0.0);
  EXPECT_NEAR(dm.TransferSeconds(2000), 2 * dm.TransferSeconds(1000), 1e-12);
  EXPECT_GT(dm.CryptoSeconds(17), dm.CryptoSeconds(16));  // block rounding
  EXPECT_EQ(dm.CryptoSeconds(1), dm.CryptoSeconds(16));
  EXPECT_GT(dm.CpuSeconds(10), 0.0);
}

TEST(DeviceModelTest, CustomParams) {
  sim::DeviceParams params;
  params.transfer_bps = 1e6;
  sim::DeviceModel dm(params);
  EXPECT_DOUBLE_EQ(dm.TransferSeconds(125000), 1.0);  // 1 Mb / 1 Mbps
}


TEST(DeviceModelTest, SmartMeterProfileIsFaster) {
  sim::DeviceModel token{sim::DeviceParams::PaperBoard()};
  sim::DeviceModel meter{sim::DeviceParams::SmartMeter()};
  EXPECT_LT(meter.PerTupleSeconds(16), token.PerTupleSeconds(16) / 3);
  EXPECT_LT(meter.TransferSeconds(4096), token.TransferSeconds(4096));
  // Per §6.2 the internal-cost conclusion is hardware-independent: transfer
  // still dominates on the faster device.
  EXPECT_GT(meter.TransferSeconds(4096), meter.CryptoSeconds(4096));
}

TEST(CostAccountantTest, TalliesAndDerivedMetrics) {
  sim::CostAccountant acc;
  acc.RecordPartition(sim::Phase::kAggregation, /*tds=*/1, 100, 50, 10);
  acc.RecordPartition(sim::Phase::kAggregation, /*tds=*/2, 200, 50, 20);
  acc.RecordPartition(sim::Phase::kFiltering, /*tds=*/1, 10, 10, 1);
  acc.RecordIteration(sim::Phase::kAggregation);
  acc.RecordDropouts(sim::Phase::kAggregation, 1);

  const auto& agg = acc.phase(sim::Phase::kAggregation);
  EXPECT_EQ(agg.bytes_downloaded, 300u);
  EXPECT_EQ(agg.bytes_uploaded, 100u);
  EXPECT_EQ(agg.tuples_processed, 30u);
  EXPECT_EQ(agg.partitions, 2u);
  EXPECT_EQ(agg.iterations, 1u);
  EXPECT_EQ(agg.dropouts, 1u);
  EXPECT_EQ(acc.DistinctTds(), 2u);
  EXPECT_EQ(acc.TotalBytes(), 420u);

  sim::DeviceModel dm;
  EXPECT_GT(acc.AverageTdsSeconds(dm), 0.0);
}

TEST(CostAccountantTest, FoldMatchesMapReference) {
  // Charges arrive out of id order, span all three phases and revisit ids;
  // some partitions were processed by no TDS.
  struct Charge {
    sim::Phase phase;
    std::optional<uint64_t> tds;
    uint64_t in, out, tuples;
  };
  const Charge charges[] = {
      {sim::Phase::kCollection, 42, 0, 64, 1},
      {sim::Phase::kCollection, 7, 0, 80, 2},
      {sim::Phase::kCollection, 1000, 0, 48, 1},
      {sim::Phase::kAggregation, 7, 500, 90, 12},
      {sim::Phase::kAggregation, std::nullopt, 0, 0, 0},
      {sim::Phase::kAggregation, 3, 250, 70, 6},
      {sim::Phase::kFiltering, 42, 120, 33, 3},
      {sim::Phase::kFiltering, std::nullopt, 0, 0, 0},
      {sim::Phase::kAggregation, 1000, 310, 41, 7},
      {sim::Phase::kCollection, 3, 0, 72, 2},
  };
  sim::CostAccountant acc;
  std::map<uint64_t, sim::TdsTally> ref;
  for (const Charge& c : charges) {
    acc.RecordPartition(c.phase, c.tds, c.in, c.out, c.tuples);
    if (!c.tds) continue;
    sim::TdsTally& t = ref[*c.tds];
    t.bytes_in += c.in;
    t.bytes_out += c.out;
    t.tuples += c.tuples;
    t.participations += 1;
  }

  const auto folded = acc.per_tds();
  ASSERT_EQ(folded.size(), ref.size());
  auto it = ref.begin();
  for (const auto& [id, t] : folded) {
    EXPECT_EQ(id, it->first);
    EXPECT_EQ(t.bytes_in, it->second.bytes_in) << id;
    EXPECT_EQ(t.bytes_out, it->second.bytes_out) << id;
    EXPECT_EQ(t.tuples, it->second.tuples) << id;
    EXPECT_EQ(t.participations, it->second.participations) << id;
    ++it;
  }
  EXPECT_EQ(acc.DistinctTds(), ref.size());

  // T_local sums in id order, as the map reference does: bit-identical.
  sim::DeviceModel dm;
  double total = 0;
  for (const auto& [id, t] : ref) {
    total += dm.BusySeconds(t.bytes_in + t.bytes_out, t.tuples);
  }
  EXPECT_EQ(acc.AverageTdsSeconds(dm),
            total / static_cast<double>(ref.size()));
}

// ---------------------------------------------------------------------------
// Protocol plumbing

class PlumbingWorld {
 public:
  explicit PlumbingWorld(size_t n = 30, size_t shards = 1) {
    keys = crypto::KeyStore::CreateForTest(9);
    authority = std::make_shared<tds::Authority>(Bytes(16, 9));
    workload::GenericOptions gopts;
    gopts.num_tds = n;
    auto built = workload::BuildGenericFleet(gopts, keys, authority,
                                             tds::AccessPolicy::AllowAll())
                     .ValueOrDie();
    querier = std::make_unique<protocol::Querier>("p", authority->Issue("p"),
                                                  keys);
    Engine::Config config;
    config.num_shards = shards;
    engine = Engine::Create(std::move(built), config).ValueOrDie();
    fleet = &engine->fleet();
  }
  std::shared_ptr<const crypto::KeyStore> keys;
  std::shared_ptr<tds::Authority> authority;
  std::unique_ptr<protocol::Querier> querier;
  std::unique_ptr<Engine> engine;
  protocol::Fleet* fleet = nullptr;  // owned by the engine
};

TEST(FleetTest, SampleAvailableBounds) {
  PlumbingWorld w(40);
  Rng rng(1);
  EXPECT_EQ(w.fleet->SampleAvailable(0.0, &rng).size(), 1u);   // at least one
  EXPECT_EQ(w.fleet->SampleAvailable(1.0, &rng).size(), 40u);
  auto half = w.fleet->SampleAvailable(0.5, &rng);
  EXPECT_EQ(half.size(), 20u);
  std::set<uint64_t> distinct;
  for (auto* s : half) distinct.insert(s->id());
  EXPECT_EQ(distinct.size(), 20u);  // no duplicates
}

TEST(QuerierTest, PostCarriesSizeInCleartextAndSqlEncrypted) {
  PlumbingWorld w;
  Rng rng(2);
  auto post = w.querier->MakePost(9, "SELECT grp FROM T SIZE 12 DURATION 4",
                                  &rng)
                  .ValueOrDie();
  EXPECT_EQ(post.query_id, 9u);
  EXPECT_EQ(post.size_max_tuples.value(), 12u);
  EXPECT_EQ(post.size_max_duration_ticks.value(), 4u);
  // The SQL text is not visible in the encrypted blob.
  std::string blob(post.encrypted_query.begin(), post.encrypted_query.end());
  EXPECT_EQ(blob.find("SELECT"), std::string::npos);
  // TDSs (sharing k1) can decrypt it.
  auto plain = w.keys->k1_ndet().Decrypt(post.encrypted_query.ToBytes())
                   .ValueOrDie();
  EXPECT_EQ(std::string(plain.begin(), plain.end()),
            "SELECT grp FROM T SIZE 12 DURATION 4");
}

TEST(QuerierTest, MalformedSqlRejectedAtPostTime) {
  PlumbingWorld w;
  Rng rng(3);
  EXPECT_FALSE(w.querier->MakePost(1, "DROP TABLE T", &rng).ok());
}

TEST(RunnerTest, WorstCaseChurnStillCompletes) {
  // §3.2 correctness: the SSI re-sends a lost partition until some TDS
  // completes it. Even with every first assignment dropping, the run
  // finishes — it just pays the timeout penalty each time.
  PlumbingWorld w;
  protocol::SAggProtocol protocol;
  protocol::RunOptions opts;
  opts.dropout_rate = 1.0;  // every retryable assignment fails
  opts.max_dropout_retries = 3;
  opts.dropout_timeout_seconds = 2.0;
  auto outcome = w.engine
                     ->Run(protocol, *w.querier, 1,
                           "SELECT grp, COUNT(*) FROM T GROUP BY grp", opts)
                     .ValueOrDie();
  const auto& agg = outcome.metrics.accountant.phase(sim::Phase::kAggregation);
  EXPECT_EQ(agg.dropouts, agg.partitions * opts.max_dropout_retries);
  // Each partition waited out 3 timeouts before succeeding.
  EXPECT_GE(outcome.metrics.times.aggregation_seconds,
            3 * opts.dropout_timeout_seconds);
  EXPECT_FALSE(outcome.result.rows.empty());
}


TEST(RunnerTest, PartitionLostBeforeAnyTdsChargesNoTds) {
  // Every StagePartition attempt of token 0 is dropped, so the round's only
  // partition is lost before any TDS fetches it. It counts as a partition
  // of the round and as lost, but no TDS — in particular not TDS 0 — is
  // charged bytes, tuples or a participation for it.
  PlumbingWorld w(4);
  net::SsiNode node;
  net::LoopbackTransport loopback(node.handler());
  net::ScriptedFault drop;
  drop.type = net::MsgType::kStagePartition;
  drop.kind = net::FaultKind::kDropRequest;
  drop.repeat = 0;  // every attempt
  drop.key_b = 0;   // token 0
  net::FaultPlan plan;
  plan.script.push_back(drop);
  net::FaultyTransport faulty(&loopback, plan);
  protocol::RunOptions opts;
  opts.max_dropout_retries = 1;
  net::SsiClient client(&faulty, protocol::TransportRetryPolicy(opts));
  protocol::ParallelExecutor executor(1);
  protocol::RunContext ctx(w.fleet, &client, &executor, /*query_id=*/1,
                           sim::DeviceModel(), opts);
  ssi::Partition partition;
  partition.items = {ssi::EncryptedItem{Bytes(32, 7), std::nullopt}};
  auto echo = [](tds::TrustedDataServer*, const ssi::Partition& p, Rng*)
      -> Result<std::vector<ssi::EncryptedItem>> { return p.items; };
  EXPECT_TRUE(ctx.RunRound(sim::Phase::kAggregation, {partition}, echo)
                  .ValueOrDie()
                  .empty());

  const protocol::RunMetrics& m = ctx.metrics();
  EXPECT_EQ(m.partitions_lost, 1u);
  const auto& agg = m.accountant.phase(sim::Phase::kAggregation);
  EXPECT_EQ(agg.partitions, 1u);
  EXPECT_EQ(agg.tuples_processed, 0u);
  EXPECT_EQ(agg.bytes_downloaded, 0u);
  EXPECT_TRUE(m.accountant.per_tds().empty());
}

TEST(RunnerTest, SameSeedSameOutcome) {
  // Whole-run determinism: identical seeds give byte-identical metrics and
  // results (the property that makes every bench and test reproducible).
  auto run_once = [] {
    PlumbingWorld w;
    protocol::SAggProtocol protocol;
    protocol::RunOptions opts;
    opts.seed = 123;
    opts.dropout_rate = 0.1;
    return w.engine
        ->Run(protocol, *w.querier, 1,
              "SELECT grp, SUM(val) FROM T GROUP BY grp", opts)
        .ValueOrDie();
  };
  auto a = run_once();
  auto b = run_once();
  EXPECT_EQ(a.metrics.LoadBytes(), b.metrics.LoadBytes());
  EXPECT_EQ(a.metrics.Ptds(), b.metrics.Ptds());
  EXPECT_DOUBLE_EQ(a.metrics.Tq(), b.metrics.Tq());
  ASSERT_EQ(a.result.rows.size(), b.result.rows.size());
  EXPECT_TRUE(a.result.SameRows(b.result));
}

TEST(RunnerTest, EmptyFleetRejected) {
  // The engine refuses to even start on an empty fleet.
  auto engine = Engine::Create(std::make_unique<protocol::Fleet>());
  ASSERT_FALSE(engine.ok());
  EXPECT_TRUE(engine.status().IsInvalidArgument());
}


TEST(FactoryTest, NamesAndKinds) {
  using protocol::ProtocolKind;
  EXPECT_EQ(protocol::ProtocolKindFromName("s_agg").ValueOrDie(),
            ProtocolKind::kSAgg);
  EXPECT_EQ(protocol::ProtocolKindFromName("ED_HIST").ValueOrDie(),
            ProtocolKind::kEdHist);
  EXPECT_EQ(protocol::ProtocolKindFromName("Basic").ValueOrDie(),
            ProtocolKind::kBasicSfw);
  EXPECT_FALSE(protocol::ProtocolKindFromName("nope").ok());
}

TEST(FactoryTest, InputRequirementsEnforced) {
  using protocol::ProtocolKind;
  EXPECT_TRUE(protocol::MakeProtocol(ProtocolKind::kSAgg).ok());
  EXPECT_TRUE(protocol::MakeProtocol(ProtocolKind::kBasicSfw).ok());
  EXPECT_FALSE(protocol::MakeProtocol(ProtocolKind::kEdHist).ok());
  EXPECT_FALSE(protocol::MakeProtocol(ProtocolKind::kRnfNoise).ok());

  protocol::ProtocolInputs inputs;
  inputs.distribution[storage::Tuple({storage::Value::String("G00")})] = 3;
  inputs.distribution[storage::Tuple({storage::Value::String("G01")})] = 5;
  // A distribution is sufficient for both ED_Hist and Noise (domain derived).
  EXPECT_TRUE(protocol::MakeProtocol(ProtocolKind::kEdHist, inputs).ok());
  EXPECT_TRUE(protocol::MakeProtocol(ProtocolKind::kCNoise, inputs).ok());
}

TEST(FactoryTest, DiscoverInputsEndToEnd) {
  const char* sql = "SELECT grp, AVG(val) FROM T GROUP BY grp";
  for (size_t shards : {1u, 2u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    PlumbingWorld w(30, shards);
    auto inputs = w.engine->DiscoverInputs(*w.querier, 5, sql).ValueOrDie();
    EXPECT_FALSE(inputs.distribution.empty());

    const auto oracle =
        protocol::ExecuteReference(*w.fleet, sql).ValueOrDie();
    uint64_t query_id = 6;
    for (protocol::ProtocolKind kind :
         {protocol::ProtocolKind::kEdHist, protocol::ProtocolKind::kCNoise,
          protocol::ProtocolKind::kRnfNoise}) {
      SCOPED_TRACE(protocol::ProtocolKindToString(kind));
      auto protocol = protocol::MakeProtocol(kind, inputs).ValueOrDie();
      auto outcome =
          w.engine->Run(*protocol, *w.querier, query_id++, sql).ValueOrDie();
      EXPECT_TRUE(outcome.result.SameRows(oracle));
    }
  }
}

TEST(DiscoveryTest, RequiresGroupBy) {
  PlumbingWorld w;
  auto result = w.engine->DiscoverInputs(*w.querier, 1, "SELECT grp FROM T");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
  // Rejected before anything was posted.
  EXPECT_EQ(w.engine->TraceFor(1), nullptr);
}

TEST(DiscoveryTest, EmptyDomainIsFailedPrecondition) {
  auto inputs = protocol::InputsFromDiscovery(sql::QueryResult());
  ASSERT_FALSE(inputs.ok());
  EXPECT_TRUE(inputs.status().IsFailedPrecondition());
}

TEST(NoiseProtocolTest, MissingDomainIsFailedPrecondition) {
  PlumbingWorld w;
  protocol::NoiseProtocol protocol(false, nullptr);
  auto outcome = w.engine->Run(protocol, *w.querier, 1,
                               "SELECT grp, COUNT(*) FROM T GROUP BY grp");
  ASSERT_FALSE(outcome.ok());
  EXPECT_TRUE(outcome.status().IsFailedPrecondition());
}

TEST(EdHistProtocolTest, MissingHistogramIsFailedPrecondition) {
  PlumbingWorld w;
  protocol::EdHistProtocol protocol(nullptr);
  auto outcome = w.engine->Run(protocol, *w.querier, 1,
                               "SELECT grp, COUNT(*) FROM T GROUP BY grp");
  ASSERT_FALSE(outcome.ok());
  EXPECT_TRUE(outcome.status().IsFailedPrecondition());
}

}  // namespace
}  // namespace tcells
