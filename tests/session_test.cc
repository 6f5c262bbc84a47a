// Tests for QuerySession: concurrent queries through the querybox hub, in
// sessions built by Engine::NewSession over the engine's SSI stack.
#include <gtest/gtest.h>

#include "protocol/reference.h"
#include "tcells/engine.h"
#include "tds/access_control.h"
#include "workload/generic.h"
#include "workload/health.h"

namespace tcells::protocol {
namespace {

class SessionWorld {
 public:
  explicit SessionWorld(size_t n = 60, RunOptions options = {}) {
    keys = crypto::KeyStore::CreateForTest(77);
    authority = std::make_shared<tds::Authority>(Bytes(16, 0x21));
    workload::GenericOptions gopts;
    gopts.num_tds = n;
    gopts.num_groups = 4;
    auto built = workload::BuildGenericFleet(gopts, keys, authority,
                                             tds::AccessPolicy::AllowAll())
                     .ValueOrDie();
    querier = std::make_unique<Querier>("s", authority->Issue("s"), keys);
    Engine::Config config;
    config.options = options;
    engine = Engine::Create(std::move(built), config).ValueOrDie();
    fleet = &engine->fleet();
  }

  std::shared_ptr<const crypto::KeyStore> keys;
  std::shared_ptr<tds::Authority> authority;
  std::unique_ptr<Querier> querier;
  std::unique_ptr<Engine> engine;
  Fleet* fleet = nullptr;  // owned by the engine
};

TEST(FleetTest, SampleAvailableOnEmptyFleetIsEmpty) {
  // Regression: `want` used to be clamped up to 1 even for an empty fleet,
  // so servers_[indices[0]] read past the end of an empty vector.
  Fleet fleet;
  Rng rng(7);
  EXPECT_TRUE(fleet.SampleAvailable(0.5, &rng).empty());
  EXPECT_TRUE(fleet.SampleAvailable(1.0, &rng).empty());
}

TEST(FleetTest, SampleAvailableNonPositiveFractionClampsToOne) {
  SessionWorld w(4);
  Rng rng(7);
  // The documented "at least one" clamp holds on a non-empty fleet, and a
  // negative fraction must not reach the size_t cast (UB) — both degrade to
  // the guaranteed single TDS.
  EXPECT_EQ(w.fleet->SampleAvailable(0.0, &rng).size(), 1u);
  EXPECT_EQ(w.fleet->SampleAvailable(-0.25, &rng).size(), 1u);
  EXPECT_EQ(w.fleet->SampleAvailable(1e-9, &rng).size(), 1u);
}

TEST(SessionTest, TwoConcurrentQueriesBothMatchOracle) {
  RunOptions opts;
  opts.compute_availability = 0.3;
  SessionWorld w(60, opts);
  QuerySession session = w.engine->NewSession();

  SAggProtocol s_agg;
  BasicSfwProtocol basic;
  const char* agg_sql = "SELECT grp, COUNT(*), AVG(val) FROM T GROUP BY grp";
  const char* sfw_sql = "SELECT grp, cat FROM T WHERE cat < 4";
  ASSERT_TRUE(session.Submit(1, w.querier.get(), &s_agg, agg_sql).ok());
  ASSERT_TRUE(session.Submit(2, w.querier.get(), &basic, sfw_sql).ok());
  EXPECT_EQ(session.num_pending(), 2u);

  auto outcomes = session.RunAll().ValueOrDie();
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_TRUE(outcomes.at(1).result.SameRows(
      ExecuteReference(*w.fleet, agg_sql).ValueOrDie()));
  EXPECT_TRUE(outcomes.at(2).result.SameRows(
      ExecuteReference(*w.fleet, sfw_sql).ValueOrDie()));
  // Both queries collected from the full fleet.
  EXPECT_EQ(outcomes.at(1).adversary.collection_items, w.fleet->size());
  EXPECT_EQ(outcomes.at(2).adversary.collection_items, w.fleet->size());
  EXPECT_EQ(session.num_pending(), 0u);
}

TEST(SessionTest, MixedProtocolsShareTheFleet) {
  RunOptions opts;
  opts.compute_availability = 0.3;
  SessionWorld w(60, opts);
  QuerySession session = w.engine->NewSession();

  auto domain = std::make_shared<std::vector<storage::Tuple>>();
  for (size_t g = 0; g < 4; ++g) {
    domain->push_back(
        storage::Tuple({storage::Value::String(workload::GroupName(g))}));
  }
  SAggProtocol s_agg;
  NoiseProtocol noise(true, domain);
  const char* q1 = "SELECT grp, SUM(val) FROM T GROUP BY grp";
  const char* q2 = "SELECT grp, MAX(cat) FROM T GROUP BY grp";
  ASSERT_TRUE(session.Submit(10, w.querier.get(), &s_agg, q1).ok());
  ASSERT_TRUE(session.Submit(11, w.querier.get(), &noise, q2).ok());
  auto outcomes = session.RunAll().ValueOrDie();
  EXPECT_TRUE(outcomes.at(10).result.SameRows(
      ExecuteReference(*w.fleet, q1).ValueOrDie()));
  EXPECT_TRUE(outcomes.at(11).result.SameRows(
      ExecuteReference(*w.fleet, q2).ValueOrDie()));
}

TEST(SessionTest, PersonalQueryReachesOnlyItsTds) {
  SessionWorld w;
  QuerySession session = w.engine->NewSession();
  BasicSfwProtocol basic;
  // Personal query to TDS 5: "get my own rows".
  ASSERT_TRUE(session
                  .SubmitPersonal(3, /*tds_id=*/5, w.querier.get(), &basic,
                                  "SELECT grp, val FROM T")
                  .ok());
  auto outcomes = session.RunAll().ValueOrDie();
  const auto& outcome = outcomes.at(3);
  // Exactly one TDS answered (its own data only).
  EXPECT_EQ(outcome.metrics.collection_participants, 1u);
  auto local = sql::AnalyzeSql("SELECT grp, val FROM T",
                               w.fleet->at(5)->db().catalog())
                   .ValueOrDie();
  auto expected = sql::ExecuteLocal(w.fleet->at(5)->db(), local).ValueOrDie();
  EXPECT_TRUE(outcome.result.SameRows(expected));
}

TEST(SessionTest, SizeBoundPerQuery) {
  SessionWorld w;
  QuerySession session = w.engine->NewSession();
  BasicSfwProtocol basic;
  SAggProtocol s_agg;
  ASSERT_TRUE(session.Submit(1, w.querier.get(), &basic,
                             "SELECT grp FROM T SIZE 7").ok());
  ASSERT_TRUE(session.Submit(2, w.querier.get(), &s_agg,
                             "SELECT grp, COUNT(*) FROM T GROUP BY grp").ok());
  auto outcomes = session.RunAll().ValueOrDie();
  EXPECT_EQ(outcomes.at(1).adversary.collection_items, 7u);
  EXPECT_EQ(outcomes.at(2).adversary.collection_items, w.fleet->size());
}

TEST(SessionTest, TickedCollectionWindow) {
  RunOptions opts;
  opts.connect_prob_per_tick = 0.3;
  opts.seed = 5;
  SessionWorld w(60, opts);
  QuerySession session = w.engine->NewSession();
  SAggProtocol s_agg;
  ASSERT_TRUE(session.Submit(1, w.querier.get(), &s_agg,
                             "SELECT grp, COUNT(*) FROM T GROUP BY grp").ok());
  auto outcomes = session.RunAll(/*max_ticks=*/3).ValueOrDie();
  const auto& m = outcomes.at(1).metrics;
  EXPECT_LE(m.collection_ticks, 3u);
  EXPECT_LT(m.collection_participants, w.fleet->size());
  EXPECT_GT(m.collection_participants, 0u);
}

TEST(SessionTest, DuplicateIdRejected) {
  SessionWorld w;
  QuerySession session = w.engine->NewSession();
  SAggProtocol s_agg;
  const char* sql = "SELECT grp, COUNT(*) FROM T GROUP BY grp";
  ASSERT_TRUE(session.Submit(1, w.querier.get(), &s_agg, sql).ok());
  EXPECT_FALSE(session.Submit(1, w.querier.get(), &s_agg, sql).ok());
}

TEST(SessionTest, ProtocolShapeMismatchRejectedAtSubmit) {
  SessionWorld w;
  QuerySession session = w.engine->NewSession();
  BasicSfwProtocol basic;
  EXPECT_FALSE(session.Submit(1, w.querier.get(), &basic,
                              "SELECT grp, COUNT(*) FROM T GROUP BY grp")
                   .ok());
}

// Malformed RunOptions fail RunOptions::Validate and are rejected at Submit
// time, before any post reaches the hub: by the engine's per-query Submit,
// and by a session built over the engine's SSI with those options.
TEST(SessionTest, InvalidOptionsRejectedAtSubmit) {
  SessionWorld w;
  const char* sql = "SELECT grp, COUNT(*) FROM T GROUP BY grp";
  SAggProtocol s_agg;

  auto rejects = [&](RunOptions opts) {
    EXPECT_FALSE(opts.Validate().ok());
    EXPECT_FALSE(w.engine->Submit(s_agg, *w.querier, 1, sql, opts).ok());
    QuerySession session(w.fleet, w.engine->device(), opts, {},
                         w.engine->ssi_client());
    Status s = session.Submit(1, w.querier.get(), &s_agg, sql);
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(session.num_pending(), 0u);
  };

  RunOptions opts;
  opts.alpha = 1.0;  // merge fan-in must exceed 1 or S_Agg never converges
  rejects(opts);
  opts = RunOptions();
  opts.alpha = 0.5;
  rejects(opts);
  opts = RunOptions();
  opts.dropout_rate = 1.5;
  rejects(opts);
  opts = RunOptions();
  opts.dropout_rate = -0.1;
  rejects(opts);
  opts = RunOptions();
  opts.dropout_rate = 0.2;  // losses possible but no redispatch budget
  opts.max_dropout_retries = 0;
  rejects(opts);
  opts = RunOptions();
  opts.compute_availability = 0.0;
  rejects(opts);
  opts = RunOptions();
  opts.compute_availability = 1.5;
  rejects(opts);
  opts = RunOptions();
  opts.connect_prob_per_tick = 0.0;
  rejects(opts);
  opts = RunOptions();
  opts.dropout_timeout_seconds = -1.0;
  rejects(opts);
  opts = RunOptions();
  opts.nf = -1;
  rejects(opts);

  // Defaults are valid, and a valid config still submits fine.
  EXPECT_TRUE(RunOptions().Validate().ok());
  QuerySession session = w.engine->NewSession();
  EXPECT_TRUE(session.Submit(1, w.querier.get(), &s_agg, sql).ok());
}

}  // namespace
}  // namespace tcells::protocol
