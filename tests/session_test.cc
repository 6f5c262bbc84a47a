// Tests for QuerySession: one query per session through the querybox hub,
// over an engine's SSI stack. Concurrent queries are concurrent
// Engine::Submit handles, each a one-query session on the scheduler.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <limits>
#include <map>
#include <set>
#include <thread>

#include "net/sharded_client.h"
#include "protocol/reference.h"
#include "tcells/engine.h"
#include "tds/access_control.h"
#include "workload/generic.h"
#include "workload/health.h"

namespace tcells::protocol {
namespace {

class SessionWorld {
 public:
  explicit SessionWorld(size_t n = 60, RunOptions options = {},
                        std::shared_ptr<const net::FaultPlan> faults = nullptr,
                        KeyMode key_mode = KeyMode::kStatic) {
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
    config.fault_plan = std::move(faults);
    config.key_mode = key_mode;
    engine = Engine::Create(std::move(built), config).ValueOrDie();
    fleet = &engine->fleet();
  }

  /// A session over the engine's SSI with the engine's options, built the
  /// way the scheduler builds one per query (no telemetry sinks).
  QuerySession Session() {
    return QuerySession(fleet, engine->device(), engine->options(), {},
                        engine->ssi_client());
  }

  std::shared_ptr<const crypto::KeyStore> keys;
  std::shared_ptr<tds::Authority> authority;
  std::unique_ptr<Querier> querier;
  std::unique_ptr<Engine> engine;
  Fleet* fleet = nullptr;  // owned by the engine
};

/// A one-shard router over an engine's SSI that counts the two collection
/// batches, keeps every collection upload it forwards, lets a test edit the
/// batches' replies and runs a hook on each acknowledgement.
class InterceptingRouter : public net::ShardedSsiClient {
 public:
  using Fetched = std::vector<Result<std::vector<ssi::QueryPost>>>;
  using Accepts = std::vector<Result<bool>>;

  explicit InterceptingRouter(net::SsiApi* inner) : ShardedSsiClient({inner}) {}

  Fetched FetchPostsBatch(const std::vector<uint64_t>& tds_ids) override {
    Fetched out = ShardedSsiClient::FetchPostsBatch(tds_ids);
    fetch_batches += 1;
    if (on_fetch) on_fetch(&out);
    return out;
  }
  Accepts UploadCollectionBatch(
      const std::vector<net::CollectionUpload>& uploads) override {
    Accepts out = ShardedSsiClient::UploadCollectionBatch(uploads);
    upload_batches += 1;
    for (const net::CollectionUpload& upload : uploads) {
      uploaded[upload.tds_id] = upload.items;
    }
    if (on_upload) on_upload(&out);
    return out;
  }

  Status Acknowledge(uint64_t tds_id, uint64_t query_id) override {
    if (on_acknowledge) on_acknowledge();
    return ShardedSsiClient::Acknowledge(tds_id, query_id);
  }

  std::function<void(Fetched*)> on_fetch;
  std::function<void(Accepts*)> on_upload;
  std::function<void()> on_acknowledge;
  size_t fetch_batches = 0;
  size_t upload_batches = 0;
  std::map<uint64_t, std::vector<ssi::EncryptedItem>> uploaded;
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

// Two queries submitted back to back run concurrently on the engine's
// scheduler, each in its own one-query session over the shared hub.
TEST(SessionTest, TwoConcurrentQueriesBothMatchOracle) {
  RunOptions opts;
  opts.compute_availability = 0.3;
  SessionWorld w(60, opts);

  SAggProtocol s_agg;
  BasicSfwProtocol basic;
  const char* agg_sql = "SELECT grp, COUNT(*), AVG(val) FROM T GROUP BY grp";
  const char* sfw_sql = "SELECT grp, cat FROM T WHERE cat < 4";
  QueryHandle agg =
      w.engine->Submit(s_agg, *w.querier, 1, agg_sql).ValueOrDie();
  QueryHandle sfw =
      w.engine->Submit(basic, *w.querier, 2, sfw_sql).ValueOrDie();

  RunOutcome agg_out = agg.Wait().ValueOrDie();
  RunOutcome sfw_out = sfw.Wait().ValueOrDie();
  EXPECT_TRUE(agg_out.result.SameRows(
      ExecuteReference(*w.fleet, agg_sql).ValueOrDie()));
  EXPECT_TRUE(sfw_out.result.SameRows(
      ExecuteReference(*w.fleet, sfw_sql).ValueOrDie()));
  // Both queries collected from the full fleet.
  EXPECT_EQ(agg_out.adversary.collection_items, w.fleet->size());
  EXPECT_EQ(sfw_out.adversary.collection_items, w.fleet->size());
}

TEST(SessionTest, MixedProtocolsShareTheFleet) {
  RunOptions opts;
  opts.compute_availability = 0.3;
  SessionWorld w(60, opts);

  auto domain = std::make_shared<std::vector<storage::Tuple>>();
  for (size_t g = 0; g < 4; ++g) {
    domain->push_back(
        storage::Tuple({storage::Value::String(workload::GroupName(g))}));
  }
  SAggProtocol s_agg;
  NoiseProtocol noise(true, domain);
  const char* q1 = "SELECT grp, SUM(val) FROM T GROUP BY grp";
  const char* q2 = "SELECT grp, MAX(cat) FROM T GROUP BY grp";
  QueryHandle h1 = w.engine->Submit(s_agg, *w.querier, 10, q1).ValueOrDie();
  QueryHandle h2 = w.engine->Submit(noise, *w.querier, 11, q2).ValueOrDie();
  EXPECT_TRUE(h1.Wait().ValueOrDie().result.SameRows(
      ExecuteReference(*w.fleet, q1).ValueOrDie()));
  EXPECT_TRUE(h2.Wait().ValueOrDie().result.SameRows(
      ExecuteReference(*w.fleet, q2).ValueOrDie()));
}

TEST(SessionTest, PersonalQueryReachesOnlyItsTds) {
  SessionWorld w;
  QuerySession session = w.Session();
  BasicSfwProtocol basic;
  // Personal query to TDS 5: "get my own rows".
  ASSERT_TRUE(session
                  .SubmitPersonal(3, /*tds_id=*/5, w.querier.get(), &basic,
                                  "SELECT grp, val FROM T")
                  .ok());
  auto outcomes = session.RunAll().ValueOrDie();
  ASSERT_EQ(outcomes.size(), 1u);
  const auto& outcome = outcomes.at(3);
  // Exactly one TDS answered (its own data only).
  EXPECT_EQ(outcome.metrics.collection_participants, 1u);
  auto local = sql::AnalyzeSql("SELECT grp, val FROM T",
                               w.fleet->at(5)->db().catalog())
                   .ValueOrDie();
  auto expected = sql::ExecuteLocal(w.fleet->at(5)->db(), local).ValueOrDie();
  EXPECT_TRUE(outcome.result.SameRows(expected));
  EXPECT_FALSE(session.has_pending());
}

// Each concurrent query's SIZE bound closes its own collection only.
TEST(SessionTest, SizeBoundPerQuery) {
  SessionWorld w;
  BasicSfwProtocol basic;
  SAggProtocol s_agg;
  QueryHandle sized =
      w.engine->Submit(basic, *w.querier, 1, "SELECT grp FROM T SIZE 7")
          .ValueOrDie();
  QueryHandle full = w.engine
                         ->Submit(s_agg, *w.querier, 2,
                                  "SELECT grp, COUNT(*) FROM T GROUP BY grp")
                         .ValueOrDie();
  EXPECT_EQ(sized.Wait().ValueOrDie().adversary.collection_items, 7u);
  EXPECT_EQ(full.Wait().ValueOrDie().adversary.collection_items,
            w.fleet->size());
}

// Leakage is counted once, on the node that receives the bytes: with the
// first reply of the result delivery and of the aggregation report lost, the
// retried calls add nothing to the adversary view.
TEST(SessionTest, RetriedLeakageReportsCountOnce) {
  const char* sql = "SELECT grp, COUNT(*), AVG(val) FROM T GROUP BY grp";
  uint64_t injected = 0;
  auto run = [&](std::shared_ptr<const net::FaultPlan> faults) {
    SessionWorld w(60, RunOptions{}, std::move(faults));
    SAggProtocol s_agg;
    RunOutcome outcome = w.engine->Run(s_agg, *w.querier, 1, sql).ValueOrDie();
    if (net::FaultyTransport* injector = w.engine->shard_fault_injector(0)) {
      injected = injector->injected_count();
    }
    return outcome;
  };
  auto plan = std::make_shared<net::FaultPlan>();
  for (net::MsgType type :
       {net::MsgType::kDeliverResult, net::MsgType::kObserveAggregation}) {
    net::ScriptedFault drop;
    drop.type = type;
    drop.kind = net::FaultKind::kDropReply;
    plan->script.push_back(drop);
  }
  const RunOutcome clean = run(nullptr);
  const RunOutcome faulty = run(plan);
  EXPECT_EQ(injected, 2u);
  EXPECT_EQ(faulty.adversary.filtering_items, faulty.result.rows.size());
  EXPECT_EQ(faulty.adversary.aggregation_items,
            clean.adversary.aggregation_items);
  EXPECT_GT(clean.adversary.aggregation_items, 0u);
  EXPECT_TRUE(faulty.result.SameRows(clean.result));
}

TEST(SessionTest, TickedCollectionWindow) {
  RunOptions opts;
  opts.connect_prob_per_tick = 0.3;
  opts.seed = 5;
  SessionWorld w(60, opts);
  SAggProtocol s_agg;
  auto outcome =
      w.engine
          ->Run(s_agg, *w.querier, 1,
                "SELECT grp, COUNT(*) FROM T GROUP BY grp SIZE DURATION 3")
          .ValueOrDie();
  const auto& m = outcome.metrics;
  EXPECT_LE(m.collection_ticks, 3u);
  EXPECT_LT(m.collection_participants, w.fleet->size());
  EXPECT_GT(m.collection_participants, 0u);
}

// Each query draws its own collection window: its serve order and per-tick
// connectivity are keyed on the query's seed, which the query id moves. On
// one engine, a SIZE-bounded query and a DURATION-bounded query each answer
// differently under three query ids, so no fixed subset of the fleet answers
// every query.
TEST(SessionTest, EachQueryDrawsItsOwnCollectionWindow) {
  SessionWorld w(1000);
  SAggProtocol s_agg;
  for (const char* sql :
       {"SELECT grp, COUNT(*), SUM(val) FROM T GROUP BY grp SIZE 50",
        "SELECT grp, COUNT(*), SUM(val) FROM T GROUP BY grp "
        "SIZE DURATION 2"}) {
    std::vector<sql::QueryResult> results;
    for (uint64_t id : {11u, 12u, 13u}) {
      results.push_back(
          w.engine->Run(s_agg, *w.querier, id, sql).ValueOrDie().result);
    }
    for (size_t i = 0; i < results.size(); ++i) {
      for (size_t j = i + 1; j < results.size(); ++j) {
        EXPECT_FALSE(results[i].SameRows(results[j]))
            << sql << ": queries " << 11 + i << " and " << 11 + j;
      }
    }
  }
}

// Each draw is keyed by what it is about, not by how many draws came before
// it. When one TDS's post fetch fails, every other TDS seals exactly the
// upload bytes of the clean run, and the rounds run on the same compute pool.
TEST(SessionTest, LostFetchMovesNoOtherTdsDraw) {
  RunOptions opts;
  opts.compute_availability = 0.015;  // 3 of 200 TDSs, each in every round
  struct Run {
    std::map<uint64_t, std::vector<ssi::EncryptedItem>> uploaded;
    std::set<uint64_t> round_tds;
  };
  auto run = [&](bool lose_first_fetch) {
    SessionWorld w(200, opts);
    InterceptingRouter router(w.engine->ssi_client());
    if (lose_first_fetch) {
      router.on_fetch = [](InterceptingRouter::Fetched* r) {
        r->front() = Status::Unavailable("fetch lost");
      };
    }
    QuerySession session(w.fleet, w.engine->device(), w.engine->options(), {},
                         &router);
    SAggProtocol s_agg;
    EXPECT_TRUE(session
                    .Submit(1, w.querier.get(), &s_agg,
                            "SELECT grp, COUNT(*) FROM T GROUP BY grp")
                    .ok());
    const RunOutcome outcome = session.RunAll().ValueOrDie().at(1);
    Run out;
    out.uploaded = std::move(router.uploaded);
    // A collection upload downloads nothing; a round partition does.
    for (const auto& [id, tally] : outcome.metrics.accountant.per_tds()) {
      if (tally.bytes_in > 0) out.round_tds.insert(id);
    }
    return out;
  };
  const Run clean = run(false);
  const Run lossy = run(true);
  ASSERT_EQ(clean.uploaded.size(), 200u);
  ASSERT_EQ(lossy.uploaded.size(), 199u);
  for (const auto& [id, items] : clean.uploaded) {
    if (!lossy.uploaded.contains(id)) continue;
    EXPECT_EQ(lossy.uploaded.at(id), items) << "TDS " << id;
  }
  EXPECT_EQ(clean.round_tds.size(), 3u);
  EXPECT_EQ(lossy.round_tds, clean.round_tds);
}

// A tick serves its connectors in waves of 4096 (session.cc), and a cancel
// raised while the first wave fetches stops the tick before the second:
// exactly one wave's uploads reach the SSI.
TEST(SessionTest, CancelTakesEffectBetweenWaves) {
  SessionWorld w(2 * 4096 + 100);
  std::atomic<bool> cancel{false};
  RunOptions opts = w.engine->options();
  opts.cancel = &cancel;
  InterceptingRouter router(w.engine->ssi_client());
  router.on_fetch = [&](InterceptingRouter::Fetched*) { cancel = true; };
  QuerySession session(w.fleet, w.engine->device(), opts, {}, &router);
  SAggProtocol s_agg;
  ASSERT_TRUE(session
                  .Submit(1, w.querier.get(), &s_agg,
                          "SELECT grp, COUNT(*) FROM T GROUP BY grp")
                  .ok());
  Status s = session.RunAll().status();
  EXPECT_TRUE(s.IsCancelled()) << s.ToString();
  EXPECT_EQ(router.fetch_batches, 1u);
  EXPECT_EQ(router.upload_batches, 1u);
}

// A batch reply shorter than its request is a broken transport, not a set
// of TDSs that missed the tick: the query fails, naming the call.
TEST(SessionTest, ShortBatchRepliesFailLoudly) {
  for (const char* call : {"FetchPostsBatch", "UploadCollectionBatch"}) {
    SessionWorld w;
    InterceptingRouter router(w.engine->ssi_client());
    if (std::string(call) == "FetchPostsBatch") {
      router.on_fetch = [](InterceptingRouter::Fetched* r) { r->pop_back(); };
    } else {
      router.on_upload = [](InterceptingRouter::Accepts* r) { r->pop_back(); };
    }
    QuerySession session(w.fleet, w.engine->device(), w.engine->options(), {},
                         &router);
    SAggProtocol s_agg;
    ASSERT_TRUE(session
                    .Submit(1, w.querier.get(), &s_agg,
                            "SELECT grp, COUNT(*) FROM T GROUP BY grp")
                    .ok());
    Status s = session.RunAll().status();
    EXPECT_TRUE(s.IsInternal()) << call << ": " << s.ToString();
    EXPECT_NE(s.ToString().find(call), std::string::npos) << s.ToString();
  }
}

// A key rollover that starts while a wave admits its uploads waits for the
// wave's last admission check: an honest upload is never tagged under one
// epoch and checked under the next. Past the SIZE bound a serve is tagged,
// checked and acknowledged, so the first acknowledgement falls between the
// checks; the rollover starts there and gets 200 ms to finish.
TEST(SessionTest, RolloverWaitsForTheWavesAdmissionChecks) {
  SessionWorld w(60, RunOptions{}, nullptr, KeyMode::kDynamic);
  InterceptingRouter router(w.engine->ssi_client());
  std::thread roller;
  std::future<Status> rolled;
  router.on_acknowledge = [&] {
    if (roller.joinable()) return;
    std::packaged_task<Status()> rollover(
        [&] { return w.engine->RolloverEpoch(); });
    rolled = rollover.get_future();
    roller = std::thread(std::move(rollover));
    rolled.wait_for(std::chrono::milliseconds(200));
  };
  QuerySession session(w.fleet, w.engine->device(), w.engine->options(), {},
                       &router);
  SAggProtocol s_agg;
  ASSERT_TRUE(session
                  .Submit(1, w.querier.get(), &s_agg,
                          "SELECT grp, COUNT(*) FROM T GROUP BY grp SIZE 5")
                  .ok());
  auto outcomes = session.RunAll();
  ASSERT_TRUE(roller.joinable());
  roller.join();
  EXPECT_TRUE(rolled.get().ok());
  ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
  EXPECT_EQ(outcomes->at(1).metrics.contributions_rejected, 0u);
  EXPECT_EQ(outcomes->at(1).adversary.collection_items, 5u);
}

// A session runs one query: a second Submit, under any id, is refused and
// points at the engine's scheduler.
TEST(SessionTest, SecondSubmitOnASessionIsFailedPrecondition) {
  SessionWorld w;
  QuerySession session = w.Session();
  SAggProtocol s_agg;
  BasicSfwProtocol basic;
  const char* sql = "SELECT grp, COUNT(*) FROM T GROUP BY grp";
  ASSERT_TRUE(session.Submit(1, w.querier.get(), &s_agg, sql).ok());
  for (uint64_t id : {1u, 2u}) {
    Status again = session.Submit(id, w.querier.get(), &s_agg, sql);
    EXPECT_TRUE(again.IsFailedPrecondition()) << again.ToString();
    EXPECT_NE(again.ToString().find("Engine::Submit"), std::string::npos);
  }
  EXPECT_TRUE(session
                  .SubmitPersonal(3, /*tds_id=*/5, w.querier.get(), &basic,
                                  "SELECT grp, val FROM T")
                  .IsFailedPrecondition());
  // The first query still runs to completion, alone.
  auto outcomes = session.RunAll().ValueOrDie();
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_TRUE(outcomes.at(1).result.SameRows(
      ExecuteReference(*w.fleet, sql).ValueOrDie()));
}

TEST(SessionTest, ProtocolShapeMismatchRejectedAtSubmit) {
  SessionWorld w;
  QuerySession session = w.Session();
  BasicSfwProtocol basic;
  EXPECT_FALSE(session.Submit(1, w.querier.get(), &basic,
                              "SELECT grp, COUNT(*) FROM T GROUP BY grp")
                   .ok());
  EXPECT_FALSE(session.has_pending());
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
    EXPECT_FALSE(session.has_pending());
  };

  RunOptions opts;
  opts.alpha = 1.0;  // merge fan-in must exceed 1 or S_Agg never converges
  rejects(opts);
  opts = RunOptions();
  opts.alpha = 0.5;
  rejects(opts);
  // An infinite fan-in would put every round in one partition on one TDS.
  opts = RunOptions();
  opts.alpha = std::numeric_limits<double>::infinity();
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
  // NaN fails every comparison, so a range check written as "x < lo ||
  // x > hi" lets it through; an infinite timeout is no timeout at all.
  opts = RunOptions();
  opts.dropout_rate = std::numeric_limits<double>::quiet_NaN();
  rejects(opts);
  for (double timeout : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity()}) {
    opts = RunOptions();
    opts.dropout_timeout_seconds = timeout;
    rejects(opts);
  }
  opts = RunOptions();
  opts.nf = -1;
  rejects(opts);
  // A thread count no pool can hold used to abort the process inside the
  // worker pool's constructor; it is now an InvalidArgument naming the knob.
  for (size_t threads : {RunOptions::kMaxThreads + 1,
                         std::numeric_limits<size_t>::max()}) {
    opts = RunOptions();
    opts.num_threads = threads;
    rejects(opts);
    Status s = opts.Validate();
    EXPECT_TRUE(s.IsInvalidArgument());
    EXPECT_NE(s.ToString().find("num_threads"), std::string::npos);
  }

  // Defaults and the thread cap itself are valid, and a valid config still
  // submits fine.
  EXPECT_TRUE(RunOptions().Validate().ok());
  opts = RunOptions();
  opts.num_threads = RunOptions::kMaxThreads;
  EXPECT_TRUE(opts.Validate().ok());
  QuerySession session = w.Session();
  EXPECT_TRUE(session.Submit(1, w.querier.get(), &s_agg, sql).ok());
  EXPECT_TRUE(session.has_pending());
}

}  // namespace
}  // namespace tcells::protocol
