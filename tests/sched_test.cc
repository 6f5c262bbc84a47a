// Scheduler & engine-configuration tests: per-knob Create validation, the
// QueryHandle lifecycle, FIFO admission, and cooperative cancellation (queued
// and mid-run) releasing shard state.
//
// The blocking scenarios use a GateProtocol — an S_Agg wrapper that parks in
// RunAggregation until the test releases it — so "slot busy" and "cancel
// arrives mid-run" are reproducible states, not races. Labelled `sched` (and
// `tsan`: handles, the scheduler and the gate cross threads by design).
#include <gtest/gtest.h>

#include <condition_variable>
#include <mutex>

#include "net/ssi_wire.h"
#include "protocol/reference.h"
#include "tcells/engine.h"
#include "tds/access_control.h"
#include "workload/generic.h"

namespace tcells {
namespace {

protocol::RunOptions FastOptions() {
  protocol::RunOptions opts;
  opts.compute_availability = 0.3;
  opts.expected_groups = 4;
  return opts;
}

std::unique_ptr<protocol::Fleet> BuildFleet(size_t n = 60, uint64_t seed = 3) {
  auto keys = crypto::KeyStore::CreateForTest(77);
  auto authority = std::make_shared<tds::Authority>(Bytes(16, 0x21));
  workload::GenericOptions gopts;
  gopts.num_tds = n;
  gopts.num_groups = 4;
  gopts.seed = seed;
  return workload::BuildGenericFleet(gopts, keys, authority,
                                     tds::AccessPolicy::AllowAll())
      .ValueOrDie();
}

protocol::Querier MakeQuerier() {
  auto keys = crypto::KeyStore::CreateForTest(77);
  auto authority = std::make_shared<tds::Authority>(Bytes(16, 0x21));
  return protocol::Querier("s", authority->Issue("s"), keys);
}

const char* kAggSql = "SELECT grp, COUNT(*), SUM(cat) FROM T GROUP BY grp";

/// Test double: runs S_Agg, but parks at the top of the aggregation phase
/// until Release() — RunningQueries() tells the test when a worker actually
/// reached the gate, so admission/cancellation states can be pinned down
/// without sleeping.
class GateProtocol : public protocol::Protocol {
 public:
  protocol::ProtocolKind kind() const override { return inner_.kind(); }
  Result<tds::CollectionConfig> MakeCollectionConfig(
      protocol::RunContext& ctx, const sql::AnalyzedQuery& query) override {
    return inner_.MakeCollectionConfig(ctx, query);
  }
  Result<std::vector<ssi::EncryptedItem>> RunAggregation(
      protocol::RunContext& ctx, const sql::AnalyzedQuery& query,
      const tds::CollectionConfig& config,
      std::vector<ssi::EncryptedItem> items) override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      ++at_gate_;
      cv_.notify_all();
      cv_.wait(lock, [&] { return released_; });
    }
    return inner_.RunAggregation(ctx, query, config, std::move(items));
  }

  /// Blocks until `n` queries are parked at the gate.
  void AwaitAtGate(size_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return at_gate_ >= n; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  protocol::SAggProtocol inner_;
  std::mutex mu_;
  std::condition_variable cv_;
  size_t at_gate_ = 0;
  bool released_ = false;
};

// ---------------------------------------------------------------------------
// Create-time configuration validation: one clear InvalidArgument per knob.
// ---------------------------------------------------------------------------

TEST(EngineConfigTest, EmptyFleetRejected) {
  auto engine = Engine::Create(std::make_unique<protocol::Fleet>());
  ASSERT_FALSE(engine.ok());
  EXPECT_TRUE(engine.status().IsInvalidArgument());
  EXPECT_NE(engine.status().ToString().find("non-empty fleet"),
            std::string::npos);
}

TEST(EngineConfigTest, ZeroShardsRejected) {
  Engine::Config cfg;
  cfg.num_shards = 0;
  auto engine = Engine::Create(BuildFleet(), cfg);
  ASSERT_FALSE(engine.ok());
  EXPECT_TRUE(engine.status().IsInvalidArgument());
  EXPECT_NE(engine.status().ToString().find("num_shards must be >= 1"),
            std::string::npos);
}

TEST(EngineConfigTest, TooManyShardsRejected) {
  Engine::Config cfg;
  cfg.num_shards = Engine::kMaxShards + 1;
  auto engine = Engine::Create(BuildFleet(), cfg);
  ASSERT_FALSE(engine.ok());
  EXPECT_TRUE(engine.status().IsInvalidArgument());
  EXPECT_NE(engine.status().ToString().find("exceeds kMaxShards"),
            std::string::npos);
}

TEST(EngineConfigTest, ZeroInflightRejected) {
  Engine::Config cfg;
  cfg.max_inflight_queries = 0;
  auto engine = Engine::Create(BuildFleet(), cfg);
  ASSERT_FALSE(engine.ok());
  EXPECT_TRUE(engine.status().IsInvalidArgument());
  EXPECT_NE(
      engine.status().ToString().find("max_inflight_queries must be >= 1"),
      std::string::npos);
}

TEST(EngineConfigTest, TooManyInflightRejected) {
  Engine::Config cfg;
  cfg.max_inflight_queries = Engine::kMaxInflightQueries + 1;
  auto engine = Engine::Create(BuildFleet(), cfg);
  ASSERT_FALSE(engine.ok());
  EXPECT_TRUE(engine.status().IsInvalidArgument());
  EXPECT_NE(engine.status().ToString().find("exceeds kMaxInflightQueries"),
            std::string::npos);
}

TEST(EngineConfigTest, OversizedBatchRejected) {
  Engine::Config cfg;
  cfg.transport_batch_max_calls = net::kMaxCallsPerBatch + 1;
  auto engine = Engine::Create(BuildFleet(), cfg);
  ASSERT_FALSE(engine.ok());
  EXPECT_TRUE(engine.status().IsInvalidArgument());
  EXPECT_NE(engine.status().ToString().find("kMaxCallsPerBatch"),
            std::string::npos);
}

TEST(EngineConfigTest, BatchedFramesWithFaultPlanRejected) {
  // Fault schedules are call-granular, so a fault plan derives one call per
  // frame; an explicit larger batch contradicts it.
  Engine::Config cfg;
  cfg.fault_plan = std::make_shared<net::FaultPlan>();
  cfg.transport_batch_max_calls = 2;
  auto engine = Engine::Create(BuildFleet(), cfg);
  ASSERT_FALSE(engine.ok());
  EXPECT_TRUE(engine.status().IsInvalidArgument());
  EXPECT_NE(engine.status().ToString().find("fault_plan"), std::string::npos);
  cfg.transport_batch_max_calls = 1;
  EXPECT_TRUE(Engine::Create(BuildFleet(), cfg).ok());
}

TEST(EngineConfigTest, AutoBatchDefaultAccepted) {
  // 0 = auto: resolved per backend at StartShards, never rejected.
  Engine::Config cfg;
  EXPECT_EQ(cfg.transport_batch_max_calls, 0u);
  EXPECT_TRUE(Engine::Create(BuildFleet(), cfg).ok());
}

TEST(EngineConfigTest, MalformedRunOptionsRejected) {
  // RunOptions::Validate runs inside Create: the engine-wide defaults are
  // checked once, before any shard or worker starts.
  Engine::Config cfg;
  cfg.options.alpha = 1.0;  // S_Agg never converges at fan-in <= 1
  EXPECT_FALSE(Engine::Create(BuildFleet(), cfg).ok());
  cfg = Engine::Config();
  cfg.options.compute_availability = 1.5;
  EXPECT_FALSE(Engine::Create(BuildFleet(), cfg).ok());
}

TEST(EngineConfigTest, CallerKeyAuthorityRejected) {
  // The engine owns its key authority and key_mode selects it: a foreign
  // one on a static fleet would post keys no TDS holds a state for, and the
  // query would answer OK with no rows.
  auto foreign =
      keys::KeyAuthority::Create(Bytes(16, 0x5a), 64, 1).ValueOrDie();
  Engine::Config cfg;
  cfg.options.key_authority = foreign.get();
  auto engine = Engine::Create(BuildFleet(), cfg);
  ASSERT_FALSE(engine.ok());
  EXPECT_TRUE(engine.status().IsInvalidArgument());
  EXPECT_NE(engine.status().ToString().find("key_authority"),
            std::string::npos);
}

TEST(EngineConfigTest, ForeignKeyAuthorityRejectedAtSubmit) {
  auto foreign =
      keys::KeyAuthority::Create(Bytes(16, 0x5a), 64, 1).ValueOrDie();
  auto querier = MakeQuerier();
  protocol::SAggProtocol s_agg;
  protocol::RunOptions opts = FastOptions();
  opts.key_authority = foreign.get();
  for (KeyMode mode : {KeyMode::kStatic, KeyMode::kDynamic}) {
    Engine::Config cfg;
    cfg.options = FastOptions();
    cfg.key_mode = mode;
    auto engine = Engine::Create(BuildFleet(), cfg).ValueOrDie();
    auto handle = engine->Submit(s_agg, querier, 1, kAggSql, opts);
    ASSERT_FALSE(handle.ok());
    EXPECT_TRUE(handle.status().IsInvalidArgument());
  }
  // A dynamic engine's own options carry its own authority: accepted.
  Engine::Config cfg;
  cfg.options = FastOptions();
  cfg.key_mode = KeyMode::kDynamic;
  auto fleet = BuildFleet();
  auto oracle = protocol::ExecuteReference(*fleet, kAggSql).ValueOrDie();
  auto engine = Engine::Create(std::move(fleet), cfg).ValueOrDie();
  ASSERT_EQ(engine->options().key_authority, engine->key_authority());
  auto outcome = engine->Submit(s_agg, querier, 2, kAggSql, engine->options())
                     .ValueOrDie()
                     .Wait()
                     .ValueOrDie();
  EXPECT_TRUE(outcome.result.SameRows(oracle));
}

TEST(EngineConfigTest, BoundaryValuesAccepted) {
  Engine::Config cfg;
  cfg.num_shards = 4;
  cfg.max_inflight_queries = 8;
  auto engine = Engine::Create(BuildFleet(), cfg);
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ((*engine)->num_shards(), 4u);
  EXPECT_EQ((*engine)->scheduler().max_inflight(), 8u);
}

// ---------------------------------------------------------------------------
// QueryHandle lifecycle.
// ---------------------------------------------------------------------------

TEST(QueryHandleTest, SubmitWaitIdempotent) {
  Engine::Config cfg;
  cfg.options = FastOptions();
  auto fleet = BuildFleet();
  auto oracle = protocol::ExecuteReference(*fleet, kAggSql).ValueOrDie();
  auto engine = Engine::Create(std::move(fleet), cfg).ValueOrDie();
  auto querier = MakeQuerier();

  protocol::SAggProtocol s_agg;
  QueryHandle handle =
      engine->Submit(s_agg, querier, 1, kAggSql).ValueOrDie();
  ASSERT_TRUE(handle.valid());
  EXPECT_EQ(handle.query_id(), 1u);

  auto outcome = handle.Wait().ValueOrDie();
  EXPECT_TRUE(outcome.result.SameRows(oracle));
  EXPECT_EQ(handle.Status(), QueryState::kDone);
  EXPECT_TRUE(handle.Finished());
  // Wait is idempotent: the stored outcome comes back again, bit-identical.
  auto again = handle.Wait().ValueOrDie();
  EXPECT_EQ(again.result.ToString(), outcome.result.ToString());
}

TEST(QueryHandleTest, InvalidPerQueryOptionsRejectedAtSubmit) {
  auto engine = Engine::Create(BuildFleet()).ValueOrDie();
  auto querier = MakeQuerier();
  protocol::SAggProtocol s_agg;
  protocol::RunOptions bad = FastOptions();
  bad.alpha = 0.5;
  auto handle = engine->Submit(s_agg, querier, 1, kAggSql, bad);
  ASSERT_FALSE(handle.ok());
  EXPECT_TRUE(handle.status().IsInvalidArgument());
}

TEST(QueryHandleTest, FailedQueryReportsFailedState) {
  auto engine = Engine::Create(BuildFleet()).ValueOrDie();
  auto querier = MakeQuerier();
  protocol::BasicSfwProtocol basic;
  // Shape mismatch: BasicSfw cannot run a GROUP BY aggregate.
  QueryHandle handle =
      engine->Submit(basic, querier, 1, kAggSql).ValueOrDie();
  EXPECT_FALSE(handle.Wait().ok());
  EXPECT_EQ(handle.Status(), QueryState::kFailed);
}

// ---------------------------------------------------------------------------
// Admission: Submit queues every query; slots free before Wait() returns.
// ---------------------------------------------------------------------------

TEST(AdmissionTest, FinishedQueryFreesItsSlotBeforeWaitReturns) {
  // The worker frees a query's slot before publishing its terminal state,
  // so a caller whose Wait() returns never sees the only slot still held by
  // the query it just waited for.
  Engine::Config cfg;
  cfg.options = FastOptions();
  cfg.max_inflight_queries = 1;
  auto engine = Engine::Create(BuildFleet(), cfg).ValueOrDie();
  auto querier = MakeQuerier();
  protocol::SAggProtocol s_agg;
  for (uint64_t id = 1; id <= 200; ++id) {
    auto outcome = engine->Run(s_agg, querier, id, kAggSql);
    ASSERT_TRUE(outcome.ok()) << "query " << id << ": "
                              << outcome.status().ToString();
    ASSERT_EQ(engine->scheduler().NumRunning(), 0u) << "query " << id;
  }
}

TEST(AdmissionTest, BusySlotQueuesBacklogInOrder) {
  Engine::Config cfg;
  cfg.options = FastOptions();
  cfg.max_inflight_queries = 1;
  auto fleet = BuildFleet();
  auto oracle = protocol::ExecuteReference(*fleet, kAggSql).ValueOrDie();
  auto engine = Engine::Create(std::move(fleet), cfg).ValueOrDie();
  auto querier = MakeQuerier();

  GateProtocol gate;
  protocol::SAggProtocol s_agg;
  QueryHandle h1 = engine->Submit(gate, querier, 1, kAggSql).ValueOrDie();
  gate.AwaitAtGate(1);
  // The single slot is busy: these queue rather than fail.
  QueryHandle h2 = engine->Submit(s_agg, querier, 2, kAggSql).ValueOrDie();
  QueryHandle h3 = engine->Submit(s_agg, querier, 3, kAggSql).ValueOrDie();
  EXPECT_EQ(engine->scheduler().NumQueued(), 2u);
  EXPECT_EQ(h2.Status(), QueryState::kQueued);

  gate.Release();
  EXPECT_TRUE(h1.Wait().ok());
  EXPECT_TRUE(h2.Wait().ValueOrDie().result.SameRows(oracle));
  EXPECT_TRUE(h3.Wait().ValueOrDie().result.SameRows(oracle));
  EXPECT_EQ(engine->scheduler().NumQueued(), 0u);
}

// ---------------------------------------------------------------------------
// Cancellation.
// ---------------------------------------------------------------------------

TEST(CancelTest, QueuedJobCancelledBeforeItRuns) {
  Engine::Config cfg;
  cfg.options = FastOptions();
  cfg.max_inflight_queries = 1;
  auto engine = Engine::Create(BuildFleet(), cfg).ValueOrDie();
  auto querier = MakeQuerier();

  GateProtocol gate;
  protocol::SAggProtocol s_agg;
  QueryHandle h1 = engine->Submit(gate, querier, 1, kAggSql).ValueOrDie();
  gate.AwaitAtGate(1);
  QueryHandle h2 = engine->Submit(s_agg, querier, 2, kAggSql).ValueOrDie();
  h2.Cancel();
  // A queued job dies immediately — no worker ever touches it.
  EXPECT_EQ(h2.Status(), QueryState::kCancelled);
  auto result = h2.Wait();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled());

  gate.Release();
  EXPECT_TRUE(h1.Wait().ok());
  // The cancelled query never reached the SSI: no shard holds state for it.
  for (size_t i = 0; i < engine->num_shards(); ++i) {
    EXPECT_EQ(engine->shard_node(i)->num_active_queries(), 0u);
  }
}

TEST(CancelTest, MidRunCancelReleasesShardStateAndAllowsResubmit) {
  Engine::Config cfg;
  cfg.options = FastOptions();
  cfg.num_shards = 2;
  auto fleet = BuildFleet();
  auto oracle = protocol::ExecuteReference(*fleet, kAggSql).ValueOrDie();
  auto engine = Engine::Create(std::move(fleet), cfg).ValueOrDie();
  auto querier = MakeQuerier();

  GateProtocol gate;
  QueryHandle handle = engine->Submit(gate, querier, 7, kAggSql).ValueOrDie();
  gate.AwaitAtGate(1);  // collection done, parked before the first round
  handle.Cancel();
  gate.Release();  // the run resumes and hits the round-edge cancel check
  auto result = handle.Wait();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled());
  EXPECT_EQ(handle.Status(), QueryState::kCancelled);

  // The runner retired the half-finished query on every shard: nothing
  // leaks into later queries and the same id is free again.
  for (size_t i = 0; i < engine->num_shards(); ++i) {
    EXPECT_EQ(engine->shard_node(i)->num_active_queries(), 0u);
  }
  protocol::SAggProtocol s_agg;
  auto rerun = engine->Run(s_agg, querier, 7, kAggSql).ValueOrDie();
  EXPECT_TRUE(rerun.result.SameRows(oracle));
  // Accounting stayed consistent: a clean loopback rerun loses nothing.
  EXPECT_EQ(rerun.metrics.partitions_lost, 0u);
  EXPECT_EQ(rerun.metrics.partitions_tampered, 0u);
}

TEST(CancelTest, CancelAfterCompletionIsANoOp) {
  Engine::Config cfg;
  cfg.options = FastOptions();
  auto fleet = BuildFleet();
  auto oracle = protocol::ExecuteReference(*fleet, kAggSql).ValueOrDie();
  auto engine = Engine::Create(std::move(fleet), cfg).ValueOrDie();
  auto querier = MakeQuerier();
  protocol::SAggProtocol s_agg;
  QueryHandle handle = engine->Submit(s_agg, querier, 1, kAggSql).ValueOrDie();
  ASSERT_TRUE(handle.Wait().ok());
  handle.Cancel();
  EXPECT_EQ(handle.Status(), QueryState::kDone);
  EXPECT_TRUE(handle.Wait().ValueOrDie().result.SameRows(oracle));
}

// ---------------------------------------------------------------------------
// Concurrency smoke: many queries through few slots, all oracle-correct.
// ---------------------------------------------------------------------------

TEST(SchedulerTest, ManyConcurrentQueriesAllCorrect) {
  Engine::Config cfg;
  cfg.options = FastOptions();
  cfg.num_shards = 2;
  cfg.max_inflight_queries = 4;
  auto fleet = BuildFleet();
  auto oracle = protocol::ExecuteReference(*fleet, kAggSql).ValueOrDie();
  auto engine = Engine::Create(std::move(fleet), cfg).ValueOrDie();
  auto querier = MakeQuerier();

  protocol::SAggProtocol s_agg;
  std::vector<QueryHandle> handles;
  for (uint64_t id = 1; id <= 12; ++id) {
    handles.push_back(
        engine->Submit(s_agg, querier, id, kAggSql).ValueOrDie());
  }
  for (auto& h : handles) {
    EXPECT_TRUE(h.Wait().ValueOrDie().result.SameRows(oracle));
  }
  for (size_t i = 0; i < engine->num_shards(); ++i) {
    EXPECT_EQ(engine->shard_node(i)->num_active_queries(), 0u);
  }
}

}  // namespace
}  // namespace tcells
