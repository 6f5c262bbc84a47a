// Telemetry subsystem tests: metrics instruments, span trees, exporters —
// and the engine-level contracts:
//   (a) the span tree's per-phase partition/byte totals and the engine.*
//       counters restate the CostAccountant tallies they are derived from,
//       for end-to-end runs of all five protocols;
//   (b) the exported trace is byte-identical across worker-thread counts.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <map>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "protocol/discovery.h"
#include "protocol/reference.h"
#include "tcells/engine.h"
#include "tds/access_control.h"
#include "workload/generic.h"

namespace tcells {
namespace {

// ---------------------------------------------------------------------------
// Instruments

TEST(MetricsTest, CounterAccumulates) {
  obs::MetricsRegistry registry;
  registry.counter("a").Increment();
  registry.counter("a").Add(4);
  registry.counter("b").Add(2);
  EXPECT_EQ(registry.counter("a").value(), 5u);
  EXPECT_EQ(registry.counter("b").value(), 2u);
}

TEST(MetricsTest, HistogramBucketsAndStats) {
  obs::Histogram h({1.0, 10.0, 100.0});
  h.Record(0.5);    // <= 1
  h.Record(1.0);    // <= 1 (inclusive upper bound)
  h.Record(7.0);    // <= 10
  h.Record(1000.0); // overflow
  auto snap = h.snapshot();
  ASSERT_EQ(snap.counts.size(), 4u);
  EXPECT_EQ(snap.counts[0], 2u);
  EXPECT_EQ(snap.counts[1], 1u);
  EXPECT_EQ(snap.counts[2], 0u);
  EXPECT_EQ(snap.counts[3], 1u);
  EXPECT_EQ(snap.count, 4u);
  EXPECT_DOUBLE_EQ(snap.min, 0.5);
  EXPECT_DOUBLE_EQ(snap.max, 1000.0);
  EXPECT_DOUBLE_EQ(snap.sum, 1008.5);
}

TEST(MetricsTest, ExponentialBounds) {
  auto bounds = obs::Histogram::ExponentialBounds(1.0, 2.0, 4);
  ASSERT_EQ(bounds.size(), 4u);
  EXPECT_DOUBLE_EQ(bounds[3], 8.0);
}

TEST(MetricsTest, FormatDoubleRoundTripsAndIsShort) {
  EXPECT_EQ(obs::FormatDouble(0.1), "0.1");
  EXPECT_EQ(obs::FormatDouble(42), "42");
  EXPECT_EQ(obs::FormatDouble(0), "0");
  // A value needing full precision still round-trips.
  double v = 1.0 / 3.0;
  EXPECT_EQ(std::strtod(obs::FormatDouble(v).c_str(), nullptr), v);
}

TEST(MetricsTest, JsonAndCsvExports) {
  obs::MetricsRegistry registry;
  registry.counter("q.partitions").Add(3);
  registry.histogram("lat", {1.0, 2.0}).Record(1.5);
  std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"q.partitions\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"lat\""), std::string::npos);
  EXPECT_NE(json.find("\"buckets\""), std::string::npos);
  std::string csv = registry.ToCsv();
  EXPECT_NE(csv.find("counter,q.partitions,value,3"), std::string::npos);
  EXPECT_NE(csv.find("histogram,lat,le_2,1"), std::string::npos);
  EXPECT_NE(csv.find("histogram,lat,le_inf,0"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Span trees

TEST(TraceTest, SpanTreeStructureAndSums) {
  obs::Trace trace(7);
  obs::Span* a = trace.StartSpan(nullptr, "round");
  a->counts["bytes"] = 10;
  obs::Span* b = trace.StartSpan(nullptr, "round");
  b->counts["bytes"] = 32;
  obs::Span* child = trace.StartSpan(a, "inner");
  child->counts["bytes"] = 1;
  EXPECT_EQ(trace.SumCount("round", "bytes"), 42u);
  EXPECT_EQ(trace.CountSpans("round"), 2u);
  EXPECT_EQ(trace.CountSpans("inner"), 1u);
  // Pre-order traversal, ids in creation order, parent links correct.
  std::vector<uint64_t> ids;
  trace.ForEach([&](const obs::Span& s, int) { ids.push_back(s.id); });
  EXPECT_EQ(ids, (std::vector<uint64_t>{1, 2, 4, 3}));
  EXPECT_EQ(child->parent_id, a->id);
}

TEST(TraceTest, WallTimeExcludedFromExportByDefault) {
  obs::Trace trace(1);
  obs::Span* s = trace.StartSpan(nullptr, "round");
  s->wall_micros = 123.5;
  EXPECT_EQ(trace.ToJson().find("wall_micros"), std::string::npos);
  EXPECT_EQ(trace.ToCsv().find("wall_micros"), std::string::npos);
  obs::TraceExportOptions with_wall;
  with_wall.include_wall_time = true;
  EXPECT_NE(trace.ToJson(with_wall).find("wall_micros"), std::string::npos);
  EXPECT_NE(trace.ToCsv(with_wall).find("wall_micros"), std::string::npos);
}

TEST(TraceTest, TracerKeepsLatestPerQueryId) {
  obs::Tracer tracer;
  auto first = tracer.StartTrace(9);
  auto second = tracer.StartTrace(9);
  EXPECT_EQ(tracer.size(), 2u);
  EXPECT_EQ(tracer.TraceFor(9).get(), second.get());
  EXPECT_EQ(tracer.TraceFor(1), nullptr);
  (void)first;
}

// ---------------------------------------------------------------------------
// Engine-level contracts

struct ObsWorld {
  ObsWorld() : ObsWorld(Engine::Config()) {}
  explicit ObsWorld(Engine::Config config) {
    keys = crypto::KeyStore::CreateForTest(91);
    authority = std::make_shared<tds::Authority>(Bytes(16, 0x31));
    workload::GenericOptions gopts;
    gopts.num_tds = 80;
    gopts.num_groups = 4;
    auto fleet = workload::BuildGenericFleet(gopts, keys, authority,
                                             tds::AccessPolicy::AllowAll())
                     .ValueOrDie();
    config.options.compute_availability = 0.2;
    config.options.expected_groups = 4;
    engine = Engine::Create(std::move(fleet), config).ValueOrDie();
    querier = std::make_unique<protocol::Querier>("obs",
                                                  authority->Issue("obs"),
                                                  keys);
  }

  std::shared_ptr<const crypto::KeyStore> keys;
  std::shared_ptr<tds::Authority> authority;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<protocol::Querier> querier;
};

constexpr char kAggSql[] = "SELECT grp, COUNT(*), AVG(val) FROM T GROUP BY grp";
constexpr char kSfwSql[] = "SELECT grp, cat FROM T WHERE cat < 4";

/// Runs one protocol kind end to end through the Engine (discovery for the
/// kinds that need prior knowledge) and returns the outcome.
protocol::RunOutcome RunKind(ObsWorld& w, protocol::ProtocolKind kind,
                             uint64_t query_id) {
  const bool aggregation = kind != protocol::ProtocolKind::kBasicSfw;
  protocol::ProtocolInputs inputs;
  if (kind != protocol::ProtocolKind::kBasicSfw &&
      kind != protocol::ProtocolKind::kSAgg) {
    inputs = w.engine->DiscoverInputs(*w.querier, 1000 + query_id, kAggSql)
                 .ValueOrDie();
  }
  auto protocol = protocol::MakeProtocol(kind, inputs).ValueOrDie();
  return w.engine
      ->Run(*protocol, *w.querier, query_id, aggregation ? kAggSql : kSfwSql)
      .ValueOrDie();
}

/// The span tree's totals must equal the CostAccountant's, phase by phase:
/// every span count is written from the accountant, so a span that restated
/// some other tally would show up here.
void CheckTraceAgainstAccountant(const protocol::RunOutcome& outcome) {
  ASSERT_NE(outcome.trace, nullptr);
  const obs::Trace& trace = *outcome.trace;
  for (const auto& [span, phase] :
       {std::pair{obs::kSpanCollection, sim::Phase::kCollection},
        std::pair{obs::kSpanAggregationRound, sim::Phase::kAggregation},
        std::pair{obs::kSpanFilteringRound, sim::Phase::kFiltering}}) {
    SCOPED_TRACE(span);
    const sim::PhaseTally& t = outcome.metrics.accountant.phase(phase);
    EXPECT_EQ(trace.SumCount(span, "partitions"), t.partitions);
    EXPECT_EQ(trace.SumCount(span, "bytes_in"), t.bytes_downloaded);
    EXPECT_EQ(trace.SumCount(span, "bytes_out"), t.bytes_uploaded);
    EXPECT_EQ(trace.SumCount(span, "tuples"), t.tuples_processed);
    EXPECT_EQ(trace.SumCount(span, "dropouts"), t.dropouts);
    if (phase != sim::Phase::kCollection) {
      EXPECT_EQ(trace.CountSpans(span), t.iterations);
    }
  }
}

TEST(ObsEngineTest, DiscoveredInputsMatchOracleAtShardCounts) {
  for (size_t shards : {1u, 2u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    Engine::Config config;
    config.num_shards = shards;
    ObsWorld w(config);
    const auto expected =
        protocol::ExecuteReference(w.engine->fleet(), kAggSql).ValueOrDie();
    uint64_t query_id = 40;
    for (protocol::ProtocolKind kind : {protocol::ProtocolKind::kRnfNoise,
                                        protocol::ProtocolKind::kCNoise,
                                        protocol::ProtocolKind::kEdHist}) {
      SCOPED_TRACE(protocol::ProtocolKindToString(kind));
      protocol::RunOutcome outcome = RunKind(w, kind, query_id);
      EXPECT_TRUE(outcome.result.SameRows(expected));
      CheckTraceAgainstAccountant(outcome);
      // The discovery query RunKind ran first left its own S_Agg trace.
      auto discovery = w.engine->TraceFor(1000 + query_id);
      ASSERT_NE(discovery, nullptr);
      EXPECT_EQ(discovery->root()->labels.at("protocol"),
                std::string("S_Agg"));
      ++query_id;
    }
  }
}

TEST(ObsEngineTest, RootSpanCarriesProtocolTags) {
  ObsWorld w;
  protocol::RunOutcome outcome =
      RunKind(w, protocol::ProtocolKind::kRnfNoise, 4);
  const obs::Span* root = outcome.trace->root();
  EXPECT_EQ(root->name, obs::kSpanQuery);
  EXPECT_EQ(root->labels.at("protocol"), std::string("Rnf_Noise"));
  // nf fakes per true tuple -> expected fake ratio nf/(nf+1).
  ASSERT_TRUE(root->counts.count("nf"));
  uint64_t nf = root->counts.at("nf");
  EXPECT_DOUBLE_EQ(root->values.at("expected_fake_ratio"),
                   static_cast<double>(nf) / static_cast<double>(nf + 1));
  EXPECT_GT(root->counts.at("group_domain_size"), 0u);
  EXPECT_GT(root->sim_end_seconds, 0.0);
}

/// The engine.* counters of `registry`, by name.
std::map<std::string, uint64_t> EngineCounters(
    const obs::MetricsRegistry& registry) {
  std::map<std::string, uint64_t> out;
  for (const auto& [name, value] : registry.snapshot().counters) {
    if (name.rfind("engine.", 0) == 0) out[name] = value;
  }
  return out;
}

/// Checks a completed query's span tree against its accountant and adds
/// what its engine.* counters must contribute — each a view of its
/// RunMetrics — to `sums`.
void AddCompleted(const protocol::RunOutcome& outcome,
                  std::map<std::string, uint64_t>* sums) {
  CheckTraceAgainstAccountant(outcome);
  const protocol::RunMetrics& m = outcome.metrics;
  const auto& coll = m.accountant.phase(sim::Phase::kCollection);
  const auto& agg = m.accountant.phase(sim::Phase::kAggregation);
  const auto& filt = m.accountant.phase(sim::Phase::kFiltering);
  const uint64_t up =
      coll.bytes_uploaded + agg.bytes_uploaded + filt.bytes_uploaded;
  for (const auto& [name, value] : std::map<std::string, uint64_t>{
           {"queries_completed", 1},
           {"collection_contributions", m.collection_participants},
           {"rounds", m.aggregation_rounds + filt.iterations},
           {"partitions", agg.partitions + filt.partitions},
           {"bytes_uploaded", up},
           {"bytes_downloaded", m.LoadBytes() - up},
           {"tuples_processed", coll.tuples_processed + m.QueryPathTuples()},
           {"dropout_redispatches", agg.dropouts + filt.dropouts},
           {"partitions_lost", m.partitions_lost},
           {"partitions_tampered", m.partitions_tampered}}) {
    (*sums)["engine." + name] += value;
  }
}

/// S_Agg that raises `cancel` once its aggregation rounds have run, so the
/// query stops at the filtering round's edge.
struct CancelAfterAggregation : protocol::SAggProtocol {
  std::atomic<bool>* cancel = nullptr;
  Result<std::vector<ssi::EncryptedItem>> RunAggregation(
      protocol::RunContext& ctx, const sql::AnalyzedQuery& query,
      const tds::CollectionConfig& config,
      std::vector<ssi::EncryptedItem> items) override {
    auto out =
        SAggProtocol::RunAggregation(ctx, query, config, std::move(items));
    cancel->store(true);
    return out;
  }
};

/// (a) Every span sum restates the accountant, and every engine.* counter
/// is the sum of the completed queries' RunMetrics — over all five
/// protocols, a dropout run and two concurrent queries on one engine. A
/// query cancelled after its aggregation rounds adds nothing.
TEST(ObsEngineTest, MetricsRegistryAgreesWithAccountant) {
  ObsWorld w;
  // Inputs from the oracle: no discovery query runs unseen by this test.
  const auto inputs =
      protocol::InputsFromDiscovery(
          protocol::ExecuteReference(
              w.engine->fleet(), protocol::DiscoverySql(kAggSql).ValueOrDie())
              .ValueOrDie())
          .ValueOrDie();
  std::map<std::string, uint64_t> sums;
  uint64_t query_id = 1;
  for (protocol::ProtocolKind kind :
       {protocol::ProtocolKind::kBasicSfw, protocol::ProtocolKind::kSAgg,
        protocol::ProtocolKind::kRnfNoise, protocol::ProtocolKind::kCNoise,
        protocol::ProtocolKind::kEdHist}) {
    SCOPED_TRACE(protocol::ProtocolKindToString(kind));
    auto protocol = protocol::MakeProtocol(kind, inputs).ValueOrDie();
    const char* sql =
        kind == protocol::ProtocolKind::kBasicSfw ? kSfwSql : kAggSql;
    AddCompleted(w.engine->Run(*protocol, *w.querier, query_id, sql)
                     .ValueOrDie(),
                 &sums);
    // The engine also kept the trace addressable by query id.
    EXPECT_NE(w.engine->TraceFor(query_id++), nullptr);
  }

  protocol::SAggProtocol s_agg;
  protocol::RunOptions dropouts = w.engine->options();
  dropouts.dropout_rate = 0.15;
  auto dropped =
      w.engine->Run(s_agg, *w.querier, query_id++, kAggSql, dropouts)
          .ValueOrDie();
  const auto& agg = dropped.metrics.accountant.phase(sim::Phase::kAggregation);
  EXPECT_GT(agg.dropouts, 0u);
  AddCompleted(dropped, &sums);

  // Two queries in flight at once, traced independently.
  protocol::BasicSfwProtocol basic;
  std::map<uint64_t, protocol::RunOutcome> outcomes;
  {
    QueryHandle agg_handle =
        w.engine->Submit(s_agg, *w.querier, 21, kAggSql).ValueOrDie();
    QueryHandle sfw_handle =
        w.engine->Submit(basic, *w.querier, 22, kSfwSql).ValueOrDie();
    outcomes.emplace(21, agg_handle.Wait().ValueOrDie());
    outcomes.emplace(22, sfw_handle.Wait().ValueOrDie());
  }
  for (const auto& [id, outcome] : outcomes) {
    EXPECT_EQ(outcome.trace->query_id(), id);
    AddCompleted(outcome, &sums);
  }
  // Basic_SFW has no aggregation phase; its trace must say so too.
  EXPECT_EQ(outcomes.at(22).trace->CountSpans(obs::kSpanAggregationRound),
            0u);
  EXPECT_EQ(outcomes.at(21).trace->CountSpans(obs::kSpanDecrypt), 1u);

  EXPECT_EQ(sums.at("engine.queries_completed"), 8u);
  EXPECT_EQ(EngineCounters(w.engine->metrics()), sums);

  // Its aggregation rounds run, then it is cancelled: engine.rounds and
  // every other engine.* counter stay put.
  // It runs on a session built directly over the engine's SSI, whose options
  // carry the flag the protocol raises.
  std::atomic<bool> cancel{false};
  CancelAfterAggregation cancelling;
  cancelling.cancel = &cancel;
  protocol::RunOptions cancellable = w.engine->options();
  cancellable.cancel = &cancel;
  protocol::QuerySession doomed(&w.engine->fleet(), w.engine->device(),
                                cancellable, w.engine->telemetry(),
                                w.engine->ssi_client());
  ASSERT_TRUE(doomed.Submit(23, w.querier.get(), &cancelling, kAggSql).ok());
  EXPECT_TRUE(doomed.RunAll().status().IsCancelled());
  EXPECT_EQ(EngineCounters(w.engine->metrics()), sums);
}

/// (b) The exported trace must be byte-identical for any worker-thread
/// count: spans are only written from the engine's serial sections, and the
/// default export omits wall times.
TEST(ObsEngineTest, TraceExportsIdenticalAcrossThreadCounts) {
  std::string baseline_json, baseline_csv;
  for (size_t threads : {1u, 2u, 8u}) {
    Engine::Config config;
    config.options.num_threads = threads;
    config.options.dropout_rate = 0.1;
    config.options.seed = 29;
    ObsWorld w(config);
    protocol::RunOutcome outcome =
        RunKind(w, protocol::ProtocolKind::kSAgg, 6);
    ASSERT_NE(outcome.trace, nullptr);
    std::string json = outcome.trace->ToJson();
    std::string csv = outcome.trace->ToCsv();
    if (threads == 1) {
      baseline_json = json;
      baseline_csv = csv;
      continue;
    }
    EXPECT_EQ(json, baseline_json) << "threads=" << threads;
    EXPECT_EQ(csv, baseline_csv) << "threads=" << threads;
  }
}

TEST(ObsEngineTest, TracingOffYieldsNoTraces) {
  Engine::Config config;
  config.tracing = false;
  ObsWorld w(config);
  protocol::RunOutcome outcome = RunKind(w, protocol::ProtocolKind::kSAgg, 8);
  EXPECT_EQ(outcome.trace, nullptr);
  EXPECT_EQ(w.engine->tracer().size(), 0u);
  // Metrics still accumulate.
  EXPECT_GT(EngineCounters(w.engine->metrics()).at("engine.partitions"), 0u);
}

// The keys.* counters over a rollover-in-flight run and a later revocation.
// A one-pass S_Agg serves every TDS in tick 0, so the counts are exact.
TEST(ObsEngineTest, KeyCountersTrackRefreshesRolloversAndRevocations) {
  Engine::Config config;
  config.key_mode = KeyMode::kDynamic;
  auto engine_cell = std::make_shared<Engine*>(nullptr);
  auto rolled = std::make_shared<bool>(false);
  config.options.tick_hook = [engine_cell, rolled](uint64_t tick) {
    if (tick == 0 && !*rolled && *engine_cell != nullptr) {
      *rolled = true;
      ASSERT_TRUE((*engine_cell)->RolloverEpoch().ok());
    }
  };
  ObsWorld w(config);
  *engine_cell = w.engine.get();
  const uint64_t n = w.engine->fleet().size();
  obs::MetricsRegistry& m = w.engine->metrics();
  auto counter = [&](const char* name) { return m.counter(name).value(); };

  // Bring-up primes every TDS with the epoch-0 block.
  EXPECT_EQ(counter("keys.blocks_fetched"), n);
  EXPECT_EQ(counter("keys.blocks_adopted"), n);
  EXPECT_EQ(counter("keys.blocks_refused"), 0u);

  // The query is posted under epoch 0 and the epoch rolls at tick 0: every
  // TDS serves from its epoch-0 window, then adopts epoch 1 right before it
  // tags, so nothing is rejected.
  protocol::RunOutcome rolled_run =
      RunKind(w, protocol::ProtocolKind::kSAgg, 1);
  EXPECT_EQ(rolled_run.metrics.contributions_rejected, 0u);
  EXPECT_EQ(counter("keys.rollovers"), 1u);
  EXPECT_EQ(counter("keys.blocks_fetched"), 2 * n);
  EXPECT_EQ(counter("keys.blocks_adopted"), 2 * n);
  EXPECT_EQ(counter("keys.blocks_refused"), 0u);

  // A revocation before the next post (epoch 2): every TDS lacks the epoch
  // and refreshes before serving; the revoked one refuses the block and is
  // skipped, the others adopt it and refresh again (a no-op) before tagging.
  ASSERT_TRUE(w.engine->RevokeTds({w.engine->fleet().at(0)->id()}).ok());
  protocol::RunOutcome revoked_run =
      RunKind(w, protocol::ProtocolKind::kSAgg, 2);
  EXPECT_EQ(revoked_run.metrics.contributions_rejected, 0u);
  EXPECT_EQ(revoked_run.metrics.collection_participants, n - 1);
  EXPECT_EQ(counter("keys.revocations"), 1u);
  EXPECT_EQ(counter("keys.rollovers"), 1u);
  EXPECT_EQ(counter("keys.blocks_fetched"), 2 * n + n + (n - 1));
  EXPECT_EQ(counter("keys.blocks_adopted"), 2 * n + (n - 1));
  EXPECT_EQ(counter("keys.blocks_refused"), 1u);
}

// keys.blocks_current over the same three phases. Priming fetches every
// block whole, and so does the rolled run's pre-tag refresh, which meets the
// new epoch's block. After the revocation each of the n - 1 survivors
// refreshes twice, and the second (pre-tag) refresh finds the block it just
// adopted; the revoked TDS holds the old block's tag and is sent the new one.
TEST(ObsEngineTest, KeyCurrentCounterCountsRepliesWithoutABlock) {
  Engine::Config config;
  config.key_mode = KeyMode::kDynamic;
  auto engine_cell = std::make_shared<Engine*>(nullptr);
  auto rolled = std::make_shared<bool>(false);
  config.options.tick_hook = [engine_cell, rolled](uint64_t tick) {
    if (tick == 0 && !*rolled && *engine_cell != nullptr) {
      *rolled = true;
      ASSERT_TRUE((*engine_cell)->RolloverEpoch().ok());
    }
  };
  ObsWorld w(config);
  *engine_cell = w.engine.get();
  const uint64_t n = w.engine->fleet().size();
  obs::Counter& current = w.engine->metrics().counter("keys.blocks_current");

  EXPECT_EQ(current.value(), 0u);
  RunKind(w, protocol::ProtocolKind::kSAgg, 1);
  EXPECT_EQ(current.value(), 0u);
  ASSERT_TRUE(w.engine->RevokeTds({w.engine->fleet().at(0)->id()}).ok());
  RunKind(w, protocol::ProtocolKind::kSAgg, 2);
  EXPECT_EQ(current.value(), n - 1);
}

TEST(ObsEngineTest, EngineCreateValidatesOptions) {
  auto keys = crypto::KeyStore::CreateForTest(91);
  auto authority = std::make_shared<tds::Authority>(Bytes(16, 0x31));
  workload::GenericOptions gopts;
  gopts.num_tds = 4;
  auto fleet = workload::BuildGenericFleet(gopts, keys, authority,
                                           tds::AccessPolicy::AllowAll())
                   .ValueOrDie();
  Engine::Config config;
  config.options.alpha = 1.0;  // merge rounds would never shrink the set
  EXPECT_FALSE(Engine::Create(std::move(fleet), config).ok());
  EXPECT_FALSE(Engine::Create(nullptr).ok());
}

}  // namespace
}  // namespace tcells
