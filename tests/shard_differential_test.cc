// Differential harness for the sharded SSI: the engine's determinism
// contract says a query's result is bit-identical whether it runs alone or
// alongside other queries, at any shard count and thread count, on loopback
// or TCP.
//
// Within one shard count everything observable must match exactly — result
// rows, cost-accountant tallies, simulated phase times and the adversary
// view down to its encoded bytes. Across shard counts the router merges the
// per-shard adversary views by concatenating blob sizes in shard order, so
// that one field is compared as a multiset; collection order itself is
// reconstructed exactly from the upload log, so results and metrics stay
// bit-identical at any shard count.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "protocol/protocols.h"
#include "protocol/reference.h"
#include "tcells/engine.h"
#include "tds/access_control.h"
#include "workload/generic.h"

namespace tcells::protocol {
namespace {

using storage::Tuple;
using storage::Value;

constexpr size_t kNumTds = 24;
constexpr size_t kNumGroups = 4;

const char* QueryFor(ProtocolKind kind) {
  return kind == ProtocolKind::kBasicSfw
             ? "SELECT grp, val, cat FROM T WHERE cat < 6"
             : "SELECT grp, COUNT(*), SUM(cat), AVG(val), MIN(val), "
               "MAX(val) FROM T GROUP BY grp";
}

struct World {
  std::unique_ptr<Fleet> fleet;
  std::unique_ptr<Querier> querier;
  std::shared_ptr<std::vector<Tuple>> domain;
  std::map<Tuple, uint64_t> freq;
};

World MakeWorld(uint64_t seed = 0) {
  workload::GenericOptions gopts;
  gopts.num_tds = kNumTds;
  gopts.num_groups = kNumGroups;
  gopts.group_skew = 0.8;
  gopts.rows_per_tds = 2;
  gopts.seed = 4000 + seed;

  auto keys = crypto::KeyStore::CreateForTest(2027);
  auto authority = std::make_shared<tds::Authority>(Bytes(16, 0x55));
  World w;
  w.fleet = workload::BuildGenericFleet(gopts, keys, authority,
                                        tds::AccessPolicy::AllowAll())
                .ValueOrDie();
  w.querier =
      std::make_unique<Querier>("diff", authority->Issue("diff"), keys);

  w.domain = std::make_shared<std::vector<Tuple>>();
  for (size_t g = 0; g < kNumGroups; ++g) {
    w.domain->push_back(Tuple({Value::String(workload::GroupName(g))}));
  }
  const auto& catalog = w.fleet->at(0)->db().catalog();
  auto count_q =
      sql::AnalyzeSql("SELECT grp, COUNT(*) FROM T GROUP BY grp", catalog)
          .ValueOrDie();
  for (size_t i = 0; i < w.fleet->size(); ++i) {
    auto rows =
        sql::CollectionTuples(w.fleet->at(i)->db(), count_q).ValueOrDie();
    for (const auto& r : rows) w.freq[Tuple({r.at(0)})] += 1;
  }
  return w;
}

std::unique_ptr<Protocol> MakeProtocol(ProtocolKind kind, const World& w) {
  switch (kind) {
    case ProtocolKind::kBasicSfw: return std::make_unique<BasicSfwProtocol>();
    case ProtocolKind::kSAgg: return std::make_unique<SAggProtocol>();
    case ProtocolKind::kRnfNoise:
      return std::make_unique<NoiseProtocol>(false, w.domain);
    case ProtocolKind::kCNoise:
      return std::make_unique<NoiseProtocol>(true, w.domain);
    case ProtocolKind::kEdHist:
      return EdHistProtocol::FromDistribution(w.freq, 2);
  }
  return nullptr;
}

struct RunConfig {
  size_t num_shards = 1;
  size_t num_threads = 1;
  net::TransportKind transport = net::TransportKind::kLoopback;
  /// Decoy queries submitted alongside the probe (0 = the probe runs alone).
  size_t concurrent_decoys = 0;
};

/// Runs the probe query (id 1, the engine's default seed) under `rc` in a
/// fresh world and returns its outcome. With decoys, the probe shares the
/// engine's sharded stack and scheduler slots with `concurrent_decoys` other
/// queries of the same shape — none of which may perturb its bits.
RunOutcome RunProbe(ProtocolKind kind, const RunConfig& rc) {
  World w = MakeWorld();
  auto protocol = MakeProtocol(kind, w);

  Engine::Config cfg;
  cfg.options.compute_availability = 0.25;
  cfg.options.expected_groups = kNumGroups;
  cfg.options.seed = 11;
  cfg.options.num_threads = rc.num_threads;
  cfg.num_shards = rc.num_shards;
  cfg.max_inflight_queries = std::max<size_t>(4, rc.concurrent_decoys + 1);
  cfg.transport = rc.transport;
  auto engine = Engine::Create(std::move(w.fleet), cfg).ValueOrDie();

  std::vector<QueryHandle> decoys;
  auto decoy_protocol = MakeProtocol(kind, w);
  for (size_t d = 0; d < rc.concurrent_decoys; ++d) {
    decoys.push_back(engine
                         ->Submit(*decoy_protocol, *w.querier, 100 + d,
                                  QueryFor(kind))
                         .ValueOrDie());
  }
  QueryHandle probe =
      engine->Submit(*protocol, *w.querier, 1, QueryFor(kind)).ValueOrDie();
  RunOutcome outcome = probe.Wait().ValueOrDie();
  for (auto& h : decoys) EXPECT_TRUE(h.Wait().ok());
  return outcome;
}

void ExpectMetricsIdentical(const RunOutcome& a, const RunOutcome& b) {
  EXPECT_EQ(a.result.ToString(), b.result.ToString());
  const auto& ma = a.metrics;
  const auto& mb = b.metrics;
  for (auto phase : {sim::Phase::kCollection, sim::Phase::kAggregation,
                     sim::Phase::kFiltering}) {
    SCOPED_TRACE("phase=" + std::to_string(static_cast<int>(phase)));
    const auto& ta = ma.accountant.phase(phase);
    const auto& tb = mb.accountant.phase(phase);
    EXPECT_EQ(ta.bytes_uploaded, tb.bytes_uploaded);
    EXPECT_EQ(ta.bytes_downloaded, tb.bytes_downloaded);
    EXPECT_EQ(ta.tuples_processed, tb.tuples_processed);
    EXPECT_EQ(ta.partitions, tb.partitions);
    EXPECT_EQ(ta.iterations, tb.iterations);
    EXPECT_EQ(ta.dropouts, tb.dropouts);
  }
  EXPECT_EQ(ma.accountant.TotalBytes(), mb.accountant.TotalBytes());
  EXPECT_EQ(ma.accountant.DistinctTds(), mb.accountant.DistinctTds());
  EXPECT_EQ(ma.times.aggregation_seconds, mb.times.aggregation_seconds);
  EXPECT_EQ(ma.times.filtering_seconds, mb.times.filtering_seconds);
  EXPECT_EQ(ma.aggregation_rounds, mb.aggregation_rounds);
  EXPECT_EQ(ma.collection_participants, mb.collection_participants);
  EXPECT_EQ(ma.partitions_lost, 0u);
  EXPECT_EQ(mb.partitions_lost, 0u);
}

/// Exact comparison, valid when both runs used the same shard count: the
/// merged adversary view must match down to its encoded bytes.
void ExpectIdenticalSameShardCount(const RunOutcome& a, const RunOutcome& b) {
  ExpectMetricsIdentical(a, b);
  Bytes ea, eb;
  a.adversary.EncodeTo(&ea);
  b.adversary.EncodeTo(&eb);
  EXPECT_EQ(ea, eb);
}

/// Cross-shard-count comparison: blob sizes are concatenated in shard order
/// by the router, so only their multiset is invariant; everything else must
/// still match exactly.
void ExpectIdenticalAcrossShardCounts(const RunOutcome& a,
                                      const RunOutcome& b) {
  ExpectMetricsIdentical(a, b);
  const auto& va = a.adversary;
  const auto& vb = b.adversary;
  EXPECT_EQ(va.collection_tag_histogram, vb.collection_tag_histogram);
  EXPECT_EQ(va.aggregation_tag_histogram, vb.aggregation_tag_histogram);
  EXPECT_EQ(va.collection_items, vb.collection_items);
  EXPECT_EQ(va.aggregation_items, vb.aggregation_items);
  EXPECT_EQ(va.filtering_items, vb.filtering_items);
  auto sa = va.collection_blob_sizes;
  auto sb = vb.collection_blob_sizes;
  std::sort(sa.begin(), sa.end());
  std::sort(sb.begin(), sb.end());
  EXPECT_EQ(sa, sb);
}

class ShardDifferentialTest : public ::testing::TestWithParam<ProtocolKind> {};

// Shard grid {1,2,4}: every protocol's solo run is bit-identical at any
// shard count, and correct against the plaintext oracle.
TEST_P(ShardDifferentialTest, ShardCountIsInvisible) {
  ProtocolKind kind = GetParam();
  RunConfig base;
  RunOutcome one_shard = RunProbe(kind, base);

  World oracle_world = MakeWorld();
  auto oracle =
      ExecuteReference(*oracle_world.fleet, QueryFor(kind)).ValueOrDie();
  EXPECT_TRUE(one_shard.result.SameRows(oracle))
      << "got:\n" << one_shard.result.ToString()
      << "want:\n" << oracle.ToString();

  for (size_t shards : {2u, 4u}) {
    SCOPED_TRACE(std::string(ProtocolKindToString(kind)) + " shards=" +
                 std::to_string(shards));
    RunConfig rc;
    rc.num_shards = shards;
    ExpectIdenticalAcrossShardCounts(one_shard, RunProbe(kind, rc));
  }
}

// Alone vs concurrent: the probe's bits must not change when other queries
// share the engine's shards and scheduler slots — at every shard count.
TEST_P(ShardDifferentialTest, ConcurrentLoadIsInvisible) {
  ProtocolKind kind = GetParam();
  for (size_t shards : {1u, 2u, 4u}) {
    SCOPED_TRACE(std::string(ProtocolKindToString(kind)) + " shards=" +
                 std::to_string(shards));
    RunConfig alone;
    alone.num_shards = shards;
    RunConfig crowded = alone;
    crowded.concurrent_decoys = 7;
    ExpectIdenticalSameShardCount(RunProbe(kind, alone),
                                  RunProbe(kind, crowded));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, ShardDifferentialTest,
    ::testing::Values(ProtocolKind::kBasicSfw, ProtocolKind::kSAgg,
                      ProtocolKind::kRnfNoise, ProtocolKind::kCNoise,
                      ProtocolKind::kEdHist),
    [](const auto& info) {
      return std::string(ProtocolKindToString(info.param));
    });

// Thread counts compose with sharding: at a fixed shard count, the worker
// fan-out must stay invisible (per-partition rng streams, not scheduling).
TEST(ShardThreadGridTest, ThreadCountIsInvisibleAtEveryShardCount) {
  for (size_t shards : {1u, 2u, 4u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    RunConfig serial;
    serial.num_shards = shards;
    serial.num_threads = 1;
    RunConfig fanned = serial;
    fanned.num_threads = 4;
    ExpectIdenticalSameShardCount(RunProbe(ProtocolKind::kSAgg, serial),
                                  RunProbe(ProtocolKind::kSAgg, fanned));
  }
}

// TCP arm: a sharded engine over real sockets (one server per shard) is
// bit-identical to the loopback one, alone and under concurrent load.
TEST(ShardTransportTest, TcpShardsMatchLoopbackShards) {
  for (ProtocolKind kind : {ProtocolKind::kSAgg, ProtocolKind::kEdHist}) {
    SCOPED_TRACE(ProtocolKindToString(kind));
    RunConfig loopback;
    loopback.num_shards = 2;
    RunConfig tcp = loopback;
    tcp.transport = net::TransportKind::kTcp;
    ExpectIdenticalSameShardCount(RunProbe(kind, loopback),
                                  RunProbe(kind, tcp));

    RunConfig tcp_crowded = tcp;
    tcp_crowded.concurrent_decoys = 3;
    ExpectIdenticalSameShardCount(RunProbe(kind, loopback),
                                  RunProbe(kind, tcp_crowded));
  }
}

// The SIZE bound is coordinated globally by the router. Single-node
// semantics admit whole uploads (the upload crossing the bound is accepted
// in full, so 2-row TDSs may overshoot by one item); the sharded engine must
// reproduce that cutoff exactly at any shard count.
TEST(ShardSizeBoundTest, GlobalSizeBoundHoldsAcrossShardCounts) {
  uint64_t single_node_items = 0;
  for (size_t shards : {1u, 2u, 4u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    World w = MakeWorld();
    Engine::Config cfg;
    cfg.options.compute_availability = 0.25;
    cfg.options.expected_groups = kNumGroups;
    cfg.options.seed = 9;
    cfg.num_shards = shards;
    auto engine = Engine::Create(std::move(w.fleet), cfg).ValueOrDie();
    SAggProtocol s_agg;
    auto outcome =
        engine
            ->Run(s_agg, *w.querier, 1,
                  "SELECT grp, COUNT(*) FROM T GROUP BY grp SIZE 13")
            .ValueOrDie();
    // At or just past the bound (whole-upload granularity, 2 rows per TDS)…
    EXPECT_GE(outcome.adversary.collection_items, 13u);
    EXPECT_LE(outcome.adversary.collection_items, 14u);
    // …and bit-identical to the single-node cutoff.
    if (shards == 1) {
      single_node_items = outcome.adversary.collection_items;
    } else {
      EXPECT_EQ(outcome.adversary.collection_items, single_node_items);
    }
  }
}

}  // namespace
}  // namespace tcells::protocol
