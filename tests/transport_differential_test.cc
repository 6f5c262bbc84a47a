// Differential loopback-vs-TCP harness for the transport layer.
//
// The transport contract mirrors the parallel engine's: which backend
// carries the SSI exchanges must be invisible to everything a run produces.
// Every protocol, executed once over the in-process loopback and once over a
// real TCP socket pair on identical seeds, must yield bit-identical
// RunOutcomes — result rows, cost-accountant tallies, simulated phase times
// and the SSI's adversary view. Wall-clock telemetry is the only thing
// allowed to differ. Any hidden dependence on call timing, frame
// chunking or codec lossiness shows up as a diff here.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/ssi_client.h"
#include "net/ssi_node.h"
#include "net/tcp.h"
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

/// Builds a fresh world and runs one query over the given transport. Worlds
/// are rebuilt per run so no state carries across the two arms; the TCP arm
/// additionally spins up a real server + socket per run.
RunOutcome RunOver(ProtocolKind kind, net::TransportKind transport_kind,
                   uint64_t seed, size_t batch_max_calls = 1,
                   size_t num_shards = 1) {
  workload::GenericOptions gopts;
  gopts.num_tds = kNumTds;
  gopts.num_groups = kNumGroups;
  gopts.group_skew = 0.8;
  gopts.rows_per_tds = 2;
  gopts.seed = 3000 + seed;

  auto keys = crypto::KeyStore::CreateForTest(2026);
  auto authority = std::make_shared<tds::Authority>(Bytes(16, 0x44));
  auto fleet = workload::BuildGenericFleet(gopts, keys, authority,
                                           tds::AccessPolicy::AllowAll())
                   .ValueOrDie();
  Querier querier("diff", authority->Issue("diff"), keys);

  auto domain = std::make_shared<std::vector<Tuple>>();
  std::map<Tuple, uint64_t> freq;
  for (size_t g = 0; g < kNumGroups; ++g) {
    domain->push_back(Tuple({Value::String(workload::GroupName(g))}));
  }
  const auto& catalog = fleet->at(0)->db().catalog();
  auto count_q =
      sql::AnalyzeSql("SELECT grp, COUNT(*) FROM T GROUP BY grp", catalog)
          .ValueOrDie();
  for (size_t i = 0; i < fleet->size(); ++i) {
    auto rows =
        sql::CollectionTuples(fleet->at(i)->db(), count_q).ValueOrDie();
    for (const auto& r : rows) freq[Tuple({r.at(0)})] += 1;
  }

  std::unique_ptr<Protocol> protocol;
  switch (kind) {
    case ProtocolKind::kBasicSfw:
      protocol = std::make_unique<BasicSfwProtocol>();
      break;
    case ProtocolKind::kSAgg:
      protocol = std::make_unique<SAggProtocol>();
      break;
    case ProtocolKind::kRnfNoise:
      protocol = std::make_unique<NoiseProtocol>(false, domain);
      break;
    case ProtocolKind::kCNoise:
      protocol = std::make_unique<NoiseProtocol>(true, domain);
      break;
    case ProtocolKind::kEdHist:
      protocol = EdHistProtocol::FromDistribution(freq, 2);
      break;
  }

  RunOptions opts;
  opts.compute_availability = 0.25;
  opts.expected_groups = kNumGroups;
  opts.seed = seed;
  opts.num_threads = 2;

  // The engine owns whichever stack the arm asks for: an in-process loopback
  // or a real TCP server + socket per shard.
  Engine::Config cfg;
  cfg.options = opts;
  cfg.transport = transport_kind;
  cfg.transport_batch_max_calls = batch_max_calls;
  cfg.num_shards = num_shards;
  auto engine = Engine::Create(std::move(fleet), cfg).ValueOrDie();
  return engine->Run(*protocol, querier, 1, QueryFor(kind)).ValueOrDie();
}

void ExpectPhaseTallyEq(const sim::PhaseTally& a, const sim::PhaseTally& b,
                        const char* phase) {
  EXPECT_EQ(a.bytes_uploaded, b.bytes_uploaded) << phase;
  EXPECT_EQ(a.bytes_downloaded, b.bytes_downloaded) << phase;
  EXPECT_EQ(a.tuples_processed, b.tuples_processed) << phase;
  EXPECT_EQ(a.partitions, b.partitions) << phase;
  EXPECT_EQ(a.iterations, b.iterations) << phase;
  EXPECT_EQ(a.dropouts, b.dropouts) << phase;
}

/// Bit-identical comparison of everything a run produces except wall-clock
/// telemetry. Doubles are exact: both arms perform the same arithmetic in
/// the same fold order, so even floating point must not drift.
void ExpectIdentical(const RunOutcome& loopback, const RunOutcome& tcp) {
  EXPECT_EQ(loopback.result.ToString(), tcp.result.ToString());
  ASSERT_EQ(loopback.result.rows.size(), tcp.result.rows.size());

  const auto& ma = loopback.metrics;
  const auto& mb = tcp.metrics;
  for (auto phase : {sim::Phase::kCollection, sim::Phase::kAggregation,
                     sim::Phase::kFiltering}) {
    ExpectPhaseTallyEq(ma.accountant.phase(phase), mb.accountant.phase(phase),
                       sim::PhaseToString(phase));
  }
  EXPECT_EQ(ma.accountant.TotalBytes(), mb.accountant.TotalBytes());
  EXPECT_EQ(ma.accountant.DistinctTds(), mb.accountant.DistinctTds());
  const auto& per_a = ma.accountant.per_tds();
  const auto& per_b = mb.accountant.per_tds();
  ASSERT_EQ(per_a.size(), per_b.size());
  for (auto it_a = per_a.begin(), it_b = per_b.begin(); it_a != per_a.end();
       ++it_a, ++it_b) {
    EXPECT_EQ(it_a->first, it_b->first);
    EXPECT_EQ(it_a->second.bytes_in, it_b->second.bytes_in);
    EXPECT_EQ(it_a->second.bytes_out, it_b->second.bytes_out);
    EXPECT_EQ(it_a->second.tuples, it_b->second.tuples);
    EXPECT_EQ(it_a->second.participations, it_b->second.participations);
  }

  EXPECT_EQ(ma.times.aggregation_seconds, mb.times.aggregation_seconds);
  EXPECT_EQ(ma.times.filtering_seconds, mb.times.filtering_seconds);
  EXPECT_EQ(ma.aggregation_rounds, mb.aggregation_rounds);
  EXPECT_EQ(ma.available_compute_tds, mb.available_compute_tds);
  EXPECT_EQ(ma.collection_ticks, mb.collection_ticks);
  EXPECT_EQ(ma.collection_participants, mb.collection_participants);
  // Neither arm may lose a partition on a healthy link.
  EXPECT_EQ(ma.partitions_lost, 0u);
  EXPECT_EQ(mb.partitions_lost, 0u);

  // The SSI's adversary view: the exact ciphertext population, in order.
  const auto& va = loopback.adversary;
  const auto& vb = tcp.adversary;
  EXPECT_EQ(va.collection_tag_histogram, vb.collection_tag_histogram);
  EXPECT_EQ(va.aggregation_tag_histogram, vb.aggregation_tag_histogram);
  EXPECT_EQ(va.collection_blob_sizes, vb.collection_blob_sizes);
  EXPECT_EQ(va.collection_items, vb.collection_items);
  EXPECT_EQ(va.aggregation_items, vb.aggregation_items);
  EXPECT_EQ(va.filtering_items, vb.filtering_items);
}

// ---------------------------------------------------------------------------
// The differential sweep: 5 protocols x 3 seeds, loopback vs TCP.

class TransportDifferentialTest
    : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(TransportDifferentialTest, LoopbackAndTcpRunsAreBitIdentical) {
  ProtocolKind kind = GetParam();
  for (uint64_t seed : {11u, 22u, 33u}) {
    RunOutcome loopback = RunOver(kind, net::TransportKind::kLoopback, seed);
    RunOutcome tcp = RunOver(kind, net::TransportKind::kTcp, seed);
    SCOPED_TRACE(std::string(ProtocolKindToString(kind)) + " seed " +
                 std::to_string(seed));
    ExpectIdentical(loopback, tcp);
  }
}

TEST_P(TransportDifferentialTest, TcpResultStillMatchesPlaintextOracle) {
  // Determinism alone could hide a bug present in both arms; anchor the TCP
  // run against the cleartext reference as well.
  ProtocolKind kind = GetParam();
  workload::GenericOptions gopts;
  gopts.num_tds = kNumTds;
  gopts.num_groups = kNumGroups;
  gopts.group_skew = 0.8;
  gopts.rows_per_tds = 2;
  gopts.seed = 3011;
  auto keys = crypto::KeyStore::CreateForTest(2026);
  auto authority = std::make_shared<tds::Authority>(Bytes(16, 0x44));
  auto fleet = workload::BuildGenericFleet(gopts, keys, authority,
                                           tds::AccessPolicy::AllowAll())
                   .ValueOrDie();
  auto expected = ExecuteReference(*fleet, QueryFor(kind)).ValueOrDie();
  RunOutcome tcp = RunOver(kind, net::TransportKind::kTcp, /*seed=*/11);
  EXPECT_TRUE(tcp.result.SameRows(expected))
      << "got:\n" << tcp.result.ToString()
      << "want:\n" << expected.ToString();
}

TEST_P(TransportDifferentialTest, BatchedRunsAreBitIdenticalToSerial) {
  // Multi-call frames may only change how many frames the calls take —
  // never anything a run produces. One serial-loopback baseline per seed, compared against
  // batching over both backends and over the sharded router.
  ProtocolKind kind = GetParam();
  for (uint64_t seed : {11u, 22u}) {
    SCOPED_TRACE(std::string(ProtocolKindToString(kind)) + " seed " +
                 std::to_string(seed));
    RunOutcome serial = RunOver(kind, net::TransportKind::kLoopback, seed);
    RunOutcome batched_loopback =
        RunOver(kind, net::TransportKind::kLoopback, seed,
                /*batch_max_calls=*/32);
    ExpectIdentical(serial, batched_loopback);
    RunOutcome batched_tcp = RunOver(kind, net::TransportKind::kTcp, seed,
                                     /*batch_max_calls=*/32);
    ExpectIdentical(serial, batched_tcp);
    // The sharded arms compare at equal shard count: the merged adversary
    // view is only order-comparable between runs with the same sharding.
    RunOutcome serial_sharded =
        RunOver(kind, net::TransportKind::kLoopback, seed,
                /*batch_max_calls=*/1, /*num_shards=*/4);
    RunOutcome batched_sharded =
        RunOver(kind, net::TransportKind::kLoopback, seed,
                /*batch_max_calls=*/32, /*num_shards=*/4);
    ExpectIdentical(serial_sharded, batched_sharded);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, TransportDifferentialTest,
    ::testing::Values(ProtocolKind::kBasicSfw, ProtocolKind::kSAgg,
                      ProtocolKind::kRnfNoise, ProtocolKind::kCNoise,
                      ProtocolKind::kEdHist),
    [](const auto& info) {
      return std::string(ProtocolKindToString(info.param));
    });

// ---------------------------------------------------------------------------
// Determinism must survive the dropout model over a real socket too: the
// injected-dropout schedule is drawn from per-partition rng streams, not
// from transport timing.

TEST(TransportDifferentialDropoutTest, ChurnIsTransportIndependent) {
  auto run = [](net::TransportKind transport_kind) {
    // Same world as ParallelDifferentialDropoutTest: 48 TDSs at 25%
    // availability with a 20% per-attempt dropout rate yields a non-empty
    // dropout schedule on seed 5.
    workload::GenericOptions gopts;
    gopts.num_tds = 48;
    gopts.num_groups = kNumGroups;
    gopts.group_skew = 0.8;
    gopts.rows_per_tds = 2;
    gopts.seed = 1005;
    auto keys = crypto::KeyStore::CreateForTest(2026);
    auto authority = std::make_shared<tds::Authority>(Bytes(16, 0x44));
    auto fleet = workload::BuildGenericFleet(gopts, keys, authority,
                                             tds::AccessPolicy::AllowAll())
                     .ValueOrDie();
    Querier querier("diff", authority->Issue("diff"), keys);
    SAggProtocol protocol;
    RunOptions opts;
    opts.compute_availability = 0.25;
    opts.expected_groups = kNumGroups;
    opts.seed = 5;
    opts.dropout_rate = 0.2;

    Engine::Config cfg;
    cfg.options = opts;
    cfg.transport = transport_kind;
    auto engine = Engine::Create(std::move(fleet), cfg).ValueOrDie();
    return engine->Run(protocol, querier, 1, QueryFor(ProtocolKind::kSAgg))
        .ValueOrDie();
  };
  RunOutcome loopback = run(net::TransportKind::kLoopback);
  RunOutcome tcp = run(net::TransportKind::kTcp);
  ExpectIdentical(loopback, tcp);
  EXPECT_GT(loopback.metrics.accountant.phase(sim::Phase::kAggregation)
                .dropouts,
            0u);
}

}  // namespace
}  // namespace tcells::protocol
