// Differential serial-vs-parallel harness for the parallel fleet engine.
//
// The engine's contract is that `RunOptions::num_threads` is invisible to
// everything the run produces: every protocol, executed serially and with
// 1/2/8 worker threads on identical seeds, must yield bit-identical
// RunOutcomes — result rows, cost-accountant tallies, simulated phase times,
// the SSI's adversary view, and the compromised-TDS exposure counters. This
// makes determinism a tested invariant rather than a hope: any hidden shared
// state or scheduling-dependent randomness shows up as a diff here.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "protocol/parallel_executor.h"
#include "protocol/protocols.h"
#include "protocol/reference.h"
#include "sql/executor.h"
#include "tcells/engine.h"
#include "tds/access_control.h"
#include "tds/leak_log.h"
#include "workload/generic.h"

namespace tcells::protocol {
namespace {

using storage::Tuple;
using storage::Value;

constexpr size_t kNumTds = 48;
constexpr size_t kNumGroups = 4;
constexpr size_t kNumCompromised = 6;

/// Everything one run produced, snapshotted for deep comparison.
struct RunSnapshot {
  RunOutcome outcome;
  size_t leaked_raw_tuples = 0;
  size_t leaked_groups = 0;
  uint64_t leak_appends = 0;
};

const char* QueryFor(ProtocolKind kind) {
  return kind == ProtocolKind::kBasicSfw
             ? "SELECT grp, val, cat FROM T WHERE cat < 6"
             : "SELECT grp, COUNT(*), SUM(cat), AVG(val), MIN(val), "
               "MAX(val) FROM T GROUP BY grp";
}

/// Builds a fresh world (fleet, protocol, compromised TDSs) and runs the
/// query once. Worlds are rebuilt per run so that no state carries over
/// between the serial and parallel arms.
RunSnapshot RunWith(ProtocolKind kind, size_t num_threads, uint64_t seed,
                    double dropout_rate = 0.0, double group_skew = 0.8) {
  workload::GenericOptions gopts;
  gopts.num_tds = kNumTds;
  gopts.num_groups = kNumGroups;
  gopts.group_skew = group_skew;
  gopts.rows_per_tds = 2;
  gopts.seed = 1000 + seed;

  auto keys = crypto::KeyStore::CreateForTest(2026);
  auto authority = std::make_shared<tds::Authority>(Bytes(16, 0x33));
  auto fleet = workload::BuildGenericFleet(gopts, keys, authority,
                                           tds::AccessPolicy::AllowAll())
                   .ValueOrDie();
  Querier querier("diff", authority->Issue("diff"), keys);

  // Threat-model extension: a few compromised TDSs share a leak log, so the
  // harness also proves the exposure counters are schedule-independent.
  auto leak_log = std::make_shared<tds::LeakLog>();
  for (size_t i = 0; i < kNumCompromised; ++i) {
    fleet->at(i)->set_leak_log(leak_log);
  }

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
  opts.num_threads = num_threads;
  opts.dropout_rate = dropout_rate;

  Engine::Config cfg;
  cfg.options = opts;
  auto engine = Engine::Create(std::move(fleet), cfg).ValueOrDie();
  RunSnapshot snapshot;
  snapshot.outcome =
      engine->Run(*protocol, querier, 1, QueryFor(kind)).ValueOrDie();
  snapshot.leaked_raw_tuples = leak_log->NumLeakedRawTuples();
  snapshot.leaked_groups = leak_log->NumLeakedGroups();
  snapshot.leak_appends = leak_log->NumRawAppends();
  return snapshot;
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

/// Bit-identical comparison of everything a run produces. Doubles are
/// compared exactly: serial and parallel runs perform the same arithmetic in
/// the same fold order, so even floating point must not drift.
void ExpectIdentical(const RunSnapshot& serial, const RunSnapshot& parallel) {
  // Result rows, including order (the engine concatenates in partition
  // order, so even row order is schedule-independent).
  EXPECT_EQ(serial.outcome.result.ToString(),
            parallel.outcome.result.ToString());
  ASSERT_EQ(serial.outcome.result.rows.size(),
            parallel.outcome.result.rows.size());

  // Cost accounting.
  const auto& ma = serial.outcome.metrics;
  const auto& mb = parallel.outcome.metrics;
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

  // Simulated critical-path times: exact, not approximate.
  EXPECT_EQ(ma.times.aggregation_seconds, mb.times.aggregation_seconds);
  EXPECT_EQ(ma.times.filtering_seconds, mb.times.filtering_seconds);
  EXPECT_EQ(ma.aggregation_rounds, mb.aggregation_rounds);
  EXPECT_EQ(ma.available_compute_tds, mb.available_compute_tds);
  EXPECT_EQ(ma.collection_ticks, mb.collection_ticks);
  EXPECT_EQ(ma.collection_participants, mb.collection_participants);

  // The SSI's adversary view: the exact ciphertext population, in order.
  const auto& va = serial.outcome.adversary;
  const auto& vb = parallel.outcome.adversary;
  EXPECT_EQ(va.collection_tag_histogram, vb.collection_tag_histogram);
  EXPECT_EQ(va.aggregation_tag_histogram, vb.aggregation_tag_histogram);
  EXPECT_EQ(va.collection_blob_sizes, vb.collection_blob_sizes);
  EXPECT_EQ(va.collection_items, vb.collection_items);
  EXPECT_EQ(va.aggregation_items, vb.aggregation_items);
  EXPECT_EQ(va.filtering_items, vb.filtering_items);

  // Compromised-TDS exposure counters.
  EXPECT_EQ(serial.leaked_raw_tuples, parallel.leaked_raw_tuples);
  EXPECT_EQ(serial.leaked_groups, parallel.leaked_groups);
  EXPECT_EQ(serial.leak_appends, parallel.leak_appends);
}

// ---------------------------------------------------------------------------
// The differential sweep: 5 protocols x 3 seeds x {2, 8} threads vs serial.

class ParallelDifferentialTest
    : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(ParallelDifferentialTest, SerialAndParallelRunsAreBitIdentical) {
  ProtocolKind kind = GetParam();
  for (uint64_t seed : {11u, 22u, 33u}) {
    RunSnapshot serial = RunWith(kind, /*num_threads=*/1, seed);
    for (size_t threads : {2u, 8u}) {
      RunSnapshot parallel = RunWith(kind, threads, seed);
      SCOPED_TRACE(std::string(ProtocolKindToString(kind)) + " seed " +
                   std::to_string(seed) + " threads " +
                   std::to_string(threads));
      ExpectIdentical(serial, parallel);
    }
  }
}

TEST_P(ParallelDifferentialTest, ResultStillMatchesPlaintextOracle) {
  // Determinism alone could hide a bug present in both arms; anchor the
  // parallel run against the cleartext reference as well.
  ProtocolKind kind = GetParam();
  workload::GenericOptions gopts;
  gopts.num_tds = kNumTds;
  gopts.num_groups = kNumGroups;
  gopts.group_skew = 0.8;
  gopts.rows_per_tds = 2;
  gopts.seed = 1011;
  auto keys = crypto::KeyStore::CreateForTest(2026);
  auto authority = std::make_shared<tds::Authority>(Bytes(16, 0x33));
  auto fleet = workload::BuildGenericFleet(gopts, keys, authority,
                                           tds::AccessPolicy::AllowAll())
                   .ValueOrDie();
  auto expected = ExecuteReference(*fleet, QueryFor(kind)).ValueOrDie();
  RunSnapshot parallel = RunWith(kind, /*num_threads=*/8, /*seed=*/11);
  EXPECT_TRUE(parallel.outcome.result.SameRows(expected))
      << "got:\n" << parallel.outcome.result.ToString()
      << "want:\n" << expected.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, ParallelDifferentialTest,
    ::testing::Values(ProtocolKind::kBasicSfw, ProtocolKind::kSAgg,
                      ProtocolKind::kRnfNoise, ProtocolKind::kCNoise,
                      ProtocolKind::kEdHist),
    [](const auto& info) {
      return std::string(ProtocolKindToString(info.param));
    });

// ---------------------------------------------------------------------------
// Skew grid: group popularity from uniform to heavily Zipf-skewed. Skew
// changes partition sizes and aggregation-tree shape, so it probes fold
// orders the default 0.8 never exercises; each point must stay bit-identical
// between serial and parallel arms and match the plaintext oracle.

TEST_P(ParallelDifferentialTest, ZipfSkewGridStaysBitIdentical) {
  ProtocolKind kind = GetParam();
  for (double skew : {0.0, 1.2, 2.5}) {
    RunSnapshot serial = RunWith(kind, /*num_threads=*/1, /*seed=*/11,
                                 /*dropout_rate=*/0.0, skew);
    for (size_t threads : {2u, 8u}) {
      RunSnapshot parallel = RunWith(kind, threads, /*seed=*/11,
                                     /*dropout_rate=*/0.0, skew);
      SCOPED_TRACE(std::string(ProtocolKindToString(kind)) + " skew " +
                   std::to_string(skew) + " threads " +
                   std::to_string(threads));
      ExpectIdentical(serial, parallel);
    }

    // Anchor the skewed world against the cleartext reference too — a
    // deterministic-but-wrong fold under skew would pass the diff alone.
    workload::GenericOptions gopts;
    gopts.num_tds = kNumTds;
    gopts.num_groups = kNumGroups;
    gopts.group_skew = skew;
    gopts.rows_per_tds = 2;
    gopts.seed = 1011;
    auto keys = crypto::KeyStore::CreateForTest(2026);
    auto authority = std::make_shared<tds::Authority>(Bytes(16, 0x33));
    auto fleet = workload::BuildGenericFleet(gopts, keys, authority,
                                             tds::AccessPolicy::AllowAll())
                     .ValueOrDie();
    auto expected = ExecuteReference(*fleet, QueryFor(kind)).ValueOrDie();
    RunSnapshot parallel = RunWith(kind, /*num_threads=*/8, /*seed=*/11,
                                   /*dropout_rate=*/0.0, skew);
    EXPECT_TRUE(parallel.outcome.result.SameRows(expected))
        << "skew " << skew << "\ngot:\n"
        << parallel.outcome.result.ToString() << "want:\n"
        << expected.ToString();
  }
}

// ---------------------------------------------------------------------------
// Determinism must also survive fault injection: the dropout schedule is
// drawn from the per-partition streams, so re-dispatch decisions cannot
// depend on thread timing.

TEST(ParallelDifferentialDropoutTest, ChurnIsScheduleIndependent) {
  for (size_t threads : {2u, 8u}) {
    RunSnapshot serial =
        RunWith(ProtocolKind::kSAgg, 1, /*seed=*/5, /*dropout_rate=*/0.2);
    RunSnapshot parallel =
        RunWith(ProtocolKind::kSAgg, threads, /*seed=*/5,
                /*dropout_rate=*/0.2);
    SCOPED_TRACE(threads);
    ExpectIdentical(serial, parallel);
    EXPECT_GT(serial.outcome.metrics.accountant.phase(sim::Phase::kAggregation)
                  .dropouts,
              0u);
  }
}

// ---------------------------------------------------------------------------
// SIZE-bounded collection truncates at fold time; the truncation point must
// not depend on the thread count either.

TEST(ParallelDifferentialSizeTest, SizeBoundTruncatesIdentically) {
  auto run = [](size_t threads) {
    workload::GenericOptions gopts;
    gopts.num_tds = 40;
    gopts.seed = 1234;
    auto keys = crypto::KeyStore::CreateForTest(2027);
    auto authority = std::make_shared<tds::Authority>(Bytes(16, 0x34));
    auto fleet = workload::BuildGenericFleet(gopts, keys, authority,
                                             tds::AccessPolicy::AllowAll())
                     .ValueOrDie();
    Querier querier("diff", authority->Issue("diff"), keys);
    BasicSfwProtocol protocol;
    Engine::Config cfg;
    cfg.options.seed = 9;
    cfg.options.num_threads = threads;
    auto engine = Engine::Create(std::move(fleet), cfg).ValueOrDie();
    return engine->Run(protocol, querier, 1, "SELECT grp FROM T SIZE 10")
        .ValueOrDie();
  };
  RunOutcome serial = run(1);
  EXPECT_EQ(serial.adversary.collection_items, 10u);
  for (size_t threads : {2u, 8u}) {
    RunOutcome parallel = run(threads);
    EXPECT_EQ(serial.result.ToString(), parallel.result.ToString());
    EXPECT_EQ(parallel.adversary.collection_items, 10u);
    EXPECT_EQ(serial.metrics.collection_participants,
              parallel.metrics.collection_participants);
  }
}

// ---------------------------------------------------------------------------
// LeakLog concurrency regression: concurrent compromised-TDS appends must
// lose no entries (the log used to be single-thread-only).

TEST(LeakLogConcurrencyTest, ConcurrentAppendsLoseNothing) {
  tds::LeakLog log;
  ParallelExecutor executor(8);
  constexpr size_t kWriters = 16;
  constexpr size_t kPerWriter = 500;
  auto write = [&](size_t w) -> Status {
    for (size_t i = 0; i < kPerWriter; ++i) {
      Tuple t({Value::Int64(static_cast<int64_t>(w * kPerWriter + i)),
               Value::String("x")});
      log.RecordRawTuple(/*tds_id=*/w, t);
      log.RecordGroupAggregate(/*tds_id=*/w,
                               Tuple({Value::Int64(static_cast<int64_t>(i))}));
    }
    return Status::OK();
  };
  ASSERT_TRUE(executor.ForEachIndex(kWriters, write).ok());
  // Every distinct tuple survived, and no append was dropped on the floor.
  EXPECT_EQ(log.NumLeakedRawTuples(), kWriters * kPerWriter);
  EXPECT_EQ(log.NumRawAppends(), kWriters * kPerWriter);
  EXPECT_EQ(log.NumLeakedGroups(), kPerWriter);
}

}  // namespace
}  // namespace tcells::protocol
