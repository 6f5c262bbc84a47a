// The determinism grid. The querier's answer must not depend on how the
// untrusted infrastructure is laid out (PAPER.md §1): a query run at any
// thread count, shard count, backend, batch size and load must reproduce,
// bit for bit, the run of the same protocol, key mode and world at
// 1 thread, 1 shard, loopback, batch 1, alone — its reference.
//
// The cells form a pairwise covering array over protocol (5) x key mode (2)
// x threads {1, 8} x shards {1, 2, 4} x loopback/TCP x batch {1, 32} x
// load {alone, 3 concurrent decoys} x world skew {0, 0.8, 2.5}: every pair
// of factor values runs in at least one cell, which the design test checks.
// Each reference is checked against the plaintext oracle. A few explicit
// cases on the same runner and comparator cover what the factors do not:
// dropout churn, the SIZE cutoff and the static-vs-dynamic key modes.
//
// ctest runs the binary as three disjoint views (tests/CMakeLists.txt):
// transport_differential_test (the TCP cells and dropout churn),
// shard_differential_test (the sharded loopback cells and the SIZE cutoff)
// and parallel_differential_test (everything else).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "protocol/discovery.h"
#include "protocol/factory.h"
#include "protocol/reference.h"
#include "tcells/engine.h"
#include "tds/access_control.h"
#include "tds/leak_log.h"
#include "workload/generic.h"

namespace tcells::protocol {
namespace {

using net::TransportKind;

constexpr size_t kNumTds = 32;
constexpr size_t kNumGroups = 4;
constexpr size_t kNumCompromised = 4;
constexpr const char* kAggSql =
    "SELECT grp, COUNT(*), SUM(cat), AVG(val), MIN(val), MAX(val) "
    "FROM T GROUP BY grp";
constexpr const char* kSfwSql = "SELECT grp, val, cat FROM T WHERE cat < 6";

/// One run's layout and world. The grid's factors come first; the fields
/// after them serve the explicit cases only.
struct Layout {
  ProtocolKind protocol = ProtocolKind::kSAgg;
  KeyMode keys = KeyMode::kStatic;
  size_t threads = 1;
  size_t shards = 1;
  TransportKind transport = TransportKind::kLoopback;
  size_t batch = 1;
  size_t decoys = 0;
  double skew = 0.8;
  double dropout = 0.0;
  /// Empty: the grid's query for the protocol.
  std::string sql;
};

constexpr auto kStatic = KeyMode::kStatic;
constexpr auto kDynamic = KeyMode::kDynamic;
constexpr auto kLoop = TransportKind::kLoopback;
constexpr auto kTcp = TransportKind::kTcp;

Layout Cell(ProtocolKind protocol, KeyMode keys, size_t threads,
            size_t shards, TransportKind transport, size_t batch,
            size_t decoys, double skew) {
  Layout c;
  c.protocol = protocol;
  c.keys = keys;
  c.threads = threads;
  c.shards = shards;
  c.transport = transport;
  c.batch = batch;
  c.decoys = decoys;
  c.skew = skew;
  return c;
}

// A covering array of 15 cells, the fewest possible: protocol x shards and
// protocol x skew each have 15 value pairs. No cell is its own reference.
// Among the arrays that cover every pair, this one also has 1-shard TCP
// cells of Rnf_Noise, C_Noise and ED_Hist, whose frames outgrow one 16 KiB
// receive and so arrive split; an alone 1-shard batch-1 cell on TCP and one
// at 8 threads, whose net.* counters meet the reference's; and dynamic keys
// x 8 threads x 4 shards x TCP.
const std::vector<Layout> kCells = {
    //   protocol                keys    thr shd backend batch dec skew
    Cell(ProtocolKind::kBasicSfw, kStatic, 8, 2, kLoop, 1, 0, 0.0),
    Cell(ProtocolKind::kBasicSfw, kStatic, 1, 4, kTcp, 32, 3, 0.8),
    Cell(ProtocolKind::kBasicSfw, kDynamic, 8, 1, kLoop, 32, 0, 2.5),
    Cell(ProtocolKind::kSAgg, kDynamic, 8, 1, kLoop, 1, 0, 0.0),
    Cell(ProtocolKind::kSAgg, kStatic, 1, 4, kTcp, 32, 0, 0.8),
    Cell(ProtocolKind::kSAgg, kDynamic, 1, 2, kTcp, 1, 3, 2.5),
    Cell(ProtocolKind::kRnfNoise, kStatic, 8, 4, kTcp, 1, 3, 0.0),
    Cell(ProtocolKind::kRnfNoise, kStatic, 8, 2, kLoop, 32, 3, 0.8),
    Cell(ProtocolKind::kRnfNoise, kDynamic, 1, 1, kTcp, 1, 0, 2.5),
    Cell(ProtocolKind::kCNoise, kDynamic, 1, 2, kTcp, 1, 3, 0.0),
    Cell(ProtocolKind::kCNoise, kDynamic, 1, 1, kTcp, 32, 0, 0.8),
    Cell(ProtocolKind::kCNoise, kStatic, 8, 4, kLoop, 32, 3, 2.5),
    Cell(ProtocolKind::kEdHist, kStatic, 1, 1, kTcp, 32, 3, 0.0),
    Cell(ProtocolKind::kEdHist, kDynamic, 8, 4, kTcp, 1, 3, 0.8),
    Cell(ProtocolKind::kEdHist, kDynamic, 1, 2, kLoop, 1, 0, 2.5),
};

/// The reference layout of `s`: same protocol, key mode and world.
Layout ReferenceOf(const Layout& s) {
  Layout ref;
  ref.protocol = s.protocol;
  ref.keys = s.keys;
  ref.skew = s.skew;
  return ref;
}

/// A fleet, its querier and the protocol inputs its discovery query yields.
struct World {
  std::unique_ptr<Fleet> fleet;
  std::unique_ptr<Querier> querier;
  ProtocolInputs inputs;
};

World MakeWorld(double skew) {
  workload::GenericOptions gopts;
  gopts.num_tds = kNumTds;
  gopts.num_groups = kNumGroups;
  gopts.group_skew = skew;
  gopts.rows_per_tds = 2;
  gopts.seed = 1011;
  auto keys = crypto::KeyStore::CreateForTest(2026);
  auto authority = std::make_shared<tds::Authority>(Bytes(16, 0x33));
  World w;
  w.fleet = workload::BuildGenericFleet(gopts, keys, authority,
                                        tds::AccessPolicy::AllowAll())
                .ValueOrDie();
  w.querier =
      std::make_unique<Querier>("grid", authority->Issue("grid"), keys);
  const auto discovered =
      ExecuteReference(*w.fleet, DiscoverySql(kAggSql).ValueOrDie())
          .ValueOrDie();
  w.inputs = InputsFromDiscovery(discovered).ValueOrDie();
  w.inputs.histogram_buckets = 2;
  return w;
}

/// Everything one run produced that the comparator reads.
struct Snapshot {
  RunOutcome outcome;
  std::string trace;
  bool matches_oracle = false;
  /// The compromised TDSs' LeakLog counters.
  std::string leaks;
  /// The engine's registry, as CSV.
  std::string registry;
};

/// Runs query 1 under `s` on a fresh world and engine. Decoys are
/// submitted first and share the engine's shards and scheduler slots.
Snapshot Execute(const Layout& s) {
  World w = MakeWorld(s.skew);
  auto protocol = MakeProtocol(s.protocol, w.inputs).ValueOrDie();
  auto leak_log = std::make_shared<tds::LeakLog>();
  for (size_t i = 0; i < kNumCompromised; ++i) {
    w.fleet->at(i)->set_leak_log(leak_log);
  }

  Engine::Config cfg;
  cfg.options.compute_availability = 0.25;
  cfg.options.expected_groups = kNumGroups;
  cfg.options.seed = 11;
  cfg.options.num_threads = s.threads;
  cfg.options.dropout_rate = s.dropout;
  cfg.num_shards = s.shards;
  cfg.transport = s.transport;
  cfg.transport_batch_max_calls = s.batch;
  cfg.key_mode = s.keys;
  auto engine = Engine::Create(std::move(w.fleet), cfg).ValueOrDie();

  const std::string sql = !s.sql.empty()                           ? s.sql
                          : s.protocol == ProtocolKind::kBasicSfw ? kSfwSql
                                                                  : kAggSql;
  std::vector<QueryHandle> decoys;
  for (size_t d = 0; d < s.decoys; ++d) {
    decoys.push_back(
        engine->Submit(*protocol, *w.querier, 100 + d, sql).ValueOrDie());
  }
  Result<RunOutcome> outcome = engine->Run(*protocol, *w.querier, 1, sql);
  for (auto& h : decoys) EXPECT_TRUE(h.Wait().ok());
  Snapshot snap;
  EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
  if (!outcome.ok()) return snap;
  snap.outcome = *std::move(outcome);
  snap.trace = snap.outcome.trace->ToJson();
  snap.matches_oracle =
      MatchesReference(engine->fleet(), sql, snap.outcome.result);
  snap.leaks = std::to_string(leak_log->NumLeakedRawTuples()) + " " +
               std::to_string(leak_log->NumLeakedGroups()) + " " +
               std::to_string(leak_log->NumRawAppends());
  snap.registry = engine->metrics().ToCsv();
  return snap;
}

/// Every RunMetrics tally, one per line. Wall times are left out: they
/// measure the host.
std::string TallyText(const RunMetrics& m) {
  std::ostringstream out;
  for (auto phase : {sim::Phase::kCollection, sim::Phase::kAggregation,
                     sim::Phase::kFiltering}) {
    const sim::PhaseTally& t = m.accountant.phase(phase);
    out << sim::PhaseToString(phase) << " " << t.bytes_uploaded << " "
        << t.bytes_downloaded << " " << t.tuples_processed << " "
        << t.partitions << " " << t.iterations << " " << t.dropouts << "\n";
  }
  for (const auto& [id, t] : m.accountant.per_tds()) {
    out << "tds " << id << " " << t.bytes_in << " " << t.bytes_out << " "
        << t.tuples << " " << t.participations << "\n";
  }
  out << "times " << obs::FormatDouble(m.times.aggregation_seconds) << " "
      << obs::FormatDouble(m.times.filtering_seconds) << "\n"
      << "rounds " << m.aggregation_rounds << "\n"
      << "available_compute_tds " << m.available_compute_tds << "\n"
      << "collection_ticks " << m.collection_ticks << "\n"
      << "collection_participants " << m.collection_participants << "\n"
      << "contributions_rejected " << m.contributions_rejected << "\n"
      << "partitions_lost " << m.partitions_lost << "\n"
      << "partitions_tampered " << m.partitions_tampered << "\n";
  return out.str();
}

/// The encoded AdversaryView, with its blob sizes sorted when `as_multiset`.
Bytes ViewBytes(ssi::AdversaryView view, bool as_multiset) {
  if (as_multiset) {
    std::sort(view.collection_blob_sizes.begin(),
              view.collection_blob_sizes.end());
  }
  Bytes out;
  view.EncodeTo(&out);
  return out;
}

/// The registry CSV's rows, without net.* ones unless `with_net`, and
/// never net.inflight_calls: it samples cross-thread concurrency, so it
/// differs between two runs of the same layout.
std::string RegistryRows(const std::string& csv, bool with_net) {
  std::istringstream in(csv);
  std::string out;
  for (std::string row; std::getline(in, row);) {
    const std::string name = row.substr(row.find(',') + 1);
    if (name.rfind("net.inflight_calls,", 0) == 0) continue;
    if (!with_net && name.rfind("net.", 0) == 0) continue;
    out += row + "\n";
  }
  return out;
}

/// Checks that the run of `cell` reproduces the run of `ref`.
void ExpectSameRun(const Layout& ref, const Snapshot& want, const Layout& cell,
                   const Snapshot& got) {
  EXPECT_EQ(want.outcome.result.ToString(), got.outcome.result.ToString());
  EXPECT_EQ(want.trace, got.trace);
  EXPECT_EQ(TallyText(want.outcome.metrics), TallyText(got.outcome.metrics));
  // The router concatenates the shards' blob sizes in shard order, so
  // across shard counts only their multiset is layout-independent.
  const bool multiset = ref.shards != cell.shards;
  EXPECT_EQ(ViewBytes(want.outcome.adversary, multiset),
            ViewBytes(got.outcome.adversary, multiset));
  // Decoys write to the same leak log and registry as the probe.
  if (ref.decoys != 0 || cell.decoys != 0) return;
  EXPECT_EQ(want.leaks, got.leaks);
  // net.* counts frames and bytes per shard client, so they move with the
  // shard count and the calls per frame; the backend does not move them.
  const bool with_net = ref.shards == cell.shards && ref.batch == cell.batch;
  EXPECT_EQ(RegistryRows(want.registry, with_net),
            RegistryRows(got.registry, with_net));
}

/// The reference run of `cell`, run once per process, checked against the
/// plaintext oracle and for an honest run's zero losses and rejections.
const Snapshot& ReferenceFor(const Layout& cell) {
  static std::map<std::tuple<ProtocolKind, KeyMode, double>, Snapshot> runs;
  const Layout ref = ReferenceOf(cell);
  auto [it, fresh] =
      runs.try_emplace(std::make_tuple(ref.protocol, ref.keys, ref.skew));
  if (fresh) {
    it->second = Execute(ref);
    const RunOutcome& outcome = it->second.outcome;
    EXPECT_TRUE(it->second.matches_oracle)
        << ProtocolKindToString(ref.protocol) << " skew " << ref.skew
        << "\n" << outcome.result.ToString();
    EXPECT_EQ(outcome.metrics.partitions_lost, 0u);
    EXPECT_EQ(outcome.metrics.contributions_rejected, 0u);
  }
  return it->second;
}

/// A cell's test name; the skew is written x10.
std::string Describe(const Layout& s) {
  std::ostringstream out;
  out << ProtocolKindToString(s.protocol)
      << (s.keys == kDynamic ? "_dynamic" : "_static") << "_t" << s.threads
      << "_s" << s.shards << (s.transport == kTcp ? "_tcp" : "_loopback")
      << "_b" << s.batch << "_d" << s.decoys << "_z"
      << static_cast<int>(s.skew * 10);
  return out.str();
}

// ---------------------------------------------------------------------------
// The design: every pair of factor values runs in at least one cell.

/// Each factor's values; a cell's level on a factor is its value's index.
constexpr std::array<ProtocolKind, 5> kProtocols = {
    ProtocolKind::kBasicSfw, ProtocolKind::kSAgg, ProtocolKind::kRnfNoise,
    ProtocolKind::kCNoise, ProtocolKind::kEdHist};
constexpr std::array<KeyMode, 2> kKeyModes = {kStatic, kDynamic};
constexpr std::array<size_t, 2> kThreads = {1, 8};
constexpr std::array<size_t, 3> kShards = {1, 2, 4};
constexpr std::array<TransportKind, 2> kBackends = {kLoop, kTcp};
constexpr std::array<size_t, 2> kBatches = {1, 32};
constexpr std::array<size_t, 2> kDecoys = {0, 3};
constexpr std::array<double, 3> kSkews = {0.0, 0.8, 2.5};

template <typename T, size_t N>
size_t LevelOf(const std::array<T, N>& values, T value) {
  return std::find(values.begin(), values.end(), value) - values.begin();
}

TEST(DifferentialGridDesign, EveryPairOfFactorValuesRuns) {
  const std::array<size_t, 8> num_levels = {
      kProtocols.size(), kKeyModes.size(), kThreads.size(),
      kShards.size(),    kBackends.size(), kBatches.size(),
      kDecoys.size(),    kSkews.size()};
  std::vector<std::array<size_t, 8>> levels;
  for (const Layout& c : kCells) {
    levels.push_back({LevelOf(kProtocols, c.protocol),
                      LevelOf(kKeyModes, c.keys), LevelOf(kThreads, c.threads),
                      LevelOf(kShards, c.shards),
                      LevelOf(kBackends, c.transport),
                      LevelOf(kBatches, c.batch), LevelOf(kDecoys, c.decoys),
                      LevelOf(kSkews, c.skew)});
    for (size_t f = 0; f < 8; ++f) {
      ASSERT_LT(levels.back()[f], num_levels[f]) << Describe(c);
    }
    EXPECT_FALSE(c.threads == 1 && c.shards == 1 && c.transport == kLoop &&
                 c.batch == 1 && c.decoys == 0)
        << Describe(c) << " is its own reference";
  }
  for (size_t f = 0; f < 8; ++f) {
    for (size_t g = f + 1; g < 8; ++g) {
      std::set<std::pair<size_t, size_t>> pairs;
      for (const auto& l : levels) pairs.emplace(l[f], l[g]);
      EXPECT_EQ(pairs.size(), num_levels[f] * num_levels[g])
          << "factors " << f << " and " << g;
    }
  }
}

// ---------------------------------------------------------------------------
// The cells, one test each, in three views.

enum class View { kLocal, kSharded, kTcp };

View ViewOf(const Layout& s) {
  if (s.transport == kTcp) return View::kTcp;
  return s.shards > 1 ? View::kSharded : View::kLocal;
}

std::vector<size_t> CellsIn(View view) {
  std::vector<size_t> cells;
  for (size_t i = 0; i < kCells.size(); ++i) {
    if (ViewOf(kCells[i]) == view) cells.push_back(i);
  }
  return cells;
}

class GridCellTest : public ::testing::TestWithParam<size_t> {};

TEST_P(GridCellTest, MatchesItsReference) {
  const Layout& cell = kCells[GetParam()];
  ExpectSameRun(ReferenceOf(cell), ReferenceFor(cell), cell, Execute(cell));
}

std::string CellName(const ::testing::TestParamInfo<size_t>& info) {
  return Describe(kCells[info.param]);
}

INSTANTIATE_TEST_SUITE_P(Local, GridCellTest,
                         ::testing::ValuesIn(CellsIn(View::kLocal)),
                         CellName);
INSTANTIATE_TEST_SUITE_P(Sharded, GridCellTest,
                         ::testing::ValuesIn(CellsIn(View::kSharded)),
                         CellName);
INSTANTIATE_TEST_SUITE_P(Tcp, GridCellTest,
                         ::testing::ValuesIn(CellsIn(View::kTcp)), CellName);

// ---------------------------------------------------------------------------
// Explicit cases.

// Dropout re-dispatch draws from keyed streams, so the churn is the same at
// any thread count and on either backend.
TEST(DifferentialGridDropout, ChurnIsIdenticalAcrossThreadsAndBackends) {
  Layout ref;
  ref.dropout = 0.2;
  const Snapshot want = Execute(ref);
  EXPECT_GT(
      want.outcome.metrics.accountant.phase(sim::Phase::kAggregation).dropouts,
      0u);
  EXPECT_TRUE(want.matches_oracle);
  for (size_t threads : {1u, 8u}) {
    for (TransportKind backend : {kLoop, kTcp}) {
      Layout cell = ref;
      cell.threads = threads;
      cell.transport = backend;
      if (threads == 1 && backend == kLoop) continue;
      SCOPED_TRACE(Describe(cell));
      ExpectSameRun(ref, want, cell, Execute(cell));
    }
  }
}

// The querier closes the collection window on whole uploads, so 2-row TDSs
// may overshoot SIZE 13 by one item; the cutoff is the same at every shard
// and thread count.
TEST(DifferentialGridSizeBound, CutoffIsIdenticalAcrossShardsAndThreads) {
  Layout ref;
  ref.sql = "SELECT grp, COUNT(*) FROM T GROUP BY grp SIZE 13";
  const Snapshot want = Execute(ref);
  EXPECT_GE(want.outcome.adversary.collection_items, 13u);
  EXPECT_LE(want.outcome.adversary.collection_items, 14u);
  for (size_t shards : {1u, 2u, 4u}) {
    for (size_t threads : {1u, 2u, 8u}) {
      if (shards == 1 && threads == 1) continue;
      Layout cell = ref;
      cell.shards = shards;
      cell.threads = threads;
      SCOPED_TRACE(Describe(cell));
      ExpectSameRun(ref, want, cell, Execute(cell));
    }
  }
}

/// Sorted row strings: protocols that order output by Det_Enc(group) tags
/// order it differently under each key mode.
std::vector<std::string> SortedRows(const sql::QueryResult& result) {
  std::vector<std::string> rows;
  for (const auto& row : result.rows) rows.push_back(row.ToString());
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Tag values differ across key modes; their multiplicities must not.
std::vector<uint64_t> TagCounts(const std::map<Bytes, uint64_t>& histogram) {
  std::vector<uint64_t> counts;
  for (const auto& [tag, count] : histogram) counts.push_back(count);
  std::sort(counts.begin(), counts.end());
  return counts;
}

// Dynamic keys change every ciphertext, not what an honest run computes or
// the shape of what the SSI sees.
TEST(DifferentialGridKeyModes, DynamicKeysKeepRowsAndViewShape) {
  for (ProtocolKind kind : kProtocols) {
    SCOPED_TRACE(ProtocolKindToString(kind));
    Layout s;
    s.protocol = kind;
    const RunOutcome& st = ReferenceFor(s).outcome;
    s.keys = kDynamic;
    const RunOutcome& dy = ReferenceFor(s).outcome;
    EXPECT_EQ(SortedRows(st.result), SortedRows(dy.result));
    EXPECT_EQ(dy.metrics.contributions_rejected, 0u);
    EXPECT_EQ(st.metrics.collection_participants,
              dy.metrics.collection_participants);
    EXPECT_EQ(st.adversary.collection_blob_sizes,
              dy.adversary.collection_blob_sizes);
    EXPECT_EQ(st.adversary.collection_items, dy.adversary.collection_items);
    EXPECT_EQ(st.adversary.aggregation_items, dy.adversary.aggregation_items);
    EXPECT_EQ(st.adversary.filtering_items, dy.adversary.filtering_items);
    EXPECT_EQ(TagCounts(st.adversary.collection_tag_histogram),
              TagCounts(dy.adversary.collection_tag_histogram));
    EXPECT_EQ(TagCounts(st.adversary.aggregation_tag_histogram),
              TagCounts(dy.adversary.aggregation_tag_histogram));
  }
}

}  // namespace
}  // namespace tcells::protocol
