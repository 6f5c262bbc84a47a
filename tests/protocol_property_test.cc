// Property sweep: for every (fleet size, group count, skew, availability)
// combination and every protocol, a distributed run must return exactly the
// plaintext oracle's rows. This is the library's central invariant, swept
// broadly; the per-query shapes live in protocol_e2e_test.cc.
#include <gtest/gtest.h>

#include "protocol/discovery.h"
#include "protocol/factory.h"
#include "protocol/reference.h"
#include "tcells/engine.h"
#include "tds/access_control.h"
#include "workload/generic.h"

namespace tcells::protocol {
namespace {

struct GridPoint {
  size_t num_tds;
  size_t num_groups;
  double skew;
  double availability;
  /// Worker threads for the parallel fleet engine (1 = serial).
  size_t num_threads = 1;
};

class ProtocolGridTest
    : public ::testing::TestWithParam<std::tuple<ProtocolKind, GridPoint>> {};

TEST_P(ProtocolGridTest, MatchesOracleEverywhere) {
  auto [kind, grid] = GetParam();

  workload::GenericOptions gopts;
  gopts.num_tds = grid.num_tds;
  gopts.num_groups = grid.num_groups;
  gopts.group_skew = grid.skew;
  gopts.rows_per_tds = 2;  // multiple collection tuples per TDS
  gopts.seed = 7 * grid.num_tds + grid.num_groups;

  auto keys = crypto::KeyStore::CreateForTest(gopts.seed);
  auto authority = std::make_shared<tds::Authority>(Bytes(16, 0x55));
  auto fleet = workload::BuildGenericFleet(gopts, keys, authority,
                                           tds::AccessPolicy::AllowAll())
                   .ValueOrDie();
  Querier querier("grid", authority->Issue("grid"), keys);

  const char* sql =
      "SELECT grp, COUNT(*), SUM(cat), AVG(val), MIN(val), MAX(val) "
      "FROM T GROUP BY grp";
  // The true distribution, as the discovery query would learn it.
  ProtocolInputs inputs =
      InputsFromDiscovery(
          ExecuteReference(*fleet, DiscoverySql(sql).ValueOrDie())
              .ValueOrDie())
          .ValueOrDie();
  inputs.histogram_buckets = std::max<size_t>(1, grid.num_groups / 3);
  auto protocol = MakeProtocol(kind, inputs).ValueOrDie();

  RunOptions opts;
  opts.compute_availability = grid.availability;
  opts.expected_groups = grid.num_groups;
  opts.seed = gopts.seed + 1;
  opts.num_threads = grid.num_threads;

  Engine::Config cfg;
  cfg.options = opts;
  auto engine = Engine::Create(std::move(fleet), cfg).ValueOrDie();
  auto outcome = engine->Run(*protocol, querier, 1, sql).ValueOrDie();
  auto expected = ExecuteReference(engine->fleet(), sql).ValueOrDie();
  EXPECT_TRUE(outcome.result.SameRows(expected))
      << "got:\n" << outcome.result.ToString()
      << "want:\n" << expected.ToString();
  EXPECT_EQ(outcome.result.rows.size(),
            std::min(grid.num_groups, expected.rows.size()));
}

std::string GridName(
    const ::testing::TestParamInfo<std::tuple<ProtocolKind, GridPoint>>&
        info) {
  const auto& [kind, grid] = info.param;
  std::string name = ProtocolKindToString(kind);
  name += "_n" + std::to_string(grid.num_tds);
  name += "_g" + std::to_string(grid.num_groups);
  name += grid.skew > 0 ? "_zipf" : "_uniform";
  name += "_a" + std::to_string(static_cast<int>(grid.availability * 100));
  if (grid.num_threads != 1) {
    name += "_t" + std::to_string(grid.num_threads);
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ProtocolGridTest,
    ::testing::Combine(
        ::testing::Values(ProtocolKind::kSAgg, ProtocolKind::kRnfNoise,
                          ProtocolKind::kCNoise, ProtocolKind::kEdHist),
        ::testing::Values(GridPoint{8, 1, 0.0, 1.0},     // tiny, one group
                          GridPoint{40, 3, 0.0, 0.1},    // uniform, scarce
                          GridPoint{40, 12, 1.2, 0.5},   // skewed, many groups
                          GridPoint{120, 6, 0.8, 0.02},  // near-starved
                          GridPoint{60, 6, 0.0, 1.0},    // abundant
                          // Same invariant under the parallel fleet engine:
                          // fan-out must not perturb correctness anywhere on
                          // the grid.
                          GridPoint{40, 3, 0.0, 0.1, 2},
                          GridPoint{40, 12, 1.2, 0.5, 8},
                          GridPoint{120, 6, 0.8, 0.02, 8},
                          GridPoint{60, 6, 0.0, 1.0, 2})),
    GridName);


// Every WHERE-clause feature, end to end through the basic protocol.
class WhereFeatureTest : public ::testing::TestWithParam<const char*> {};

TEST_P(WhereFeatureTest, MatchesOracleThroughProtocol) {
  workload::GenericOptions gopts;
  gopts.num_tds = 50;
  gopts.seed = 321;
  auto keys = crypto::KeyStore::CreateForTest(77);
  auto authority = std::make_shared<tds::Authority>(Bytes(16, 0x57));
  auto fleet = workload::BuildGenericFleet(gopts, keys, authority,
                                           tds::AccessPolicy::AllowAll())
                   .ValueOrDie();
  Querier querier("w", authority->Issue("w"), keys);
  BasicSfwProtocol protocol;
  std::string sql = std::string("SELECT grp, val, cat FROM T WHERE ") +
                    GetParam();
  Engine::Config cfg;
  cfg.options.compute_availability = 0.3;
  auto engine = Engine::Create(std::move(fleet), cfg).ValueOrDie();
  auto outcome = engine->Run(protocol, querier, 1, sql).ValueOrDie();
  auto expected = ExecuteReference(engine->fleet(), sql).ValueOrDie();
  EXPECT_TRUE(outcome.result.SameRows(expected)) << sql;
}

INSTANTIATE_TEST_SUITE_P(
    AllPredicates, WhereFeatureTest,
    ::testing::Values("cat < 5",
                      "cat BETWEEN 2 AND 7",
                      "cat IN (0, 3, 9)",
                      "cat NOT IN (1, 2)",
                      "grp LIKE 'G0_'",
                      "grp NOT LIKE '%2'",
                      "grp IS NOT NULL AND val > 10.0",
                      "NOT (cat = 0 OR cat = 1)",
                      "val / 2 + 1 > cat * 3",
                      "cat % 3 = 0 OR FALSE"));

TEST(WhereFeatureErrors, TypeErrorInPredicateSurfacesCleanly) {
  // `val` is a DOUBLE: `%` on it is a runtime type error, raised by the
  // first TDS evaluating the clause and propagated as a Status, not a crash.
  workload::GenericOptions gopts;
  gopts.num_tds = 10;
  auto keys = crypto::KeyStore::CreateForTest(5);
  auto authority = std::make_shared<tds::Authority>(Bytes(16, 0x58));
  auto fleet = workload::BuildGenericFleet(gopts, keys, authority,
                                           tds::AccessPolicy::AllowAll())
                   .ValueOrDie();
  Querier querier("w", authority->Issue("w"), keys);
  BasicSfwProtocol protocol;
  auto engine = Engine::Create(std::move(fleet)).ValueOrDie();
  auto outcome =
      engine->Run(protocol, querier, 1, "SELECT grp FROM T WHERE val % 2 = 0");
  ASSERT_FALSE(outcome.ok());
  EXPECT_TRUE(outcome.status().IsInvalidArgument());
}

// The same grid idea for the basic protocol over selective predicates.
class BasicSfwGridTest : public ::testing::TestWithParam<int> {};

TEST_P(BasicSfwGridTest, SelectivitySweep) {
  int threshold = GetParam();
  workload::GenericOptions gopts;
  gopts.num_tds = 60;
  gopts.seed = 100 + threshold;
  auto keys = crypto::KeyStore::CreateForTest(gopts.seed);
  auto authority = std::make_shared<tds::Authority>(Bytes(16, 0x56));
  auto fleet = workload::BuildGenericFleet(gopts, keys, authority,
                                           tds::AccessPolicy::AllowAll())
                   .ValueOrDie();
  Querier querier("grid", authority->Issue("grid"), keys);
  BasicSfwProtocol protocol;
  std::string sql =
      "SELECT grp, cat FROM T WHERE cat < " + std::to_string(threshold);
  Engine::Config cfg;
  cfg.options.compute_availability = 0.2;
  auto engine = Engine::Create(std::move(fleet), cfg).ValueOrDie();
  auto outcome = engine->Run(protocol, querier, 1, sql).ValueOrDie();
  auto expected = ExecuteReference(engine->fleet(), sql).ValueOrDie();
  EXPECT_TRUE(outcome.result.SameRows(expected));
  // Whatever the selectivity (including zero), the SSI always sees one item
  // per TDS: selectivity never leaks.
  EXPECT_EQ(outcome.adversary.collection_items, engine->fleet().size());
}

INSTANTIATE_TEST_SUITE_P(Selectivity, BasicSfwGridTest,
                         ::testing::Values(0, 1, 5, 10));

}  // namespace
}  // namespace tcells::protocol
