// Tests for semantic analysis: binding, validation, collection/output
// layouts, and a query cache's analyses keyed on interned catalogs.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "crypto/keystore.h"
#include "protocol/fleet.h"
#include "sql/analyzer.h"
#include "storage/table.h"
#include "tds/access_control.h"
#include "tds/query_cache.h"
#include "workload/generic.h"
#include "workload/smart_meter.h"

namespace tcells::sql {
namespace {

storage::Catalog MakeCatalog() {
  storage::Catalog cat;
  EXPECT_TRUE(cat.AddTable("Consumer", workload::ConsumerSchema()).ok());
  EXPECT_TRUE(cat.AddTable("Power", workload::PowerSchema()).ok());
  return cat;
}

TEST(AnalyzerTest, PlainSfwBindsColumns) {
  auto cat = MakeCatalog();
  auto q = AnalyzeSql("SELECT cid, district FROM Consumer WHERE cid > 5", cat)
               .ValueOrDie();
  EXPECT_FALSE(q.is_aggregation);
  ASSERT_EQ(q.select_row_exprs.size(), 2u);
  EXPECT_EQ(q.select_row_exprs[0]->bound_index, 0);
  EXPECT_EQ(q.select_row_exprs[1]->bound_index, 1);
  EXPECT_EQ(q.result_schema.num_columns(), 2u);
  EXPECT_EQ(q.result_schema.column(1).type, storage::ValueType::kString);
}

TEST(AnalyzerTest, StarExpansion) {
  auto cat = MakeCatalog();
  auto q = AnalyzeSql("SELECT * FROM Consumer", cat).ValueOrDie();
  EXPECT_EQ(q.select_row_exprs.size(), 3u);
  EXPECT_EQ(q.result_schema.column(0).name, "Consumer.cid");
}

TEST(AnalyzerTest, JoinCombinedSchema) {
  auto cat = MakeCatalog();
  auto q = AnalyzeSql(
      "SELECT P.cons FROM Power P, Consumer C WHERE C.cid = P.cid", cat)
      .ValueOrDie();
  EXPECT_EQ(q.combined_schema.num_columns(), 6u);
  // Power first: cons is combined index 1.
  EXPECT_EQ(q.select_row_exprs[0]->bound_index, 1);
  EXPECT_EQ(q.combined_origin[1].first, "Power");
  EXPECT_EQ(q.combined_origin[3].first, "Consumer");
}

TEST(AnalyzerTest, AmbiguousColumnRejected) {
  auto cat = MakeCatalog();
  // cid exists in both tables.
  EXPECT_FALSE(AnalyzeSql("SELECT cid FROM Power, Consumer", cat).ok());
}

TEST(AnalyzerTest, UnknownColumnAndTable) {
  auto cat = MakeCatalog();
  EXPECT_FALSE(AnalyzeSql("SELECT nope FROM Consumer", cat).ok());
  EXPECT_FALSE(AnalyzeSql("SELECT cid FROM Nope", cat).ok());
  EXPECT_FALSE(AnalyzeSql("SELECT X.cid FROM Consumer C", cat).ok());
}

TEST(AnalyzerTest, DuplicateTableAliasRejected) {
  auto cat = MakeCatalog();
  EXPECT_FALSE(AnalyzeSql("SELECT C.cid FROM Consumer C, Power C", cat).ok());
}

TEST(AnalyzerTest, AggregationLayout) {
  auto cat = MakeCatalog();
  auto q = AnalyzeSql(
      "SELECT district, AVG(cons), COUNT(*) FROM Consumer, Power "
      "WHERE Consumer.cid = Power.cid GROUP BY district", cat)
      .ValueOrDie();
  EXPECT_TRUE(q.is_aggregation);
  EXPECT_EQ(q.key_arity, 1u);
  // Collection tuple: [district, cons] — COUNT(*) needs no input column.
  ASSERT_EQ(q.collection_exprs.size(), 2u);
  ASSERT_EQ(q.agg_specs.size(), 2u);
  EXPECT_EQ(q.agg_specs[0].kind, AggKind::kAvg);
  EXPECT_EQ(q.agg_specs[0].input_index, 1);
  EXPECT_EQ(q.agg_specs[1].kind, AggKind::kCount);
  EXPECT_EQ(q.agg_specs[1].input_index, -1);
  EXPECT_EQ(q.collection_schema.num_columns(), 2u);
  EXPECT_EQ(q.result_schema.num_columns(), 3u);
}

TEST(AnalyzerTest, HavingAggregatesGetSlots) {
  auto cat = MakeCatalog();
  auto q = AnalyzeSql(
      "SELECT district, AVG(cons) FROM Consumer, Power "
      "WHERE Consumer.cid = Power.cid "
      "GROUP BY district HAVING COUNT(DISTINCT Consumer.cid) > 10", cat)
      .ValueOrDie();
  // AVG + COUNT DISTINCT = two slots; collection carries district, cons, cid.
  EXPECT_EQ(q.agg_specs.size(), 2u);
  EXPECT_EQ(q.collection_exprs.size(), 3u);
  ASSERT_NE(q.having, nullptr);
}

TEST(AnalyzerTest, NonGroupedColumnInSelectRejected) {
  auto cat = MakeCatalog();
  EXPECT_FALSE(AnalyzeSql(
      "SELECT accomodation, AVG(cons) FROM Consumer, Power "
      "GROUP BY district", cat).ok());
}

TEST(AnalyzerTest, GlobalAggregateWithoutGroupBy) {
  auto cat = MakeCatalog();
  auto q = AnalyzeSql("SELECT COUNT(*), MAX(cons) FROM Power", cat)
               .ValueOrDie();
  EXPECT_TRUE(q.is_aggregation);
  EXPECT_EQ(q.key_arity, 0u);
  EXPECT_EQ(q.agg_specs.size(), 2u);
}

TEST(AnalyzerTest, HavingWithoutAggregationRejected) {
  auto cat = MakeCatalog();
  EXPECT_FALSE(
      AnalyzeSql("SELECT cid FROM Consumer HAVING cid > 1", cat).ok());
}

TEST(AnalyzerTest, AggregateInWhereRejected) {
  auto cat = MakeCatalog();
  EXPECT_FALSE(AnalyzeSql(
      "SELECT district FROM Consumer WHERE COUNT(*) > 1 GROUP BY district",
      cat).ok());
}

TEST(AnalyzerTest, StarInAggregationQueryRejected) {
  auto cat = MakeCatalog();
  EXPECT_FALSE(AnalyzeSql(
      "SELECT *, COUNT(*) FROM Consumer GROUP BY district", cat).ok());
}

TEST(AnalyzerTest, SelectExpressionOverGroupKeyAndAggregate) {
  auto cat = MakeCatalog();
  auto q = AnalyzeSql(
      "SELECT hour, MAX(cons) - MIN(cons) AS spread FROM Power GROUP BY hour",
      cat).ValueOrDie();
  EXPECT_EQ(q.agg_specs.size(), 2u);
  EXPECT_EQ(q.result_schema.column(1).name, "spread");
}

TEST(AnalyzerTest, SizeClausePropagates) {
  auto cat = MakeCatalog();
  auto q = AnalyzeSql("SELECT cid FROM Consumer SIZE 42", cat).ValueOrDie();
  ASSERT_TRUE(q.size.has_value());
  EXPECT_EQ(q.size->max_tuples.value(), 42u);
}

// ---------------------------------------------------------------------------
// tds::QueryCache::Analysis: one analysis per (interned catalog, SQL text).

storage::Database GenericDb(storage::ValueType val_type) {
  std::vector<storage::Column> cols = workload::GenericSchema().columns();
  cols[2].type = val_type;  // "val"
  storage::Database db;
  EXPECT_TRUE(db.CreateTable("T", storage::Schema(std::move(cols))).ok());
  return db;
}

TEST(QueryCacheAnalysisTest, SameShapeDatabasesShareOneAnalysis) {
  const std::string sql = "SELECT grp, val FROM T WHERE cat < 4";
  storage::Database a = GenericDb(storage::ValueType::kDouble);
  storage::Database b = GenericDb(storage::ValueType::kDouble);
  tds::QueryCache cache;
  auto qa = cache.Analysis(sql, a.shared_catalog()).ValueOrDie();
  auto qb = cache.Analysis(sql, b.shared_catalog()).ValueOrDie();
  EXPECT_EQ(qa.get(), qb.get());
  EXPECT_EQ(qa->result_schema.num_columns(), 2u);
}

TEST(QueryCacheAnalysisTest, ColumnTypeChangeGetsItsOwnAnalysis) {
  const std::string sql = "SELECT grp, val FROM T WHERE cat < 4";
  storage::Database dbl = GenericDb(storage::ValueType::kDouble);
  storage::Database i64 = GenericDb(storage::ValueType::kInt64);
  tds::QueryCache cache;
  auto qd = cache.Analysis(sql, dbl.shared_catalog()).ValueOrDie();
  auto qi = cache.Analysis(sql, i64.shared_catalog()).ValueOrDie();
  EXPECT_NE(qd.get(), qi.get());
  EXPECT_EQ(qd->result_schema.column(1).type, storage::ValueType::kDouble);
  EXPECT_EQ(qi->result_schema.column(1).type, storage::ValueType::kInt64);
}

// The catalog pool is process-wide and a query cache is shared by every
// thread serving its query: fleets built and analyzed on several threads at
// once, their first lookups racing on one missing entry, must still meet on
// one catalog and one analysis. Registered under the tsan label
// (tests/CMakeLists.txt).
TEST(QueryCacheAnalysisTest, ConcurrentFleetsShareCatalogAndAnalysis) {
  constexpr size_t kThreads = 4;
  constexpr size_t kFleet = 500;
  const std::string sql = "SELECT grp, COUNT(*), AVG(val) FROM T GROUP BY grp";
  auto keys = crypto::KeyStore::CreateForTest(3);
  auto authority = std::make_shared<tds::Authority>(Bytes(16, 7));
  tds::QueryCache cache;

  std::vector<std::unique_ptr<protocol::Fleet>> fleets(kThreads);
  std::vector<std::vector<const storage::Catalog*>> catalogs(kThreads);
  std::vector<std::vector<const AnalyzedQuery*>> analyses(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      workload::GenericOptions opts;
      opts.num_tds = kFleet;
      opts.seed = 100 + t;
      auto fleet = workload::BuildGenericFleet(opts, keys, authority,
                                               tds::AccessPolicy::AllowAll());
      if (!fleet.ok()) return;
      fleets[t] = std::move(fleet).ValueOrDie();
      for (size_t i = 0; i < fleets[t]->size(); ++i) {
        const auto& catalog = fleets[t]->at(i)->db().shared_catalog();
        catalogs[t].push_back(catalog.get());
        auto query = cache.Analysis(sql, catalog);
        analyses[t].push_back(query.ok() ? query.ValueOrDie().get()
                                         : nullptr);
      }
    });
  }
  for (auto& th : threads) th.join();

  for (size_t t = 0; t < kThreads; ++t) {
    ASSERT_NE(fleets[t], nullptr) << "thread " << t;
    ASSERT_EQ(catalogs[t].size(), kFleet);
    ASSERT_EQ(analyses[t].size(), kFleet);
    for (size_t i = 0; i < kFleet; ++i) {
      EXPECT_EQ(catalogs[t][i], catalogs[0][0]) << t << "/" << i;
      EXPECT_EQ(analyses[t][i], analyses[0][0]) << t << "/" << i;
    }
  }
  EXPECT_NE(analyses[0][0], nullptr);
}

}  // namespace
}  // namespace tcells::sql
