// Tests for local query execution (the per-TDS path and the oracle).
#include <gtest/gtest.h>

#include <algorithm>

#include "sql/executor.h"
#include "storage/table.h"

namespace tcells::sql {
namespace {

using storage::Database;
using storage::Schema;
using storage::Tuple;
using storage::Value;
using storage::ValueType;

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest() {
    EXPECT_TRUE(db_.CreateTable("Consumer",
                                Schema({{"cid", ValueType::kInt64},
                                        {"district", ValueType::kString}}))
                    .ok());
    EXPECT_TRUE(db_.CreateTable("Power", Schema({{"cid", ValueType::kInt64},
                                                 {"cons", ValueType::kDouble}}))
                    .ok());
    auto* consumer = db_.GetTable("Consumer").ValueOrDie();
    auto* power = db_.GetTable("Power").ValueOrDie();
    // 4 consumers over 2 districts, 2 readings each.
    for (int64_t cid = 0; cid < 4; ++cid) {
      EXPECT_TRUE(consumer
                      ->Insert(Tuple({Value::Int64(cid),
                                      Value::String(cid < 2 ? "north" : "south")}))
                      .ok());
      for (int r = 0; r < 2; ++r) {
        EXPECT_TRUE(power
                        ->Insert(Tuple({Value::Int64(cid),
                                        Value::Double(10.0 * (cid + 1) + r)}))
                        .ok());
      }
    }
  }

  QueryResult Run(const std::string& sql) {
    auto q = AnalyzeSql(sql, db_.catalog()).ValueOrDie();
    return ExecuteLocal(db_, q).ValueOrDie();
  }

  Database db_;
};

TEST_F(ExecutorTest, SimpleProjection) {
  auto result = Run("SELECT cid FROM Consumer");
  EXPECT_EQ(result.rows.size(), 4u);
}

TEST_F(ExecutorTest, WhereFilter) {
  auto result = Run("SELECT cid FROM Consumer WHERE district = 'north'");
  EXPECT_EQ(result.rows.size(), 2u);
}

TEST_F(ExecutorTest, InternalJoin) {
  auto result = Run(
      "SELECT C.district, P.cons FROM Consumer C, Power P "
      "WHERE C.cid = P.cid");
  EXPECT_EQ(result.rows.size(), 8u);  // 4 consumers x 2 readings
}

TEST_F(ExecutorTest, CartesianWithoutPredicate) {
  auto result = Run("SELECT C.cid FROM Consumer C, Power P");
  EXPECT_EQ(result.rows.size(), 32u);  // 4 x 8
}

TEST_F(ExecutorTest, GroupByWithJoin) {
  auto result = Run(
      "SELECT C.district, AVG(P.cons), COUNT(*) FROM Consumer C, Power P "
      "WHERE C.cid = P.cid GROUP BY C.district");
  ASSERT_EQ(result.rows.size(), 2u);
  // Groups come out in key order: north then south.
  EXPECT_EQ(result.rows[0].at(0).AsString(), "north");
  // north: cons = 10,11,20,21 -> avg 15.5 over 4 rows.
  EXPECT_DOUBLE_EQ(result.rows[0].at(1).AsDouble(), 15.5);
  EXPECT_EQ(result.rows[0].at(2).AsInt64(), 4);
  // south: cons = 30,31,40,41 -> avg 35.5.
  EXPECT_DOUBLE_EQ(result.rows[1].at(1).AsDouble(), 35.5);
}

TEST_F(ExecutorTest, Having) {
  auto result = Run(
      "SELECT district, COUNT(*) FROM Consumer GROUP BY district "
      "HAVING COUNT(*) > 5");
  EXPECT_TRUE(result.rows.empty());
  result = Run(
      "SELECT district, COUNT(*) FROM Consumer GROUP BY district "
      "HAVING COUNT(*) >= 2");
  EXPECT_EQ(result.rows.size(), 2u);
}

TEST_F(ExecutorTest, HavingOnAggregateNotInSelect) {
  auto result = Run(
      "SELECT district FROM Consumer GROUP BY district "
      "HAVING COUNT(DISTINCT cid) >= 2");
  EXPECT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(result.rows[0].size(), 1u);  // only district projected
}

TEST_F(ExecutorTest, GlobalAggregate) {
  auto result = Run("SELECT COUNT(*), MIN(cons), MAX(cons) FROM Power");
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0].at(0).AsInt64(), 8);
  EXPECT_DOUBLE_EQ(result.rows[0].at(1).AsDouble(), 10.0);
  EXPECT_DOUBLE_EQ(result.rows[0].at(2).AsDouble(), 41.0);
}

TEST_F(ExecutorTest, ExpressionOverAggregates) {
  auto result =
      Run("SELECT district, MAX(cid) - MIN(cid) AS spread FROM Consumer "
          "GROUP BY district");
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(result.rows[0].at(1).AsInt64(), 1);
  EXPECT_EQ(result.schema.column(1).name, "spread");
}

TEST_F(ExecutorTest, EmptyInput) {
  auto result = Run("SELECT cid FROM Consumer WHERE cid > 100");
  EXPECT_TRUE(result.rows.empty());
  // Group-by over empty input: no groups, no rows.
  result = Run("SELECT district, COUNT(*) FROM Consumer WHERE cid > 100 "
               "GROUP BY district");
  EXPECT_TRUE(result.rows.empty());
}

TEST_F(ExecutorTest, CollectionTuplesLayout) {
  auto q = AnalyzeSql(
      "SELECT district, AVG(cid) FROM Consumer GROUP BY district",
      db_.catalog()).ValueOrDie();
  auto tuples = CollectionTuples(db_, q).ValueOrDie();
  ASSERT_EQ(tuples.size(), 4u);          // one per consumer row
  ASSERT_EQ(tuples[0].size(), 2u);       // [district, cid]
  EXPECT_EQ(tuples[0].at(0).type(), ValueType::kString);
  EXPECT_EQ(tuples[0].at(1).type(), ValueType::kInt64);
}

TEST_F(ExecutorTest, SameRowsComparator) {
  auto a = Run("SELECT cid FROM Consumer");
  auto b = a;
  std::reverse(b.rows.begin(), b.rows.end());
  EXPECT_TRUE(a.SameRows(b));  // order-insensitive
  EXPECT_FALSE(a.SameRowsInOrder(b));
  EXPECT_TRUE(a.SameRowsInOrder(a));
  b.rows.pop_back();
  EXPECT_FALSE(a.SameRows(b));
  auto c = Run("SELECT cid FROM Consumer");
  c.rows[0] = Tuple({Value::Int64(999)});
  EXPECT_FALSE(a.SameRows(c));
}

TEST_F(ExecutorTest, OrderByTiesBreakOnTheFullRow) {
  // Two consumers per district tie on the ORDER BY key. In whichever order
  // the rows arrive, ties sort by the full row, so LIMIT keeps the same rows
  // in the same order.
  auto q = AnalyzeSql(
               "SELECT district, cid FROM Consumer ORDER BY district DESC "
               "LIMIT 3",
               db_.catalog())
               .ValueOrDie();
  QueryResult in_order, reversed;
  in_order.rows = CollectionTuples(db_, q).ValueOrDie();
  reversed.rows = in_order.rows;
  std::reverse(reversed.rows.begin(), reversed.rows.end());
  ASSERT_TRUE(ApplyOrderAndLimit(q, &in_order).ok());
  ASSERT_TRUE(ApplyOrderAndLimit(q, &reversed).ok());
  ASSERT_EQ(in_order.rows.size(), 3u);
  EXPECT_EQ(in_order.rows[0].at(1).AsInt64(), 2);
  EXPECT_EQ(in_order.rows[1].at(1).AsInt64(), 3);
  EXPECT_EQ(in_order.rows[2].at(1).AsInt64(), 0);
  EXPECT_TRUE(reversed.SameRowsInOrder(in_order));
}

TEST_F(ExecutorTest, SameRowsToleratesFloatJitter) {
  QueryResult a, b;
  a.rows.push_back(Tuple({Value::Double(1.0)}));
  b.rows.push_back(Tuple({Value::Double(1.0 + 1e-13)}));
  EXPECT_TRUE(a.SameRows(b));
  b.rows[0] = Tuple({Value::Double(1.001)});
  EXPECT_FALSE(a.SameRows(b));
}


TEST_F(ExecutorTest, NullGroupKeysFormOneGroup) {
  // NULL grouping values group together (IsSameGroup semantics), unlike
  // NULL equality in WHERE.
  auto* consumer = db_.GetTable("Consumer").ValueOrDie();
  ASSERT_TRUE(consumer->Insert(Tuple({Value::Int64(90), Value::Null()})).ok());
  ASSERT_TRUE(consumer->Insert(Tuple({Value::Int64(91), Value::Null()})).ok());
  auto result = Run("SELECT district, COUNT(*) FROM Consumer GROUP BY district");
  ASSERT_EQ(result.rows.size(), 3u);  // north, south, NULL
  int64_t null_count = 0;
  for (const auto& row : result.rows) {
    if (row.at(0).is_null()) null_count = row.at(1).AsInt64();
  }
  EXPECT_EQ(null_count, 2);
}

TEST_F(ExecutorTest, ThreeTableJoin) {
  ASSERT_TRUE(db_.CreateTable("Tariff", Schema({{"district", ValueType::kString},
                                                {"rate", ValueType::kDouble}}))
                  .ok());
  auto* tariff = db_.GetTable("Tariff").ValueOrDie();
  ASSERT_TRUE(tariff->Insert(Tuple({Value::String("north"), Value::Double(2.0)})).ok());
  ASSERT_TRUE(tariff->Insert(Tuple({Value::String("south"), Value::Double(3.0)})).ok());

  auto result = Run(
      "SELECT C.district, SUM(P.cons * T.rate) FROM Consumer C, Power P, "
      "Tariff T WHERE C.cid = P.cid AND C.district = T.district "
      "GROUP BY C.district");
  ASSERT_EQ(result.rows.size(), 2u);
  // north: (10+11+20+21) * 2 = 124; south: (30+31+40+41) * 3 = 426.
  EXPECT_DOUBLE_EQ(result.rows[0].at(1).AsDouble(), 124.0);
  EXPECT_DOUBLE_EQ(result.rows[1].at(1).AsDouble(), 426.0);
}

TEST_F(ExecutorTest, AggregateOfExpression) {
  auto result = Run("SELECT district, SUM(cid * 2 + 1) FROM Consumer "
                    "GROUP BY district");
  ASSERT_EQ(result.rows.size(), 2u);
  // north cids {0,1}: 1 + 3 = 4; south cids {2,3}: 5 + 7 = 12.
  EXPECT_EQ(result.rows[0].at(1).AsInt64(), 4);
  EXPECT_EQ(result.rows[1].at(1).AsInt64(), 12);
}

TEST_F(ExecutorTest, MedianEndToEnd) {
  auto result = Run("SELECT MEDIAN(cons) FROM Power");
  ASSERT_EQ(result.rows.size(), 1u);
  // cons sorted: 10,11,20,21,30,31,40,41 -> lower median 21.
  EXPECT_DOUBLE_EQ(result.rows[0].at(0).AsDouble(), 21.0);
}

}  // namespace
}  // namespace tcells::sql
