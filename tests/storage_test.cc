// Tests for src/storage: Value semantics, tuple encoding, schema/catalog,
// catalog interning, table type checking.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "common/strings.h"
#include "storage/schema.h"
#include "storage/table.h"
#include "storage/tuple.h"
#include "storage/value.h"
#include "workload/generic.h"

namespace tcells::storage {
namespace {

// ---------------------------------------------------------------------------
// Value

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Bool(true).type(), ValueType::kBool);
  EXPECT_EQ(Value::Int64(-7).AsInt64(), -7);
  EXPECT_EQ(Value::Double(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value::String("x").AsString(), "x");
  EXPECT_TRUE(Value::Int64(1).is_numeric());
  EXPECT_TRUE(Value::Double(1).is_numeric());
  EXPECT_FALSE(Value::String("1").is_numeric());
}

TEST(ValueTest, CrossTypeNumericEquality) {
  EXPECT_TRUE(Value::Int64(3).Equals(Value::Double(3.0)));
  EXPECT_FALSE(Value::Int64(3).Equals(Value::Double(3.5)));
  EXPECT_FALSE(Value::Int64(3).Equals(Value::String("3")));
}

TEST(ValueTest, NullEqualitySemantics) {
  EXPECT_FALSE(Value::Null().Equals(Value::Null()));
  EXPECT_FALSE(Value::Null().Equals(Value::Int64(0)));
  EXPECT_TRUE(Value::Null().IsSameGroup(Value::Null()));
  EXPECT_FALSE(Value::Null().IsSameGroup(Value::Int64(0)));
}

TEST(ValueTest, Compare) {
  EXPECT_LT(Value::Int64(1).Compare(Value::Int64(2)).ValueOrDie(), 0);
  EXPECT_EQ(Value::Int64(2).Compare(Value::Double(2.0)).ValueOrDie(), 0);
  EXPECT_GT(Value::String("b").Compare(Value::String("a")).ValueOrDie(), 0);
  EXPECT_LT(Value::Null().Compare(Value::Int64(-100)).ValueOrDie(), 0);
  EXPECT_FALSE(Value::String("x").Compare(Value::Int64(1)).ok());
}

TEST(ValueTest, ToDouble) {
  EXPECT_EQ(Value::Int64(4).ToDouble().ValueOrDie(), 4.0);
  EXPECT_EQ(Value::Double(4.5).ToDouble().ValueOrDie(), 4.5);
  EXPECT_FALSE(Value::String("4").ToDouble().ok());
  EXPECT_FALSE(Value::Null().ToDouble().ok());
}

TEST(ValueTest, EncodeDecodeRoundTrip) {
  std::vector<Value> values = {
      Value::Null(), Value::Bool(false), Value::Bool(true),
      Value::Int64(0), Value::Int64(-123456789), Value::Double(-0.25),
      Value::String(""), Value::String("héllo wörld"),
  };
  for (const auto& v : values) {
    Bytes buf;
    v.EncodeTo(&buf);
    ByteReader r(buf);
    Value back = Value::DecodeFrom(&r).ValueOrDie();
    EXPECT_TRUE(v.IsSameGroup(back)) << v.ToString();
    EXPECT_TRUE(r.AtEnd());
  }
}

TEST(ValueTest, EqualValuesEncodeIdentically) {
  // Required by Det_Enc tags and bucket hashing.
  Bytes a, b;
  Value::String("district-9").EncodeTo(&a);
  Value::String("district-9").EncodeTo(&b);
  EXPECT_EQ(a, b);
}

TEST(ValueTest, MapOrderingIsTotal) {
  std::vector<Value> values = {Value::Null(), Value::Bool(true),
                               Value::Int64(5), Value::Double(1.5),
                               Value::String("s")};
  for (const auto& a : values) {
    for (const auto& b : values) {
      int lt = a < b, gt = b < a;
      if (a.IsSameGroup(b)) {
        EXPECT_FALSE(lt || gt);
      } else {
        EXPECT_EQ(lt + gt, 1);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Tuple

TEST(TupleTest, EncodeDecodeRoundTrip) {
  Tuple t({Value::Int64(1), Value::String("a"), Value::Null(),
           Value::Double(2.5)});
  Bytes encoded = t.Encode();
  Tuple back = Tuple::Decode(encoded.data(), encoded.size()).ValueOrDie();
  EXPECT_TRUE(t.IsSameGroup(back));
}

TEST(TupleTest, DecodeRejectsTrailingBytes) {
  Bytes buf = Tuple({Value::Int64(1)}).Encode();
  buf.push_back(0);
  EXPECT_FALSE(Tuple::Decode(buf.data(), buf.size()).ok());
}

TEST(TupleTest, Concat) {
  Tuple a({Value::Int64(1)});
  Tuple b({Value::String("x"), Value::Int64(2)});
  Tuple c = Tuple::Concat(a, b);
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c.at(1).AsString(), "x");
}

TEST(TupleTest, GroupEquality) {
  Tuple a({Value::Int64(1), Value::Null()});
  Tuple b({Value::Int64(1), Value::Null()});
  Tuple c({Value::Int64(1), Value::Int64(0)});
  EXPECT_TRUE(a.IsSameGroup(b));
  EXPECT_FALSE(a.IsSameGroup(c));
  EXPECT_FALSE(a.IsSameGroup(Tuple({Value::Int64(1)})));
}

// ---------------------------------------------------------------------------
// Schema / Catalog

TEST(SchemaTest, FindColumnCaseInsensitive) {
  Schema s({{"Cid", ValueType::kInt64}, {"District", ValueType::kString}});
  EXPECT_EQ(s.FindColumn("cid").value(), 0u);
  EXPECT_EQ(s.FindColumn("DISTRICT").value(), 1u);
  EXPECT_FALSE(s.FindColumn("nope").has_value());
}

TEST(SchemaTest, Concat) {
  Schema a({{"x", ValueType::kInt64}});
  Schema b({{"y", ValueType::kString}});
  Schema c = Schema::Concat(a, b);
  EXPECT_EQ(c.num_columns(), 2u);
  EXPECT_EQ(c.column(1).name, "y");
}

TEST(CatalogTest, AddAndLookup) {
  Catalog cat;
  ASSERT_TRUE(cat.AddTable("T", Schema({{"a", ValueType::kInt64}})).ok());
  EXPECT_EQ(cat.FindTable("t").ValueOrDie(), 0u);
  EXPECT_EQ(cat.table(0).name, "T");
  EXPECT_EQ(cat.table(0).schema.column(0).name, "a");
  EXPECT_TRUE(cat.FindTable("U").status().IsNotFound());
  EXPECT_FALSE(cat.AddTable("t", Schema()).ok());  // duplicate
}

TEST(CatalogTest, PositionsFollowTheLowerCasedNames) {
  Catalog cat;
  ASSERT_TRUE(cat.AddTable("Vitals", Schema()).ok());
  ASSERT_TRUE(cat.AddTable("patient", Schema()).ok());
  ASSERT_TRUE(cat.AddTable("Alerts", Schema()).ok());
  ASSERT_EQ(cat.num_tables(), 3u);
  EXPECT_EQ(cat.table(0).name, "Alerts");
  EXPECT_EQ(cat.table(1).name, "patient");
  EXPECT_EQ(cat.table(2).name, "Vitals");
  // The same tables added in another order are the same catalog.
  Catalog sorted;
  ASSERT_TRUE(sorted.AddTable("Alerts", Schema()).ok());
  ASSERT_TRUE(sorted.AddTable("patient", Schema()).ok());
  ASSERT_TRUE(sorted.AddTable("Vitals", Schema()).ok());
  EXPECT_EQ(cat, sorted);
}

// ---------------------------------------------------------------------------
// Table / Database

/// A database with the one table "T" of `schema`.
Database OneTableDb(Schema schema) {
  Database db;
  EXPECT_TRUE(db.CreateTable("T", std::move(schema)).ok());
  return db;
}

TEST(TableTest, InsertTypeChecking) {
  Database db = OneTableDb(
      Schema({{"a", ValueType::kInt64}, {"b", ValueType::kString}}));
  Table* t = db.GetTable("T").ValueOrDie();
  EXPECT_TRUE(t->Insert(Tuple({Value::Int64(1), Value::String("x")})).ok());
  EXPECT_TRUE(t->Insert(Tuple({Value::Null(), Value::Null()})).ok());
  EXPECT_FALSE(
      t->Insert(Tuple({Value::String("bad"), Value::String("x")})).ok());
  EXPECT_FALSE(t->Insert(Tuple({Value::Int64(1)})).ok());  // arity
  EXPECT_EQ(t->num_rows(), 2u);
}


TEST(TableTest, NanRejectedAtStorageBoundary) {
  Database db = OneTableDb(Schema({{"d", ValueType::kDouble}}));
  Table* t = db.GetTable("T").ValueOrDie();
  EXPECT_TRUE(t->Insert(Tuple({Value::Double(1.5)})).ok());
  EXPECT_FALSE(
      t->Insert(Tuple({Value::Double(std::nan(""))})).ok());
  EXPECT_TRUE(
      t->Insert(Tuple({Value::Double(
                   std::numeric_limits<double>::infinity())}))
          .ok());  // infinities order fine
  EXPECT_EQ(t->num_rows(), 2u);
}

// ---------------------------------------------------------------------------
// Hostile-input hardening regressions (pinned by fuzz/fuzz_storage.cc)

TEST(TupleWireTest, ArityLargerThanBufferRejectedBeforeReserve) {
  // A 2-byte input declaring 65535 values used to reserve ~3MB of Value
  // slots before the first read failed; the decoder must now reject the
  // arity against the remaining bytes up front.
  Bytes hostile = {0xff, 0xff};
  auto result = Tuple::Decode(hostile.data(), hostile.size());
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCorruption());

  // Arity 3 with only one encoded value present.
  Tuple one(std::vector<Value>{Value::Int64(7)});
  Bytes encoded = one.Encode();
  encoded[0] = 3;
  EXPECT_FALSE(Tuple::Decode(encoded.data(), encoded.size()).ok());
}

TEST(TupleWireTest, TrailingBytesRejected) {
  Tuple t(std::vector<Value>{Value::Int64(7), Value::String("x")});
  Bytes encoded = t.Encode();
  encoded.push_back(0);
  EXPECT_FALSE(Tuple::Decode(encoded.data(), encoded.size()).ok());
}

TEST(TupleWireTest, NonCanonicalBoolByteRejected) {
  // EncodeTo writes bools as exactly 0 or 1. The decoder used to accept any
  // nonzero payload byte as true, so {..., 2} decoded fine but re-encoded to
  // {..., 1} — a non-canonical accepted encoding found by fuzz_storage's
  // re-encode assert.
  Tuple t(std::vector<Value>{Value::Bool(true)});
  Bytes encoded = t.Encode();
  EXPECT_TRUE(Tuple::Decode(encoded.data(), encoded.size()).ok());
  encoded.back() = 2;
  auto result = Tuple::Decode(encoded.data(), encoded.size());
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCorruption());
}

TEST(TupleWireTest, UnknownValueTagRejected) {
  Bytes hostile = {1, 0, 250};  // arity 1, value tag 250
  auto result = Tuple::Decode(hostile.data(), hostile.size());
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCorruption());
}

TEST(DatabaseTest, CreateAndGet) {
  Database db;
  ASSERT_TRUE(db.CreateTable("A", Schema({{"x", ValueType::kInt64}})).ok());
  ASSERT_TRUE(db.CreateTable("B", Schema({{"y", ValueType::kInt64}})).ok());
  EXPECT_TRUE(db.GetTable("a").ok());
  EXPECT_TRUE(db.GetTable("c").status().IsNotFound());
  EXPECT_FALSE(db.CreateTable("A", Schema()).ok());
  EXPECT_EQ(db.catalog().num_tables(), 2u);
}

TEST(DatabaseTest, TablesCreatedOutOfNameOrderKeepTheirOwnRowsAndSchema) {
  // Creation order is not catalog order: each CreateTable here inserts its
  // table before the filled ones, which move with their rows and re-point
  // at the new catalog. Table i has i + 1 columns and i + 1 rows; row r
  // holds r in each column.
  Database db;
  const char* names[] = {"Vitals", "Patient", "Alerts"};
  const char* columns[] = {"a", "b", "c"};
  for (size_t i = 0; i < 3; ++i) {
    std::vector<Column> cols;
    for (size_t c = 0; c <= i; ++c) {
      cols.push_back({columns[c], ValueType::kInt64});
    }
    ASSERT_TRUE(db.CreateTable(names[i], Schema(std::move(cols))).ok());
    Table* t = db.GetTable(names[i]).ValueOrDie();
    for (size_t r = 0; r <= i; ++r) {
      Tuple row;
      for (size_t c = 0; c <= i; ++c) {
        row.Append(Value::Int64(static_cast<int64_t>(r)));
      }
      ASSERT_TRUE(t->Insert(std::move(row)).ok());
    }
  }
  for (size_t i = 0; i < 3; ++i) {
    const std::string lower = ToLower(names[i]);
    const Database& view = db;
    const Table* t = view.GetTable(lower).ValueOrDie();
    EXPECT_EQ(t->name(), names[i]);
    EXPECT_EQ(t->schema().num_columns(), i + 1);
    EXPECT_EQ(&t->schema(),
              &db.catalog()
                   .table(db.catalog().FindTable(names[i]).ValueOrDie())
                   .schema);
    ASSERT_EQ(t->num_rows(), i + 1);
    EXPECT_EQ(t->row(i).at(i).AsInt64(), static_cast<int64_t>(i));
  }
  EXPECT_EQ(db.catalog().table(0).name, "Alerts");
  EXPECT_EQ(&db.table(0), db.GetTable("ALERTS").ValueOrDie());
}

TEST(DatabaseTest, InsertErrorsNameTheTableAndTheColumn) {
  Database db;
  ASSERT_TRUE(db.CreateTable("Vitals", Schema({{"pid", ValueType::kInt64},
                                               {"bpm", ValueType::kDouble}}))
                  .ok());
  ASSERT_TRUE(db.CreateTable("Alerts", Schema({{"pid", ValueType::kInt64}}))
                  .ok());
  Table* vitals = db.GetTable("vitals").ValueOrDie();

  Status arity = vitals->Insert(Tuple({Value::Int64(1)}));
  EXPECT_TRUE(arity.IsInvalidArgument());
  EXPECT_EQ(arity.message(), "arity mismatch inserting into Vitals");

  Status type = vitals->Insert(Tuple({Value::Int64(1), Value::String("x")}));
  EXPECT_EQ(type.message(),
            "type mismatch in column Vitals.bpm: expected DOUBLE, got STRING");

  Status nan =
      vitals->Insert(Tuple({Value::Int64(1), Value::Double(std::nan(""))}));
  EXPECT_EQ(nan.message(), "NaN is not storable in column Vitals.bpm");
}

// ---------------------------------------------------------------------------
// Catalog interning: databases of one shape share one Catalog instance.

Database GenericDb() {
  Database db;
  EXPECT_TRUE(db.CreateTable("T", workload::GenericSchema()).ok());
  return db;
}

/// GenericSchema with column `i` replaced by `col`.
Schema GenericSchemaWith(size_t i, Column col) {
  std::vector<Column> cols = workload::GenericSchema().columns();
  cols[i] = std::move(col);
  return Schema(std::move(cols));
}

TEST(CatalogInterningTest, SameShapeDatabasesShareOneCatalog) {
  Database a = GenericDb();
  Database b = GenericDb();
  EXPECT_EQ(a.shared_catalog().get(), b.shared_catalog().get());
  EXPECT_EQ(&a.catalog(), &b.catalog());
  // Two empty databases share the empty catalog too.
  EXPECT_EQ(Database().shared_catalog().get(),
            Database().shared_catalog().get());
}

TEST(CatalogInterningTest, CreateTableLeavesTheOtherDatabaseUnchanged) {
  Database a = GenericDb();
  Database b = GenericDb();
  const Catalog* shared = b.shared_catalog().get();
  ASSERT_TRUE(a.CreateTable("U", Schema({{"x", ValueType::kInt64}})).ok());

  EXPECT_NE(a.shared_catalog().get(), shared);
  EXPECT_TRUE(a.GetTable("U").ok());
  ASSERT_EQ(a.catalog().num_tables(), 2u);
  EXPECT_EQ(a.catalog().table(0).name, "T");
  EXPECT_EQ(a.catalog().table(1).name, "U");

  EXPECT_EQ(b.shared_catalog().get(), shared);
  EXPECT_FALSE(b.catalog().FindTable("U").ok());
  EXPECT_FALSE(b.GetTable("U").ok());
  EXPECT_EQ(b.catalog().num_tables(), 1u);
  EXPECT_TRUE(b.GetTable("T").ok());
}

TEST(CatalogInterningTest, TypeOrCaseDifferencesAreDistinctInstances) {
  Database base = GenericDb();
  Database retyped;
  ASSERT_TRUE(retyped
                  .CreateTable("T", GenericSchemaWith(
                                        2, {"val", ValueType::kInt64}))
                  .ok());
  Database column_case;
  ASSERT_TRUE(column_case
                  .CreateTable("T", GenericSchemaWith(
                                        1, {"GRP", ValueType::kString}))
                  .ok());
  Database table_case;
  ASSERT_TRUE(table_case.CreateTable("t", workload::GenericSchema()).ok());

  const Catalog* instances[] = {
      base.shared_catalog().get(), retyped.shared_catalog().get(),
      column_case.shared_catalog().get(), table_case.shared_catalog().get()};
  for (size_t i = 0; i < 4; ++i) {
    for (size_t j = i + 1; j < 4; ++j) {
      EXPECT_NE(instances[i], instances[j]) << i << " vs " << j;
    }
  }
  // Each differing catalog is itself interned: a second copy of its shape
  // lands on it.
  Database retyped_again;
  ASSERT_TRUE(retyped_again
                  .CreateTable("T", GenericSchemaWith(
                                        2, {"val", ValueType::kInt64}))
                  .ok());
  EXPECT_EQ(retyped_again.shared_catalog().get(), instances[1]);
}

}  // namespace
}  // namespace tcells::storage
