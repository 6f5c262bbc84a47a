// Robustness under malformed and adversarial bytes: everything that parses
// untrusted input (payload decoding, tuple decoding, ciphertext decryption,
// partial-aggregation decoding, the SQL front-end) must return an error —
// never crash, hang or read out of bounds — for arbitrary inputs. The SSI is
// honest-but-curious in the threat model, but a robust implementation treats
// every inbound byte as hostile.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "crypto/keystore.h"
#include "sql/aggregates.h"
#include "sql/parser.h"
#include "ssi/messages.h"
#include "tds/access_control.h"
#include "tds/tds.h"
#include "workload/generic.h"

namespace tcells {
namespace {

using storage::Tuple;
using storage::Value;

TEST(RobustnessTest, RandomBytesIntoDecoders) {
  Rng rng(42);
  std::vector<sql::AggSpec> specs;
  sql::AggSpec spec;
  spec.kind = sql::AggKind::kAvg;
  spec.input_index = 1;
  specs.push_back(spec);

  for (int trial = 0; trial < 2000; ++trial) {
    Bytes junk = rng.NextBytes(rng.NextBelow(64));
    // None of these may crash; success is acceptable only if the bytes
    // happen to form a valid encoding (possible for tiny inputs).
    (void)ssi::DecodePayloadView(junk);
    (void)Tuple::Decode(junk.data(), junk.size());
    (void)sql::GroupedAggregation::Decode(specs, junk);
  }
}

TEST(RobustnessTest, AdversarialLengthPrefixes) {
  // A length prefix claiming 4 GB must not allocate/scan 4 GB.
  Bytes evil;
  ByteWriter w(&evil);
  w.PutU8(0);              // payload kind: true tuple
  w.PutU32(0xfffffff0u);   // body "length"
  auto decoded = ssi::DecodePayloadView(evil);
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsCorruption());

  Bytes evil_tuple;
  ByteWriter w2(&evil_tuple);
  w2.PutU16(0xffff);  // 65535 values... followed by nothing
  EXPECT_FALSE(Tuple::Decode(evil_tuple.data(), evil_tuple.size()).ok());
}

TEST(RobustnessTest, CiphertextFuzz) {
  auto keys = crypto::KeyStore::CreateForTest(7);
  Rng rng(8);
  for (int trial = 0; trial < 500; ++trial) {
    Bytes junk = rng.NextBytes(rng.NextBelow(96));
    EXPECT_FALSE(keys->k2_ndet().Decrypt(junk).ok());
    EXPECT_FALSE(keys->k2_det().Decrypt(junk).ok());
  }
}

TEST(RobustnessTest, BitflippedCiphertextAlwaysRejected) {
  auto keys = crypto::KeyStore::CreateForTest(9);
  Rng rng(10);
  Bytes pt = rng.NextBytes(64);
  Bytes ct = keys->k2_ndet().Encrypt(pt, &rng);
  for (size_t pos = 0; pos < ct.size(); ++pos) {
    for (uint8_t bit : {uint8_t{1}, uint8_t{0x80}}) {
      Bytes bad = ct;
      bad[pos] ^= bit;
      EXPECT_FALSE(keys->k2_ndet().Decrypt(bad).ok())
          << "flip at byte " << pos;
    }
  }
}

class TamperWorld : public ::testing::Test {
 protected:
  TamperWorld() {
    keys_ = crypto::KeyStore::CreateForTest(11);
    authority_ = std::make_shared<tds::Authority>(Bytes(16, 3));
    server_ = std::make_unique<tds::TrustedDataServer>(
        0, keys_, authority_, tds::AccessPolicy::AllowAll());
    workload::GenericOptions opts;
    Rng data_rng(12);
    EXPECT_TRUE(
        workload::PopulateGenericDb(&server_->db(), 0, opts, &data_rng).ok());
    query_ = sql::AnalyzeSql("SELECT grp, COUNT(*) FROM T GROUP BY grp",
                             server_->db().catalog())
                 .ValueOrDie();
  }

  ssi::EncryptedItem GoodItem(Rng* rng) {
    Tuple t({Value::String("G00")});
    ssi::EncryptedItem item(keys_->k2_ndet().Encrypt(
        ssi::EncodePayload(ssi::PayloadKind::kTrueTuple, t.Encode()), rng));
    return item;
  }

  std::shared_ptr<const crypto::KeyStore> keys_;
  std::shared_ptr<tds::Authority> authority_;
  std::unique_ptr<tds::TrustedDataServer> server_;
  sql::AnalyzedQuery query_;
};

TEST_F(TamperWorld, TamperedPartitionItemIsCorruption) {
  Rng rng(13);
  ssi::Partition partition;
  partition.items.push_back(GoodItem(&rng));
  // A "malicious SSI" flips a bit: items are immutable, so it serves a
  // flipped copy in place of the good one.
  const ssi::EncryptedItem good = GoodItem(&rng);
  Bytes flipped(good.blob().begin(), good.blob().end());
  flipped[8] ^= 0x40;
  partition.items.push_back(ssi::EncryptedItem(flipped));
  auto result = server_->ProcessAggregationPartition(
      query_, partition, tds::OutputTagPolicy::kNone, {}, &rng);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCorruption());
}

TEST_F(TamperWorld, WrongChannelItemRejected) {
  Rng rng(14);
  // An item encrypted under k1 smuggled into a k2 partition.
  Tuple t({Value::String("G00")});
  ssi::EncryptedItem item(keys_->k1_ndet().Encrypt(
      ssi::EncodePayload(ssi::PayloadKind::kTrueTuple, t.Encode()), &rng));
  ssi::Partition partition;
  partition.items.push_back(std::move(item));
  EXPECT_FALSE(server_
                   ->ProcessAggregationPartition(
                       query_, partition, tds::OutputTagPolicy::kNone, {},
                       &rng)
                   .ok());
}

TEST_F(TamperWorld, ResultRowInAggregationRejected) {
  Rng rng(15);
  Tuple t({Value::String("G00")});
  ssi::EncryptedItem item(keys_->k2_ndet().Encrypt(
      ssi::EncodePayload(ssi::PayloadKind::kResultRow, t.Encode()), &rng));
  ssi::Partition partition;
  partition.items.push_back(std::move(item));
  auto result = server_->ProcessAggregationPartition(
      query_, partition, tds::OutputTagPolicy::kNone, {}, &rng);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCorruption());
}

TEST(RobustnessTest, ParserFuzzNeverCrashes) {
  Rng rng(16);
  const char alphabet[] =
      "abcXYZ0123456789 ,.*()'<>=+-/%_\t\nSELECTFROMWHEREGROUPBYHAVINGSIZE";
  for (int trial = 0; trial < 3000; ++trial) {
    size_t len = rng.NextBelow(60);
    std::string s;
    for (size_t i = 0; i < len; ++i) {
      s.push_back(alphabet[rng.NextBelow(sizeof(alphabet) - 1)]);
    }
    auto parsed = sql::Parse(s);
    if (parsed.ok()) {
      // Accepted inputs must round-trip through their rendering.
      auto again = sql::Parse(parsed->ToString());
      ASSERT_TRUE(again.ok()) << s;
      EXPECT_EQ(parsed->ToString(), again->ToString());
    }
  }
}


// Random expression trees rendered to SQL must re-parse to the identical
// rendering (generator-driven round-trip, stronger than random strings).
// Two-level generator mirrors the grammar: predicates over arithmetic terms.
sql::ExprPtr RandomArith(Rng* rng, int depth) {
  using sql::MakeBinary;
  using sql::MakeColumnRef;
  using sql::MakeLiteral;
  if (depth <= 0 || rng->NextBool(0.4)) {
    switch (rng->NextBelow(3)) {
      case 0: return MakeLiteral(Value::Int64(rng->NextInRange(0, 9)));
      case 1: return MakeLiteral(Value::Double(
                   static_cast<double>(rng->NextInRange(0, 50)) / 4.0));
      default:
        return MakeColumnRef("", "c" + std::to_string(rng->NextBelow(3)));
    }
  }
  sql::BinaryOp op = rng->NextBool() ? sql::BinaryOp::kAdd
                                     : sql::BinaryOp::kMul;
  return MakeBinary(op, RandomArith(rng, depth - 1),
                    RandomArith(rng, depth - 1));
}

sql::ExprPtr RandomPredicate(Rng* rng, int depth) {
  using sql::MakeBinary;
  if (depth <= 0 || rng->NextBool(0.3)) {
    sql::BinaryOp op = rng->NextBool() ? sql::BinaryOp::kLe
                                       : sql::BinaryOp::kGt;
    return MakeBinary(op, RandomArith(rng, 2), RandomArith(rng, 2));
  }
  switch (rng->NextBelow(4)) {
    case 0:
      return MakeBinary(sql::BinaryOp::kAnd, RandomPredicate(rng, depth - 1),
                        RandomPredicate(rng, depth - 1));
    case 1:
      return MakeBinary(sql::BinaryOp::kOr, RandomPredicate(rng, depth - 1),
                        RandomPredicate(rng, depth - 1));
    case 2:
      return sql::MakeUnary(sql::UnaryOp::kNot,
                            RandomPredicate(rng, depth - 1));
    default:
      return sql::MakeIsNull(RandomArith(rng, 2), rng->NextBool());
  }
}

TEST(RobustnessTest, GeneratedExpressionRoundTrip) {
  Rng rng(77);
  for (int trial = 0; trial < 300; ++trial) {
    auto expr = RandomPredicate(&rng, 4);
    std::string sql = "SELECT c0 FROM t WHERE " + expr->ToString();
    auto parsed = sql::Parse(sql);
    ASSERT_TRUE(parsed.ok()) << sql;
    auto again = sql::Parse(parsed->ToString());
    ASSERT_TRUE(again.ok()) << parsed->ToString();
    EXPECT_EQ(parsed->ToString(), again->ToString()) << sql;
  }
}

TEST(RobustnessTest, DeepExpressionNesting) {
  // 200 nested parentheses: must parse (or fail) without stack issues.
  std::string sql = "SELECT a FROM t WHERE ";
  for (int i = 0; i < 200; ++i) sql += "(";
  sql += "a = 1";
  for (int i = 0; i < 200; ++i) sql += ")";
  auto parsed = sql::Parse(sql);
  EXPECT_TRUE(parsed.ok());
}

TEST(RobustnessTest, AggStateDecodeFuzzWithPlausiblePrefix) {
  // Start from a valid encoding and mutate single bytes: decode must never
  // crash, and when it succeeds, Finalize must not crash either.
  sql::AggSpec spec;
  spec.kind = sql::AggKind::kMedian;
  spec.input_index = 0;
  sql::AggState s(spec);
  Rng rng(17);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(s.Accumulate(Value::Int64(rng.NextInRange(0, 9))).ok());
  }
  Bytes good;
  s.EncodeTo(&good);
  for (size_t pos = 0; pos < good.size(); ++pos) {
    Bytes bad = good;
    bad[pos] ^= 0xff;
    ByteReader reader(bad);
    auto decoded = sql::AggState::DecodeFrom(spec, &reader);
    if (decoded.ok()) {
      (void)decoded->Finalize();
    }
  }
}

}  // namespace
}  // namespace tcells
