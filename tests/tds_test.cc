// Tests for the TDS: access control, histogram, collection-phase encodings
// (including dummy and noise behaviour), aggregation and filtering steps.
#include <gtest/gtest.h>

#include <latch>
#include <set>
#include <thread>

#include "crypto/keystore.h"
#include "keys/key_authority.h"
#include "keys/tds_keys.h"
#include "ssi/ssi.h"
#include "tds/access_control.h"
#include "tds/histogram.h"
#include "tds/query_cache.h"
#include "tds/tds.h"
#include "workload/generic.h"

namespace tcells::tds {
namespace {

using ssi::EncryptedItem;
using ssi::PayloadKind;
using storage::Tuple;
using storage::Value;

Bytes BlobOf(const EncryptedItem& item) {
  return Bytes(item.blob().begin(), item.blob().end());
}

std::optional<Bytes> TagOf(const EncryptedItem& item) {
  if (!item.routing_tag()) return std::nullopt;
  return Bytes(item.routing_tag()->begin(), item.routing_tag()->end());
}

/// The A_G domain G00, G01, ... of the generic workload.
std::shared_ptr<const std::vector<Tuple>> GroupDomain(size_t num_groups) {
  auto domain = std::make_shared<std::vector<Tuple>>();
  for (size_t g = 0; g < num_groups; ++g) {
    domain->push_back(Tuple({Value::String(workload::GroupName(g))}));
  }
  return domain;
}

// ---------------------------------------------------------------------------
// Authority / AccessPolicy

TEST(AuthorityTest, IssueVerify) {
  Authority authority(Bytes(16, 0x42));
  Bytes cred = authority.Issue("energy-co");
  EXPECT_TRUE(authority.Verify("energy-co", cred));
  EXPECT_FALSE(authority.Verify("mallory", cred));
  Bytes bad = cred;
  bad[0] ^= 1;
  EXPECT_FALSE(authority.Verify("energy-co", bad));
}

TEST(AuthorityTest, RejectsAlteredCredentials) {
  Authority authority(Bytes(16, 0x42));
  const Bytes cred = authority.Issue("energy-co");
  ASSERT_EQ(cred.size(), 32u);
  EXPECT_TRUE(authority.Verify("energy-co", cred));

  EXPECT_FALSE(authority.Verify("energy-co", Bytes()));
  Bytes truncated(cred.begin(), cred.end() - 1);
  EXPECT_FALSE(authority.Verify("energy-co", truncated));
  Bytes extended = cred;
  extended.push_back(0);
  EXPECT_FALSE(authority.Verify("energy-co", extended));
  for (size_t bit = 0; bit < 8 * cred.size(); ++bit) {
    Bytes flipped = cred;
    flipped[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    EXPECT_FALSE(authority.Verify("energy-co", flipped)) << "bit " << bit;
  }
  EXPECT_FALSE(authority.Verify("energy-co", authority.Issue("mallory")));
  // Another authority's credential for the same querier.
  EXPECT_FALSE(authority.Verify("energy-co",
                                Authority(Bytes(16, 0x43)).Issue("energy-co")));
}

class PolicyTest : public ::testing::Test {
 protected:
  PolicyTest() {
    EXPECT_TRUE(catalog_.AddTable("T", workload::GenericSchema()).ok());
  }
  sql::AnalyzedQuery Analyze(const std::string& sql) {
    return sql::AnalyzeSql(sql, catalog_).ValueOrDie();
  }
  storage::Catalog catalog_;
};

TEST_F(PolicyTest, AllowAllGrantsEverything) {
  auto q = Analyze("SELECT grp, AVG(val) FROM T GROUP BY grp");
  EXPECT_TRUE(AccessPolicy::AllowAll().CheckQuery(q, "anyone").ok());
}

TEST_F(PolicyTest, DenyByDefault) {
  AccessPolicy policy;
  auto q = Analyze("SELECT grp FROM T");
  EXPECT_TRUE(policy.CheckQuery(q, "alice").IsPermissionDenied());
}

TEST_F(PolicyTest, TableRuleGrantsAllColumns) {
  AccessPolicy policy(std::vector<AccessRule>{{"alice", "T", {}}});
  auto q = Analyze("SELECT grp, val FROM T WHERE cat = 1");
  EXPECT_TRUE(policy.CheckQuery(q, "alice").ok());
  EXPECT_FALSE(policy.CheckQuery(q, "bob").ok());
}

TEST_F(PolicyTest, ColumnScopedRule) {
  AccessPolicy policy(std::vector<AccessRule>{{"alice", "T", {"grp", "val"}}});
  EXPECT_TRUE(policy.CheckQuery(Analyze("SELECT grp, AVG(val) FROM T GROUP BY grp"),
                                "alice").ok());
  // cat is referenced in WHERE but not granted.
  EXPECT_FALSE(policy.CheckQuery(
      Analyze("SELECT grp FROM T WHERE cat = 1"), "alice").ok());
}

TEST_F(PolicyTest, WildcardQuerier) {
  AccessPolicy policy(std::vector<AccessRule>{{"*", "T", {"grp"}}});
  EXPECT_TRUE(policy.CheckQuery(Analyze("SELECT grp FROM T"), "anyone").ok());
  EXPECT_FALSE(policy.CheckQuery(Analyze("SELECT val FROM T"), "anyone").ok());
}

TEST_F(PolicyTest, ReferencedColumnsCoverAllClauses) {
  auto q = Analyze(
      "SELECT grp, SUM(val) FROM T WHERE cat > 0 GROUP BY grp "
      "HAVING COUNT(DISTINCT gid) > 1");
  auto refs = ReferencedColumns(q);
  // grp(1), val(2), cat(3), gid(0) all referenced.
  EXPECT_EQ(refs.size(), 4u);
}

// ---------------------------------------------------------------------------
// EquiDepthHistogram

std::map<Tuple, uint64_t> FreqOf(const std::vector<std::pair<int, int>>& kv) {
  std::map<Tuple, uint64_t> freq;
  for (auto [k, v] : kv) {
    freq[Tuple({Value::Int64(k)})] = static_cast<uint64_t>(v);
  }
  return freq;
}

TEST(HistogramTest, UniformSplitsEvenly) {
  auto freq = FreqOf({{0, 10}, {1, 10}, {2, 10}, {3, 10}});
  auto hist = EquiDepthHistogram::Build(freq, 2);
  EXPECT_EQ(hist.num_buckets(), 2u);
  EXPECT_EQ(hist.BucketOf(Tuple({Value::Int64(0)})),
            hist.BucketOf(Tuple({Value::Int64(1)})));
  EXPECT_NE(hist.BucketOf(Tuple({Value::Int64(1)})),
            hist.BucketOf(Tuple({Value::Int64(2)})));
}

TEST(HistogramTest, SkewIsolatesHeavyHitter) {
  // One value carries almost all mass: equi-depth puts it alone.
  auto freq = FreqOf({{0, 1000}, {1, 5}, {2, 5}, {3, 5}});
  auto hist = EquiDepthHistogram::Build(freq, 2);
  uint32_t heavy = hist.BucketOf(Tuple({Value::Int64(0)}));
  EXPECT_NE(heavy, hist.BucketOf(Tuple({Value::Int64(3)})));
}

TEST(HistogramTest, BucketCountClamped) {
  auto freq = FreqOf({{0, 1}, {1, 1}});
  EXPECT_EQ(EquiDepthHistogram::Build(freq, 10).num_buckets(), 2u);
  EXPECT_EQ(EquiDepthHistogram::Build(freq, 0).num_buckets(), 1u);
  EXPECT_EQ(EquiDepthHistogram::Build({}, 4).num_buckets(), 0u);
}

TEST(HistogramTest, EveryBucketNonEmptyAndOrdered) {
  std::map<Tuple, uint64_t> freq;
  Rng rng(5);
  for (int k = 0; k < 50; ++k) {
    freq[Tuple({Value::Int64(k)})] = 1 + rng.NextBelow(20);
  }
  auto hist = EquiDepthHistogram::Build(freq, 7);
  EXPECT_EQ(hist.num_buckets(), 7u);
  std::map<uint32_t, int> per_bucket;
  uint32_t prev = 0;
  for (const auto& [key, f] : freq) {
    uint32_t b = hist.BucketOf(key);
    EXPECT_GE(b, prev);  // monotone in key order
    prev = b;
    per_bucket[b]++;
  }
  EXPECT_EQ(per_bucket.size(), 7u);
}

TEST(HistogramTest, UnseenKeysStillMap) {
  auto freq = FreqOf({{10, 5}, {20, 5}});
  auto hist = EquiDepthHistogram::Build(freq, 2);
  EXPECT_EQ(hist.BucketOf(Tuple({Value::Int64(0)})), 0u);
  EXPECT_EQ(hist.BucketOf(Tuple({Value::Int64(99)})), 1u);
}

// ---------------------------------------------------------------------------
// TrustedDataServer

class TdsTest : public ::testing::Test {
 protected:
  TdsTest()
      : keys_(crypto::KeyStore::CreateForTest(77)),
        authority_(std::make_shared<Authority>(Bytes(16, 1))),
        rng_(123) {
    server_ = std::make_unique<TrustedDataServer>(
        /*id=*/0, keys_, authority_, AccessPolicy::AllowAll());
    workload::GenericOptions opts;
    opts.num_groups = 4;
    Rng data_rng(9);
    EXPECT_TRUE(
        workload::PopulateGenericDb(&server_->db(), 0, opts, &data_rng).ok());
  }

  ssi::QueryPost Post(const std::string& sql, const std::string& querier_id,
                      uint64_t query_id = 1) {
    ssi::QueryPost post;
    post.query_id = query_id;
    Bytes sql_bytes(sql.begin(), sql.end());
    post.encrypted_query = keys_->k1_ndet().Encrypt(sql_bytes, &rng_);
    post.querier_id = querier_id;
    post.credential_mac = authority_->Issue(querier_id);
    return post;
  }

  // A sealed item's payload, its body copied out of the plaintext.
  struct Opened {
    PayloadKind kind;
    Bytes body;
  };
  Opened Open(const EncryptedItem& item) {
    Bytes plain = keys_->k2_ndet().Decrypt(BlobOf(item)).ValueOrDie();
    ssi::PayloadView view = ssi::DecodePayloadView(plain).ValueOrDie();
    return {view.kind, view.ToBytes()};
  }

  std::shared_ptr<const crypto::KeyStore> keys_;
  std::shared_ptr<Authority> authority_;
  Rng rng_;
  std::unique_ptr<TrustedDataServer> server_;
};

TEST_F(TdsTest, CollectionNDetEmitsTrueTuples) {
  CollectionConfig config;  // kNDet
  auto items = server_
                   ->ProcessCollection(
                       Post("SELECT grp, AVG(val) FROM T GROUP BY grp", "q"),
                       config, &rng_)
                   .ValueOrDie();
  ASSERT_EQ(items.size(), 1u);  // one row per TDS by default
  EXPECT_FALSE(items[0].routing_tag().has_value());
  auto payload = Open(items[0]);
  EXPECT_EQ(payload.kind, PayloadKind::kTrueTuple);
  Tuple t =
      Tuple::Decode(payload.body.data(), payload.body.size()).ValueOrDie();
  EXPECT_EQ(t.size(), 2u);  // [grp, val]
}

TEST_F(TdsTest, BadCredentialYieldsDummy) {
  CollectionConfig config;
  auto post = Post("SELECT grp FROM T", "q");
  Bytes forged = post.credential_mac.ToBytes();
  forged[0] ^= 0xff;
  post.credential_mac = forged;
  auto items = server_->ProcessCollection(post, config, &rng_).ValueOrDie();
  ASSERT_EQ(items.size(), 1u);
  EXPECT_EQ(Open(items[0]).kind, PayloadKind::kDummyTuple);
}

TEST_F(TdsTest, DeniedQuerierYieldsDummyNotError) {
  auto denied_server = std::make_unique<TrustedDataServer>(
      1, keys_, authority_, AccessPolicy(std::vector<AccessRule>{{"only-this-querier", "T", {}}}));
  workload::GenericOptions opts;
  Rng data_rng(10);
  ASSERT_TRUE(
      workload::PopulateGenericDb(&denied_server->db(), 1, opts, &data_rng)
          .ok());
  CollectionConfig config;
  auto items =
      denied_server->ProcessCollection(Post("SELECT grp FROM T", "mallory"),
                                       config, &rng_)
          .ValueOrDie();
  ASSERT_EQ(items.size(), 1u);
  EXPECT_EQ(Open(items[0]).kind, PayloadKind::kDummyTuple);
}

TEST_F(TdsTest, EmptyLocalResultYieldsDummy) {
  CollectionConfig config;
  auto items = server_
                   ->ProcessCollection(
                       Post("SELECT grp FROM T WHERE cat > 100", "q"), config,
                       &rng_)
                   .ValueOrDie();
  ASSERT_EQ(items.size(), 1u);
  EXPECT_EQ(Open(items[0]).kind, PayloadKind::kDummyTuple);
}

TEST_F(TdsTest, MalformedQueryIsError) {
  CollectionConfig config;
  EXPECT_FALSE(
      server_->ProcessCollection(Post("NOT SQL AT ALL", "q"), config, &rng_)
          .ok());
}

TEST_F(TdsTest, DetTagModeTagsAndAddsNoise) {
  auto domain = std::make_shared<std::vector<Tuple>>();
  for (int g = 0; g < 4; ++g) {
    domain->push_back(Tuple({Value::String(workload::GroupName(g))}));
  }
  CollectionConfig config;
  config.mode = CollectionMode::kDetTag;
  config.noise.nf = 3;
  config.noise.group_domain = domain;
  auto items = server_
                   ->ProcessCollection(
                       Post("SELECT grp, AVG(val) FROM T GROUP BY grp", "q"),
                       config, &rng_)
                   .ValueOrDie();
  ASSERT_EQ(items.size(), 4u);  // 1 true + nf fakes
  int fakes = 0, trues = 0;
  for (const auto& item : items) {
    ASSERT_TRUE(item.routing_tag().has_value());
    auto payload = Open(item);
    if (payload.kind == PayloadKind::kFakeTuple) ++fakes;
    if (payload.kind == PayloadKind::kTrueTuple) ++trues;
    // Tag must decrypt (under k2 Det) to the tuple's group key.
    Tuple inner =
        Tuple::Decode(payload.body.data(), payload.body.size()).ValueOrDie();
    Bytes key_bytes =
        keys_->k2_det().Decrypt(*TagOf(item)).ValueOrDie();
    Tuple key = Tuple::Decode(key_bytes.data(), key_bytes.size()).ValueOrDie();
    EXPECT_TRUE(key.at(0).IsSameGroup(inner.at(0)));
  }
  EXPECT_EQ(trues, 1);
  EXPECT_EQ(fakes, 3);
}

TEST_F(TdsTest, ComplementaryNoiseCoversDomain) {
  auto domain = std::make_shared<std::vector<Tuple>>();
  for (int g = 0; g < 4; ++g) {
    domain->push_back(Tuple({Value::String(workload::GroupName(g))}));
  }
  CollectionConfig config;
  config.mode = CollectionMode::kDetTag;
  config.noise.complementary = true;
  config.noise.group_domain = domain;
  auto items = server_
                   ->ProcessCollection(
                       Post("SELECT grp, COUNT(*) FROM T GROUP BY grp", "q"),
                       config, &rng_)
                   .ValueOrDie();
  // 1 true + (nd - 1) fakes covering every other domain value: flat.
  ASSERT_EQ(items.size(), 4u);
  std::set<Bytes> tags;
  for (const auto& item : items) tags.insert(*TagOf(item));
  EXPECT_EQ(tags.size(), 4u);
}

TEST_F(TdsTest, HistTagModeUsesKeyedBucketHash) {
  std::map<Tuple, uint64_t> freq;
  for (int g = 0; g < 4; ++g) {
    freq[Tuple({Value::String(workload::GroupName(g))})] = 5;
  }
  auto hist = std::make_shared<EquiDepthHistogram>(
      EquiDepthHistogram::Build(freq, 2));
  CollectionConfig config;
  config.mode = CollectionMode::kHistTag;
  config.histogram = hist;
  auto items = server_
                   ->ProcessCollection(
                       Post("SELECT grp, AVG(val) FROM T GROUP BY grp", "q"),
                       config, &rng_)
                   .ValueOrDie();
  ASSERT_EQ(items.size(), 1u);
  ASSERT_TRUE(items[0].routing_tag().has_value());
  EXPECT_EQ(items[0].routing_tag()->size(), 8u);  // 64-bit keyed hash
}

TEST_F(TdsTest, AggregationPartitionFoldsTuplesAndPartials) {
  auto query =
      sql::AnalyzeSql("SELECT grp, COUNT(*) FROM T GROUP BY grp",
                      server_->db().catalog())
          .ValueOrDie();
  CollectionConfig config;

  // Build a partition of raw true tuples for a single group.
  ssi::Partition partition;
  for (int i = 0; i < 5; ++i) {
    Tuple t({Value::String("G00")});
    Bytes payload = ssi::EncodePayload(PayloadKind::kTrueTuple, t.Encode());
    EncryptedItem item(keys_->k2_ndet().Encrypt(payload, &rng_));
    partition.items.push_back(std::move(item));
  }
  auto out1 = server_
                  ->ProcessAggregationPartition(
                      query, partition, OutputTagPolicy::kNone, config, &rng_)
                  .ValueOrDie();
  ASSERT_EQ(out1.size(), 1u);

  // Feed the partial back with more tuples: counts must add up.
  ssi::Partition partition2;
  partition2.items.push_back(out1[0]);
  partition2.items.push_back(partition.items[0]);
  auto out2 = server_
                  ->ProcessAggregationPartition(
                      query, partition2, OutputTagPolicy::kNone, config, &rng_)
                  .ValueOrDie();
  ASSERT_EQ(out2.size(), 1u);
  auto payload = Open(out2[0]);
  ASSERT_EQ(payload.kind, PayloadKind::kPartialAgg);
  auto agg =
      sql::GroupedAggregation::Decode(query.agg_specs, payload.body)
          .ValueOrDie();
  ASSERT_EQ(agg.num_groups(), 1u);
  EXPECT_EQ(
      agg.groups().begin()->second[0].Finalize().ValueOrDie().AsInt64(), 6);
}

TEST_F(TdsTest, AggregationDropsDummiesAndFakes) {
  auto query =
      sql::AnalyzeSql("SELECT grp, COUNT(*) FROM T GROUP BY grp",
                      server_->db().catalog())
          .ValueOrDie();
  CollectionConfig config;
  ssi::Partition partition;
  Tuple t({Value::String("G00")});
  for (PayloadKind kind : {PayloadKind::kTrueTuple, PayloadKind::kDummyTuple,
                           PayloadKind::kFakeTuple}) {
    EncryptedItem item(keys_->k2_ndet().Encrypt(
        ssi::EncodePayload(kind, t.Encode()), &rng_));
    partition.items.push_back(std::move(item));
  }
  auto out = server_
                 ->ProcessAggregationPartition(
                     query, partition, OutputTagPolicy::kNone, config, &rng_)
                 .ValueOrDie();
  auto agg = sql::GroupedAggregation::Decode(query.agg_specs,
                                             Open(out[0]).body)
                 .ValueOrDie();
  EXPECT_EQ(
      agg.groups().begin()->second[0].Finalize().ValueOrDie().AsInt64(), 1);
}

TEST_F(TdsTest, RamBudgetEnforced) {
  auto tiny = std::make_unique<TrustedDataServer>(
      2, keys_, authority_, AccessPolicy::AllowAll(),
      [] {
        TdsOptions options;
        options.ram_budget_bytes = 256;
        return options;
      }());
  workload::GenericOptions opts;
  Rng data_rng(11);
  ASSERT_TRUE(workload::PopulateGenericDb(&tiny->db(), 2, opts, &data_rng).ok());
  auto query = sql::AnalyzeSql("SELECT gid, COUNT(*) FROM T GROUP BY gid",
                               tiny->db().catalog())
                   .ValueOrDie();
  CollectionConfig config;
  ssi::Partition partition;
  for (int g = 0; g < 500; ++g) {
    Tuple t({Value::Int64(g)});
    EncryptedItem item(keys_->k2_ndet().Encrypt(
        ssi::EncodePayload(PayloadKind::kTrueTuple, t.Encode()), &rng_));
    partition.items.push_back(std::move(item));
  }
  auto result = tiny->ProcessAggregationPartition(
      query, partition, OutputTagPolicy::kNone, config, &rng_);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted());
}

TEST_F(TdsTest, FilteringAppliesHavingAndEncryptsUnderK1) {
  auto query = sql::AnalyzeSql(
                   "SELECT grp, COUNT(*) FROM T GROUP BY grp "
                   "HAVING COUNT(*) >= 2",
                   server_->db().catalog())
                   .ValueOrDie();
  // Final per-group aggregations: G00 has 3 tuples, G01 has 1.
  sql::GroupedAggregation agg(query.agg_specs);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        agg.AccumulateTuple(Tuple({Value::String("G00")}), 1).ok());
  }
  ASSERT_TRUE(agg.AccumulateTuple(Tuple({Value::String("G01")}), 1).ok());
  Bytes body;
  agg.EncodeTo(&body);
  ssi::Partition partition;
  EncryptedItem item(keys_->k2_ndet().Encrypt(
      ssi::EncodePayload(PayloadKind::kPartialAgg, body), &rng_));
  partition.items.push_back(std::move(item));

  auto out = server_->ProcessFiltering(query, partition, CollectionConfig{},
                                       &rng_)
                 .ValueOrDie();
  ASSERT_EQ(out.size(), 1u);  // G01 filtered out by HAVING
  // The result decrypts under k1, not k2.
  EXPECT_FALSE(keys_->k2_ndet().Decrypt(BlobOf(out[0])).ok());
  Bytes plain = keys_->k1_ndet().Decrypt(BlobOf(out[0])).ValueOrDie();
  auto payload = ssi::DecodePayloadView(plain).ValueOrDie();
  EXPECT_EQ(payload.kind, PayloadKind::kResultRow);
  Tuple row = Tuple::Decode(payload.body, payload.body_size).ValueOrDie();
  EXPECT_EQ(row.at(0).AsString(), "G00");
  EXPECT_EQ(row.at(1).AsInt64(), 3);
}

TEST_F(TdsTest, FilteringSfwDropsDummies) {
  auto query = sql::AnalyzeSql("SELECT grp FROM T", server_->db().catalog())
                   .ValueOrDie();
  ssi::Partition partition;
  Tuple t({Value::String("G02")});
  for (PayloadKind kind :
       {PayloadKind::kTrueTuple, PayloadKind::kDummyTuple}) {
    EncryptedItem item(keys_->k2_ndet().Encrypt(
        ssi::EncodePayload(kind, t.Encode()), &rng_));
    partition.items.push_back(std::move(item));
  }
  auto out = server_->ProcessFiltering(query, partition, CollectionConfig{},
                                       &rng_)
                 .ValueOrDie();
  ASSERT_EQ(out.size(), 1u);
  Bytes plain = keys_->k1_ndet().Decrypt(BlobOf(out[0])).ValueOrDie();
  auto payload = ssi::DecodePayloadView(plain).ValueOrDie();
  EXPECT_EQ(Tuple::Decode(payload.body, payload.body_size)
                .ValueOrDie()
                .at(0)
                .AsString(),
            "G02");
}


TEST_F(TdsTest, PerGroupDetTagsOutput) {
  // ED_Hist step 1 output shape: one Det-tagged partial per group found.
  auto query =
      sql::AnalyzeSql("SELECT grp, COUNT(*) FROM T GROUP BY grp",
                      server_->db().catalog())
          .ValueOrDie();
  ssi::Partition partition;
  for (const char* g : {"G00", "G00", "G01", "G02"}) {
    Tuple t({Value::String(g)});
    EncryptedItem item(keys_->k2_ndet().Encrypt(
        ssi::EncodePayload(PayloadKind::kTrueTuple, t.Encode()), &rng_));
    partition.items.push_back(std::move(item));
  }
  auto out = server_
                 ->ProcessAggregationPartition(
                     query, partition, OutputTagPolicy::kPerGroupDet, {},
                     &rng_)
                 .ValueOrDie();
  ASSERT_EQ(out.size(), 3u);  // three distinct groups
  std::set<Bytes> tags;
  for (const auto& item : out) {
    ASSERT_TRUE(item.routing_tag().has_value());
    tags.insert(*TagOf(item));
    // Tag decrypts to the single group key of the partial inside.
    Bytes key_bytes = keys_->k2_det().Decrypt(*TagOf(item)).ValueOrDie();
    Tuple key = Tuple::Decode(key_bytes.data(), key_bytes.size()).ValueOrDie();
    auto payload = Open(item);
    auto agg = sql::GroupedAggregation::Decode(query.agg_specs, payload.body)
                   .ValueOrDie();
    ASSERT_EQ(agg.num_groups(), 1u);
    EXPECT_TRUE(agg.groups().begin()->first.IsSameGroup(key));
  }
  EXPECT_EQ(tags.size(), 3u);
}

TEST_F(TdsTest, ReServingAPostIsIdentical) {
  // A TDS keeps nothing of a query between serves: re-serving a post (its
  // upload was lost) repeats the same deterministic work, so with equal rng
  // states the items are byte-identical.
  CollectionConfig config;
  auto post = Post("SELECT grp, AVG(val) FROM T GROUP BY grp", "q",
                   /*query_id=*/55);
  Rng first_rng(7);
  auto first = server_->ProcessCollection(post, config, &first_rng)
                   .ValueOrDie();
  Rng again_rng(7);
  auto again = server_->ProcessCollection(post, config, &again_rng)
                   .ValueOrDie();
  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(again.size(), first.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(BlobOf(again[i]), BlobOf(first[i]));
    EXPECT_EQ(TagOf(again[i]), TagOf(first[i]));
  }
}

TEST_F(TdsTest, ConcurrentCNoiseServesShareTemplates) {
  // Four threads serve one C_Noise post on one TDS at once under a fresh
  // config, so their first lookups in its query cache race on missing
  // entries. Every serve from equal rng states is byte-identical to a serial
  // one: the racing builds agree, and the shared entries are only read.
  CollectionConfig config;
  config.mode = CollectionMode::kDetTag;
  config.noise.complementary = true;
  config.noise.group_domain = GroupDomain(32);
  const auto post = Post("SELECT grp, COUNT(*) FROM T GROUP BY grp", "q");
  auto encode = [](const std::vector<EncryptedItem>& items) {
    std::vector<Bytes> out;
    for (const auto& item : items) {
      out.emplace_back(item.encoding().begin(), item.encoding().end());
    }
    return out;
  };
  constexpr int kThreads = 4;
  constexpr int kServes = 20;
  std::latch start(kThreads);
  std::vector<std::vector<std::vector<Bytes>>> served(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      for (int i = 0; i < kServes; ++i) {
        Rng rng(7);
        auto items = server_->ProcessCollection(post, config, &rng);
        if (!items.ok()) return;
        served[t].push_back(encode(*items));
      }
    });
  }
  for (auto& thread : threads) thread.join();

  Rng rng(7);
  const auto reference =
      encode(server_->ProcessCollection(post, config, &rng).ValueOrDie());
  EXPECT_EQ(reference.size(), 32u);  // 1 true tuple + 31 fakes
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(served[t].size(), static_cast<size_t>(kServes));
    for (const auto& items : served[t]) EXPECT_EQ(items, reference);
  }
}

// ---------------------------------------------------------------------------
// Fake templates in the query cache (Det-tag collection)

class FakeTemplatesTest : public ::testing::Test {
 protected:
  FakeTemplatesTest() {
    EXPECT_TRUE(db_.CreateTable("T", workload::GenericSchema()).ok());
  }

  std::shared_ptr<const sql::AnalyzedQuery> Analyze(std::string_view sql) {
    return cache_.Analysis(sql, db_.shared_catalog()).ValueOrDie();
  }

  storage::Database db_;
  QueryCache cache_;
};

TEST_F(FakeTemplatesTest, KeySetsGetSeparateTemplates) {
  const auto query = Analyze("SELECT grp, AVG(val) FROM T GROUP BY grp");
  const auto domain = GroupDomain(32);
  const auto keys_a = crypto::KeyStore::CreateForTest(101);
  const auto keys_b = crypto::KeyStore::CreateForTest(102);
  const auto a = cache_.Fakes(query, keys_a, domain, 0).ValueOrDie();
  const auto b = cache_.Fakes(query, keys_b, domain, 0).ValueOrDie();
  ASSERT_NE(a, b);
  ASSERT_EQ(a->tags.size(), domain->size());
  ASSERT_EQ(b->tags.size(), domain->size());
  for (size_t d = 0; d < domain->size(); ++d) {
    const Bytes value = (*domain)[d].Encode();
    // Each tag is Det_Enc of its domain value under its own k2 only.
    EXPECT_EQ(keys_a->k2_det().Decrypt(a->tags[d]).ValueOrDie(), value);
    EXPECT_EQ(keys_b->k2_det().Decrypt(b->tags[d]).ValueOrDie(), value);
    EXPECT_FALSE(keys_b->k2_det().Decrypt(a->tags[d]).ok());
    EXPECT_FALSE(keys_a->k2_det().Decrypt(b->tags[d]).ok());
    // The payload is the value padded with NULLs to the collection arity
    // [grp, val]; it does not depend on the keys.
    EXPECT_EQ(a->payloads[d], b->payloads[d]);
    auto payload = ssi::DecodePayloadView(a->payloads[d]).ValueOrDie();
    EXPECT_EQ(payload.kind, PayloadKind::kFakeTuple);
    Tuple fake = Tuple::Decode(payload.body, payload.body_size).ValueOrDie();
    ASSERT_EQ(fake.size(), 2u);
    EXPECT_TRUE(fake.at(0).IsSameGroup((*domain)[d].at(0)));
    EXPECT_TRUE(fake.at(1).is_null());
  }
}

TEST_F(FakeTemplatesTest, DomainPaddingOrQueryChangeIsAMiss) {
  const auto query = Analyze("SELECT grp, AVG(val) FROM T GROUP BY grp");
  const auto other_query = Analyze("SELECT grp, SUM(val) FROM T GROUP BY grp");
  const auto keys = crypto::KeyStore::CreateForTest(103);
  const auto domain = GroupDomain(8);
  const auto base = cache_.Fakes(query, keys, domain, 0).ValueOrDie();
  EXPECT_EQ(cache_.Fakes(query, keys, domain, 0).ValueOrDie(), base);

  // Equal contents in another domain instance, another padding, another
  // query: each is its own entry.
  const auto same_values = GroupDomain(8);
  std::vector<std::shared_ptr<const FakeTemplates>> held = {
      base,
      cache_.Fakes(query, keys, same_values, 0).ValueOrDie(),
      cache_.Fakes(query, keys, domain, 64).ValueOrDie(),
      cache_.Fakes(other_query, keys, domain, 0).ValueOrDie(),
  };
  std::set<const FakeTemplates*> distinct;
  for (const auto& t : held) distinct.insert(t.get());
  EXPECT_EQ(distinct.size(), held.size());
  EXPECT_EQ(held[1]->payloads, base->payloads);
  EXPECT_EQ(held[2]->payloads[0].size(), 64u);

  EXPECT_TRUE(
      cache_.Fakes(query, keys, nullptr, 0).status().IsFailedPrecondition());
  EXPECT_TRUE(cache_.Fakes(query, keys, GroupDomain(0), 0)
                  .status()
                  .IsFailedPrecondition());
}

TEST_F(FakeTemplatesTest, HandedOutTemplatesOutliveTheirCache) {
  const auto query = Analyze("SELECT grp, COUNT(*) FROM T GROUP BY grp");
  const auto keys = crypto::KeyStore::CreateForTest(104);
  const auto domain = GroupDomain(4);
  auto cache = std::make_unique<QueryCache>();
  const auto held = cache->Fakes(query, keys, domain, 0).ValueOrDie();
  const FakeTemplates copy = *held;
  cache.reset();  // the query completes
  EXPECT_EQ(held->payloads, copy.payloads);
  EXPECT_EQ(held->tags, copy.tags);
  for (size_t d = 0; d < domain->size(); ++d) {
    EXPECT_EQ(keys->k2_det().Decrypt(held->tags[d]).ValueOrDie(),
              (*domain)[d].Encode());
  }
  // The next query's cache builds its own, byte-identical templates.
  QueryCache next;
  const auto rebuilt = next.Fakes(query, keys, domain, 0).ValueOrDie();
  EXPECT_NE(rebuilt, held);
  EXPECT_EQ(rebuilt->payloads, held->payloads);
  EXPECT_EQ(rebuilt->tags, held->tags);
}

/// Serves every TDS the authority's current epoch block.
class AuthoritySource : public keys::EpochBlockSource {
 public:
  explicit AuthoritySource(const keys::KeyAuthority* authority)
      : authority_(authority) {}
  std::vector<Result<Bytes>> FetchLatestBlocks(
      const std::vector<uint64_t>& tds_ids,
      const std::vector<uint64_t>&) override {
    return std::vector<Result<Bytes>>(tds_ids.size(),
                                      authority_->CurrentBlock());
  }

 private:
  const keys::KeyAuthority* authority_;
};

TEST(FakeTemplatesFleetTest, AFleetSharesOneEntryPerQueryPostingsDiffer) {
  constexpr size_t kFleet = 8;
  auto key_authority =
      keys::KeyAuthority::Create(Bytes(16, 0x5a), kFleet, 11).ValueOrDie();
  AuthoritySource source(key_authority.get());
  auto authority = std::make_shared<Authority>(Bytes(16, 1));
  std::vector<std::unique_ptr<keys::TdsKeyState>> states;
  std::vector<std::unique_ptr<TrustedDataServer>> fleet;
  for (size_t i = 0; i < kFleet; ++i) {
    states.push_back(std::make_unique<keys::TdsKeyState>(
        i, key_authority->EnrollDevice(i).ValueOrDie(), &source));
    ASSERT_TRUE(states.back()->Refresh().ok());
    fleet.push_back(std::make_unique<TrustedDataServer>(
        i, crypto::KeyStore::CreateForTest(1), authority,
        AccessPolicy::AllowAll()));
    fleet.back()->InstallKeyState(states.back().get());
    workload::GenericOptions opts;
    opts.num_groups = 4;
    Rng data_rng(i);
    ASSERT_TRUE(
        workload::PopulateGenericDb(&fleet.back()->db(), i, opts, &data_rng)
            .ok());
  }
  const std::string sql = "SELECT grp, COUNT(*) FROM T GROUP BY grp";
  Rng rng(3);
  // One query: its own config (and so its own cache), served by the fleet.
  auto serve_fleet = [&](const ssi::QueryKeyPosting& posting) {
    CollectionConfig config;
    config.mode = CollectionMode::kDetTag;
    config.noise.complementary = true;
    config.noise.group_domain = GroupDomain(4);
    config.key_posting = posting;
    auto session = key_authority->QuerierKeysFor(posting).ValueOrDie();
    ssi::QueryPost post;
    post.query_id = posting.query_id;
    post.encrypted_query =
        session->k1_ndet().Encrypt(Bytes(sql.begin(), sql.end()), &rng);
    post.querier_id = "q";
    post.credential_mac = authority->Issue("q");
    post.key_posting = posting;
    for (auto& tds : fleet) {
      EXPECT_EQ(
          tds->ProcessCollection(post, config, &rng).ValueOrDie().size(), 4u);
    }
    return config;
  };
  // What TDS `tds` reaches in `config`'s cache: every lookup hits.
  auto templates_of = [&](const CollectionConfig& config, size_t tds) {
    QueryCache& cache = *config.cache;
    const auto query =
        cache.Analysis(sql, fleet[tds]->db().shared_catalog()).ValueOrDie();
    const auto keys =
        cache.SessionKeys(*states[tds], *config.key_posting).ValueOrDie();
    return cache.Fakes(query, keys, config.noise.group_domain, 0)
        .ValueOrDie();
  };

  const auto first = serve_fleet(key_authority->NewPosting(1, &rng));
  const auto second = serve_fleet(key_authority->NewPosting(2, &rng));
  // Every TDS reaches the same session KeyStore for a posting, so the same
  // templates; the two postings' templates differ in their tags.
  for (size_t tds = 1; tds < kFleet; ++tds) {
    EXPECT_EQ(templates_of(first, tds), templates_of(first, 0)) << tds;
  }
  EXPECT_NE(templates_of(first, 0)->tags, templates_of(second, 0)->tags);
}

}  // namespace
}  // namespace tcells::tds
