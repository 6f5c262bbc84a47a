// Tests for the SSI's shared types: payload framing, batch open, the
// partitioners and the wire codecs. The per-query state (served TDSs,
// storage, adversary view) is tested through SsiNode in net_test.
#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"
#include "ssi/messages.h"
#include "ssi/ssi.h"

namespace tcells::ssi {
namespace {

EncryptedItem Item(uint8_t fill, size_t n = 8,
                   std::optional<Bytes> tag = std::nullopt) {
  EncryptedItem item;
  item.blob = Bytes(n, fill);
  item.routing_tag = std::move(tag);
  return item;
}

// ---------------------------------------------------------------------------
// Payload framing

TEST(PayloadTest, RoundTrip) {
  Bytes body = {1, 2, 3};
  Bytes encoded = EncodePayload(PayloadKind::kTrueTuple, body);
  auto decoded = DecodePayload(encoded).ValueOrDie();
  EXPECT_EQ(decoded.kind, PayloadKind::kTrueTuple);
  EXPECT_EQ(decoded.body, body);
}

TEST(PayloadTest, PaddingHidesKindByLength) {
  Bytes small = {1};
  Bytes large = Bytes(40, 7);
  Bytes a = EncodePayload(PayloadKind::kDummyTuple, small, 64);
  Bytes b = EncodePayload(PayloadKind::kTrueTuple, large, 64);
  EXPECT_EQ(a.size(), 64u);
  EXPECT_EQ(a.size(), b.size());
  EXPECT_EQ(DecodePayload(a).ValueOrDie().body, small);
  EXPECT_EQ(DecodePayload(b).ValueOrDie().body, large);
}

TEST(PayloadTest, PaddingNeverTruncates) {
  Bytes body = Bytes(100, 1);
  Bytes encoded = EncodePayload(PayloadKind::kTrueTuple, body, 16);
  EXPECT_GT(encoded.size(), body.size());
  EXPECT_EQ(DecodePayload(encoded).ValueOrDie().body, body);
}

TEST(PayloadTest, RejectsGarbage) {
  EXPECT_FALSE(DecodePayload({}).ok());
  EXPECT_FALSE(DecodePayload({200}).ok());       // unknown kind
  EXPECT_FALSE(DecodePayload({0, 9, 0, 0, 0}).ok());  // body length overruns
}

TEST(PayloadTest, ViewPointsIntoSourceBuffer) {
  Bytes body = {9, 8, 7, 6};
  Bytes encoded = EncodePayload(PayloadKind::kPartialAgg, body, 32);
  auto view = DecodePayloadView(encoded).ValueOrDie();
  EXPECT_EQ(view.kind, PayloadKind::kPartialAgg);
  EXPECT_EQ(view.body_size, body.size());
  // Zero-copy: the body pointer aims at the framing header's tail, inside
  // the encoded buffer itself.
  EXPECT_EQ(view.body, encoded.data() + 5);
  EXPECT_EQ(view.ToBytes(), body);
}

TEST(PayloadTest, ViewRejectsMalformed) {
  EXPECT_FALSE(DecodePayloadView(nullptr, 0).ok());
  Bytes truncated = {0, 9, 0, 0, 0};  // claims 9-byte body, has none
  EXPECT_FALSE(DecodePayloadView(truncated).ok());
}

TEST(PayloadTest, SpanEncodeMatchesBytesEncode) {
  Rng rng(41);
  for (size_t n : {0u, 1u, 30u}) {
    Bytes body = rng.NextBytes(n);
    EXPECT_EQ(EncodePayload(PayloadKind::kResultRow, body, 64),
              EncodePayload(PayloadKind::kResultRow, body.data(), body.size(),
                            64));
  }
}

// ---------------------------------------------------------------------------
// Batch open

TEST(OpenAllTest, DecryptsEveryItemAndReusesBuffers) {
  Rng rng(42);
  auto enc = crypto::NDetEnc::Create(rng.NextBytes(16)).ValueOrDie();
  std::vector<Bytes> plaintexts;
  std::vector<EncryptedItem> items;
  for (int i = 0; i < 8; ++i) {
    plaintexts.push_back(rng.NextBytes(10 + 7 * i));
    EncryptedItem item;
    item.blob = enc.Encrypt(plaintexts.back(), &rng);
    items.push_back(std::move(item));
  }
  std::vector<Bytes> plains;
  ASSERT_TRUE(OpenAll(enc, items, &plains).ok());
  ASSERT_EQ(plains.size(), items.size());
  for (size_t i = 0; i < plains.size(); ++i) {
    EXPECT_EQ(plains[i], plaintexts[i]) << i;
  }
  // A second partition through the same vector reuses the grown buffers.
  ASSERT_TRUE(OpenAll(enc, std::span(items).subspan(0, 3), &plains).ok());
  EXPECT_EQ(plains.size(), 3u);
  EXPECT_EQ(plains[2], plaintexts[2]);
}

TEST(OpenAllTest, ReportsFirstFailure) {
  Rng rng(43);
  auto enc = crypto::NDetEnc::Create(rng.NextBytes(16)).ValueOrDie();
  std::vector<EncryptedItem> items;
  for (int i = 0; i < 3; ++i) {
    EncryptedItem item;
    item.blob = enc.Encrypt(rng.NextBytes(16), &rng);
    items.push_back(std::move(item));
  }
  items[1].blob[4] ^= 0x20;
  std::vector<Bytes> plains;
  EXPECT_FALSE(OpenAll(enc, items, &plains).ok());
}

// ---------------------------------------------------------------------------
// Partitioning

TEST(SsiTest, PartitionRandomlySplitsAndPreservesItems) {
  Rng rng(1);
  std::vector<EncryptedItem> items;
  for (int i = 0; i < 10; ++i) items.push_back(Item(static_cast<uint8_t>(i)));
  auto partitions = PartitionRandomly(std::move(items), 3, &rng);
  ASSERT_EQ(partitions.size(), 4u);  // 3+3+3+1
  std::multiset<uint8_t> seen;
  for (const auto& p : partitions) {
    EXPECT_LE(p.items.size(), 3u);
    for (const auto& item : p.items) seen.insert(item.blob[0]);
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(SsiTest, PartitionRandomlyShuffles) {
  Rng rng(2);
  std::vector<EncryptedItem> items;
  for (int i = 0; i < 32; ++i) items.push_back(Item(static_cast<uint8_t>(i)));
  auto partitions = PartitionRandomly(std::move(items), 32, &rng);
  ASSERT_EQ(partitions.size(), 1u);
  bool any_moved = false;
  for (size_t i = 0; i < partitions[0].items.size(); ++i) {
    if (partitions[0].items[i].blob[0] != i) any_moved = true;
  }
  EXPECT_TRUE(any_moved);
}

TEST(SsiTest, PartitionByTagGroups) {
  std::vector<EncryptedItem> items;
  for (int i = 0; i < 9; ++i) {
    items.push_back(Item(static_cast<uint8_t>(i), 8,
                         Bytes{static_cast<uint8_t>(i % 3)}));
  }
  auto partitions = PartitionByTag(std::move(items)).ValueOrDie();
  ASSERT_EQ(partitions.size(), 3u);
  for (const auto& p : partitions) {
    ASSERT_EQ(p.items.size(), 3u);
    for (const auto& item : p.items) {
      EXPECT_EQ(*item.routing_tag, *p.items[0].routing_tag);
    }
  }
}

TEST(SsiTest, PartitionByTagRejectsUntagged) {
  std::vector<EncryptedItem> items = {Item(1)};
  EXPECT_FALSE(PartitionByTag(std::move(items)).ok());
}

TEST(SsiTest, SplitPartitionBalances) {
  Partition p;
  for (int i = 0; i < 10; ++i) p.items.push_back(Item(1));
  auto subs = SplitPartition(std::move(p), 3);
  ASSERT_EQ(subs.size(), 3u);
  EXPECT_EQ(subs[0].items.size(), 4u);
  EXPECT_EQ(subs[1].items.size(), 3u);
  EXPECT_EQ(subs[2].items.size(), 3u);
}

TEST(SsiTest, SplitPartitionMoreWaysThanItems) {
  Partition p;
  p.items.push_back(Item(1));
  auto subs = SplitPartition(std::move(p), 5);
  EXPECT_EQ(subs.size(), 1u);
}

// ---------------------------------------------------------------------------
// Wire codecs

TEST(WireTest, EncryptedItemRoundTrip) {
  for (bool tagged : {false, true}) {
    EncryptedItem item;
    item.blob = Bytes{1, 2, 3, 4};
    if (tagged) {
      item.routing_tag = Bytes{9, 9};
    }
    Bytes buf;
    item.EncodeTo(&buf);
    ByteReader reader(buf);
    auto back = EncryptedItem::DecodeFrom(&reader).ValueOrDie();
    EXPECT_TRUE(reader.AtEnd());
    EXPECT_EQ(back.blob, item.blob);
    EXPECT_EQ(back.routing_tag.has_value(), tagged);
    if (tagged) {
      EXPECT_EQ(*back.routing_tag, *item.routing_tag);
    }
  }
}

TEST(WireTest, QueryPostRoundTrip) {
  QueryPost post;
  post.query_id = 77;
  post.encrypted_query = Bytes{5, 6, 7};
  post.querier_id = "energy-co";
  post.credential_mac = Bytes(32, 0xaa);
  post.size_max_tuples = 1000;
  Bytes buf = post.Encode();
  auto back = QueryPost::Decode(buf).ValueOrDie();
  EXPECT_EQ(back.query_id, 77u);
  EXPECT_EQ(back.querier_id, "energy-co");
  EXPECT_EQ(back.size_max_tuples.value(), 1000u);
  EXPECT_FALSE(back.size_max_duration_ticks.has_value());
  // Tampered flags rejected.
  buf.pop_back();
  EXPECT_FALSE(QueryPost::Decode(buf).ok());
}

TEST(WireTest, PartitionRoundTrip) {
  Partition p;
  for (int i = 0; i < 5; ++i) {
    EncryptedItem item;
    item.blob = Bytes(8, static_cast<uint8_t>(i));
    if (i % 2) item.routing_tag = Bytes{static_cast<uint8_t>(i)};
    p.items.push_back(std::move(item));
  }
  auto back = Partition::Decode(p.Encode()).ValueOrDie();
  ASSERT_EQ(back.items.size(), 5u);
  EXPECT_EQ(back.WireSize(), p.WireSize());
  EXPECT_FALSE(Partition::Decode(Bytes{1, 2}).ok());
}

// ---------------------------------------------------------------------------
// Hostile-input hardening regressions (pinned by the fuzz harnesses; see
// fuzz/fuzz_ssi.cc and docs/TESTING.md)

TEST(WireTest, PartitionDeclaringMoreItemsThanBytesRejected) {
  // Count field claims 4B items but the buffer holds none: the decoder must
  // reject on the count itself instead of looping/allocating towards it.
  Bytes hostile = {0xff, 0xff, 0xff, 0xff};
  auto result = Partition::Decode(hostile);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCorruption());

  // A single valid item cannot satisfy a count of 10 either.
  Partition p;
  p.items.push_back(Item(1));
  Bytes encoded = p.Encode();
  encoded[0] = 10;
  EXPECT_FALSE(Partition::Decode(encoded).ok());
}

TEST(WireTest, EncryptedItemTruncatedTagLengthRejected) {
  // has_tag=1 followed by a tag length field claiming 100 bytes of tag with
  // only 2 present.
  Bytes hostile = {1, 100, 0, 0, 0, 0xaa, 0xbb};
  ByteReader reader(hostile);
  EXPECT_FALSE(EncryptedItem::DecodeFrom(&reader).ok());

  // The length field itself cut short.
  Bytes truncated = {1, 100, 0};
  ByteReader reader2(truncated);
  EXPECT_FALSE(EncryptedItem::DecodeFrom(&reader2).ok());
}

TEST(WireTest, EncryptedItemBadTagFlagRejected) {
  Bytes hostile = {2, 0, 0, 0, 0};
  ByteReader reader(hostile);
  auto result = EncryptedItem::DecodeFrom(&reader);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCorruption());
}

TEST(WireTest, QueryPostHostileFlagsAndTrailersRejected) {
  QueryPost post;
  post.query_id = 9;
  post.encrypted_query = Bytes{1};
  post.querier_id = "q";
  post.credential_mac = Bytes(8, 0xcc);
  Bytes buf = post.Encode();

  // Unknown flag bits.
  Bytes bad_flags = buf;
  bad_flags.back() = 4;
  EXPECT_FALSE(QueryPost::Decode(bad_flags).ok());

  // Trailing bytes after a well-formed post.
  Bytes trailing = buf;
  trailing.push_back(0);
  EXPECT_FALSE(QueryPost::Decode(trailing).ok());
}

}  // namespace
}  // namespace tcells::ssi
