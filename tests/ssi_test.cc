// Tests for the SSI's shared types: payload framing, batch open, the
// partitioners, the item handle and the wire codecs. The per-query state
// (served TDSs, storage, adversary view) is tested through SsiNode in
// net_test.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <new>
#include <set>
#include <thread>

#include "common/arena.h"
#include "common/hex.h"
#include "common/rng.h"
#include "keys/epoch.h"
#include "ssi/messages.h"
#include "ssi/ssi.h"

namespace {

std::atomic<uint64_t> g_alloc_count{0};

}  // namespace

// Counting allocator hook for the handle's no-allocation cases: a malloc
// pass-through that bumps one counter, as in alloc_regression_test.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace tcells::ssi {
namespace {

EncryptedItem Item(uint8_t fill, size_t n = 8,
                   std::optional<Bytes> tag = std::nullopt) {
  return EncryptedItem(Bytes(n, fill), tag);
}

bool SameBytes(std::span<const uint8_t> a, std::span<const uint8_t> b) {
  return std::ranges::equal(a, b);
}

Bytes EncodeItems(std::span<const EncryptedItem> items) {
  Bytes out;
  EncodeItemsTo(items, &out);
  return out;
}

// ---------------------------------------------------------------------------
// Payload framing

TEST(PayloadTest, RoundTrip) {
  Bytes body = {1, 2, 3};
  Bytes encoded = EncodePayload(PayloadKind::kTrueTuple, body);
  auto decoded = DecodePayloadView(encoded).ValueOrDie();
  EXPECT_EQ(decoded.kind, PayloadKind::kTrueTuple);
  EXPECT_EQ(decoded.ToBytes(), body);
}

TEST(PayloadTest, PaddingHidesKindByLength) {
  Bytes small = {1};
  Bytes large = Bytes(40, 7);
  Bytes a = EncodePayload(PayloadKind::kDummyTuple, small, 64);
  Bytes b = EncodePayload(PayloadKind::kTrueTuple, large, 64);
  EXPECT_EQ(a.size(), 64u);
  EXPECT_EQ(a.size(), b.size());
  EXPECT_EQ(DecodePayloadView(a).ValueOrDie().ToBytes(), small);
  EXPECT_EQ(DecodePayloadView(b).ValueOrDie().ToBytes(), large);
}

TEST(PayloadTest, PaddingNeverTruncates) {
  Bytes body = Bytes(100, 1);
  Bytes encoded = EncodePayload(PayloadKind::kTrueTuple, body, 16);
  EXPECT_GT(encoded.size(), body.size());
  EXPECT_EQ(DecodePayloadView(encoded).ValueOrDie().ToBytes(), body);
}

TEST(PayloadTest, RejectsGarbage) {
  EXPECT_FALSE(DecodePayloadView(nullptr, 0).ok());
  EXPECT_FALSE(DecodePayloadView(Bytes{}).ok());
  EXPECT_FALSE(DecodePayloadView(Bytes{200}).ok());  // unknown kind
  // Claims a 9-byte body and has none.
  EXPECT_FALSE(DecodePayloadView(Bytes{0, 9, 0, 0, 0}).ok());
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
    items.emplace_back(enc.Encrypt(plaintexts.back(), &rng));
  }
  Arena arena;
  std::vector<std::span<const uint8_t>> plains;
  ASSERT_TRUE(OpenAllInto(enc, items, &arena, &plains).ok());
  ASSERT_EQ(plains.size(), items.size());
  for (size_t i = 0; i < plains.size(); ++i) {
    EXPECT_TRUE(SameBytes(plains[i], plaintexts[i])) << i;
  }
  // A second partition through the same arena reuses the warmed chunk.
  const size_t chunks = arena.chunk_count();
  arena.Reset();
  ASSERT_TRUE(
      OpenAllInto(enc, std::span(items).subspan(0, 3), &arena, &plains).ok());
  EXPECT_EQ(plains.size(), 3u);
  EXPECT_TRUE(SameBytes(plains[2], plaintexts[2]));
  EXPECT_LE(arena.chunk_count(), chunks);
}

TEST(OpenAllTest, ReportsFirstFailure) {
  Rng rng(43);
  auto enc = crypto::NDetEnc::Create(rng.NextBytes(16)).ValueOrDie();
  std::vector<EncryptedItem> items;
  for (int i = 0; i < 3; ++i) {
    items.emplace_back(enc.Encrypt(rng.NextBytes(16), &rng));
  }
  // Items are immutable: the tampered item is a flipped copy.
  Bytes flipped(items[1].blob().begin(), items[1].blob().end());
  flipped[4] ^= 0x20;
  items[1] = EncryptedItem(flipped);
  Arena arena;
  std::vector<std::span<const uint8_t>> plains;
  EXPECT_FALSE(OpenAllInto(enc, items, &arena, &plains).ok());
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
    for (const auto& item : p.items) seen.insert(item.blob()[0]);
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
    if (partitions[0].items[i].blob()[0] != i) any_moved = true;
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
      EXPECT_TRUE(SameBytes(*item.routing_tag(), *p.items[0].routing_tag()));
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
    const EncryptedItem item =
        tagged ? EncryptedItem(Bytes{1, 2, 3, 4}, Bytes{9, 9})
               : EncryptedItem(Bytes{1, 2, 3, 4});
    auto back = DecodeItems(EncodeItems({&item, 1})).ValueOrDie();
    ASSERT_EQ(back.size(), 1u);
    EXPECT_TRUE(SameBytes(back[0].blob(), item.blob()));
    EXPECT_EQ(back[0].routing_tag().has_value(), tagged);
    if (tagged) {
      EXPECT_TRUE(SameBytes(*back[0].routing_tag(), *item.routing_tag()));
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
    p.items.push_back(
        i % 2 ? Item(static_cast<uint8_t>(i), 8,
                     Bytes{static_cast<uint8_t>(i)})
              : Item(static_cast<uint8_t>(i)));
  }
  Partition back;
  back.items = DecodeItems(p.Encode()).ValueOrDie();
  ASSERT_EQ(back.items.size(), 5u);
  EXPECT_EQ(back.WireSize(), p.WireSize());
  EXPECT_FALSE(DecodeItems(Bytes{1, 2}).ok());
}

// ---------------------------------------------------------------------------
// Hostile-input hardening regressions (pinned by the fuzz harnesses; see
// fuzz/fuzz_ssi.cc and docs/TESTING.md)

TEST(WireTest, PartitionDeclaringMoreItemsThanBytesRejected) {
  // Count field claims 4B items but the buffer holds none: the decoder must
  // reject on the count itself instead of looping/allocating towards it.
  Bytes hostile = {0xff, 0xff, 0xff, 0xff};
  auto result = DecodeItems(hostile);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCorruption());

  // A single valid item cannot satisfy a count of 10 either.
  Partition p;
  p.items.push_back(Item(1));
  Bytes encoded = p.Encode();
  encoded[0] = 10;
  EXPECT_FALSE(DecodeItems(encoded).ok());
}

TEST(WireTest, EncryptedItemTruncatedTagLengthRejected) {
  // A one-item vector whose item is has_tag=1 followed by a tag length field
  // claiming 100 bytes of tag with only 2 present.
  Bytes hostile = {1, 0, 0, 0, 1, 100, 0, 0, 0, 0xaa, 0xbb};
  EXPECT_FALSE(DecodeItems(hostile).ok());

  // A length field itself cut short: an empty tag, then two bytes of the
  // blob length.
  Bytes truncated = {1, 0, 0, 0, 1, 0, 0, 0, 0, 5, 0};
  EXPECT_FALSE(DecodeItems(truncated).ok());
}

TEST(WireTest, EncryptedItemBadTagFlagRejected) {
  Bytes hostile = {1, 0, 0, 0, 2, 0, 0, 0, 0};
  auto result = DecodeItems(hostile);
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

// ---------------------------------------------------------------------------
// The item handle: a view into the buffer an item vector was sealed or
// received in. These cases also run under the tsan label.

TEST(ItemHandleTest, SlicesOutliveTheirVectorAndReplyBody) {
  const std::vector<EncryptedItem> sent = {Item(1, 8, Bytes{7, 7}), Item(2, 3),
                                           Item(3, 0, Bytes{})};
  Bytes body = EncodeItems(sent);
  const uint8_t* body_bytes = body.data();
  EncryptedItem kept_middle;
  EncryptedItem kept_last;
  {
    std::vector<EncryptedItem> decoded =
        DecodeItems(std::move(body)).ValueOrDie();
    // Adopted, not copied: the second item's encoding sits in the body right
    // after the count and the first item.
    EXPECT_EQ(decoded[1].encoding().data(),
              body_bytes + 4 + sent[0].EncodedSize());
    kept_middle = decoded[1];
    kept_last = decoded[2];
  }
  // The vector and the moved-from body are gone; the slices still read the
  // bytes (ASan flags a slice that outlived its owner).
  EXPECT_EQ(kept_middle, sent[1]);
  EXPECT_EQ(kept_last, sent[2]);
  EXPECT_TRUE(SameBytes(kept_middle.blob(), Bytes(3, 2)));
  EXPECT_FALSE(kept_middle.routing_tag().has_value());
  ASSERT_TRUE(kept_last.routing_tag().has_value());
  EXPECT_TRUE(kept_last.routing_tag()->empty());
}

TEST(ItemHandleTest, CopyingAnItemAllocatesNothing) {
  std::vector<EncryptedItem> items =
      DecodeItems(EncodeItems(std::vector<EncryptedItem>{
                      Item(1, 64, Bytes(16, 9)), Item(2, 64)}))
          .ValueOrDie();
  std::vector<EncryptedItem> copies;
  copies.reserve(4);
  const uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  EncryptedItem copy = items[0];
  copies.push_back(items[1]);
  copies.push_back(copy);
  EncryptedItem assigned;
  assigned = items[1];
  copies.push_back(std::move(assigned));
  const uint64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(allocs, 0u);
  // A copy shares the bytes it was copied from.
  EXPECT_EQ(copy.encoding().data(), items[0].encoding().data());
  EXPECT_EQ(copies[2], items[1]);
}

TEST(ItemHandleTest, EqualityIsEncodingEquality) {
  const Bytes blob = {1, 2, 3};
  // Equal fields in two different buffers are equal items.
  EXPECT_EQ(EncryptedItem(blob, Bytes{4}), EncryptedItem(blob, Bytes{4}));
  EXPECT_EQ(EncryptedItem(), EncryptedItem(Bytes{}));
  EXPECT_NE(EncryptedItem(blob), EncryptedItem(Bytes{1, 2, 4}));
  EXPECT_NE(EncryptedItem(blob, Bytes{4}), EncryptedItem(blob, Bytes{5}));
  // A present-but-empty tag is not the absence of a tag.
  const EncryptedItem empty_tag(blob, Bytes{});
  const EncryptedItem no_tag(blob);
  EXPECT_NE(empty_tag, no_tag);
  ASSERT_TRUE(empty_tag.routing_tag().has_value());
  EXPECT_TRUE(empty_tag.routing_tag()->empty());
  EXPECT_FALSE(no_tag.routing_tag().has_value());
  EXPECT_EQ(empty_tag.WireSize(), no_tag.WireSize());
  EXPECT_EQ(empty_tag.EncodedSize(), no_tag.EncodedSize() + 4);
  // Equality is exactly equality of the encodings.
  const std::vector<EncryptedItem> items = {
      no_tag, empty_tag, EncryptedItem(blob, Bytes{4}), EncryptedItem(),
      EncryptedItem(Bytes{}, Bytes{})};
  for (const EncryptedItem& a : items) {
    for (const EncryptedItem& b : items) {
      EXPECT_EQ(a == b, SameBytes(a.encoding(), b.encoding()));
    }
  }
}

TEST(ItemHandleTest, PartitionByTagMatchesAMapReference) {
  // Tags of varying lengths, including prefixes of one another and the
  // empty tag, so the span comparator's order is checked against
  // std::map<Bytes>'s own.
  const std::vector<Bytes> tags = {{}, {1}, {1, 0}, {0, 255}, {2},
                                   {1, 0, 0}, {255}, {0}};
  Rng rng(17);
  std::vector<EncryptedItem> items;
  std::map<Bytes, std::vector<EncryptedItem>> reference;
  for (int i = 0; i < 200; ++i) {
    const Bytes& tag = tags[rng.NextBelow(tags.size())];
    items.push_back(Item(static_cast<uint8_t>(i), 4, tag));
    reference[tag].push_back(items.back());
  }
  const std::vector<Partition> partitions =
      PartitionByTag(std::move(items)).ValueOrDie();
  ASSERT_EQ(partitions.size(), reference.size());
  size_t i = 0;
  for (const auto& [tag, expected] : reference) {
    EXPECT_EQ(partitions[i].items, expected) << "partition " << i;
    EXPECT_TRUE(SameBytes(*partitions[i].items[0].routing_tag(), tag));
    ++i;
  }
}

TEST(ItemHandleTest, ContributionDigestIsPinned) {
  // The digest a dynamically-keyed TDS MACs over its upload, computed over
  // the item encodings in place. The golden value was computed by the
  // struct representation this handle replaced (re-encode per item into a
  // scratch buffer), so dynamic-key admission is unchanged.
  std::vector<EncryptedItem> items = {
      EncryptedItem(Bytes{0x01, 0x02, 0x03}, Bytes{0xA0, 0xA1}),
      EncryptedItem(Bytes{0x20, 0x21}),
      EncryptedItem(Bytes{}, Bytes{0xC0}),
      EncryptedItem(Bytes{0x30}, Bytes{}),
  };
  Bytes long_blob;
  for (int i = 0; i < 40; ++i) long_blob.push_back(static_cast<uint8_t>(i * 7));
  items.emplace_back(long_blob);
  EXPECT_EQ(ToHex(keys::ContributionDigest(items)),
            "18f25c98dcfe7dcf37464978fd08fba4d580e8da53466759720673e5e350c2cf");
  // Adopted items hash the same bytes.
  const std::vector<EncryptedItem> adopted =
      DecodeItems(EncodeItems(items)).ValueOrDie();
  EXPECT_EQ(keys::ContributionDigest(adopted),
            keys::ContributionDigest(items));
}

TEST(ItemHandleTest, ItemsOfOneBufferAreSharedAcrossThreads) {
  // The RunRound pattern: tasks read their own slice of one decoded buffer
  // and copy items out; the atomic reference count is the only shared
  // write.
  std::vector<EncryptedItem> sent;
  for (int i = 0; i < 64; ++i) {
    sent.push_back(Item(static_cast<uint8_t>(i), 32,
                        Bytes{static_cast<uint8_t>(i % 4)}));
  }
  const std::vector<EncryptedItem> decoded =
      DecodeItems(EncodeItems(sent)).ValueOrDie();
  std::vector<std::thread> threads;
  std::vector<int> mismatches(4, 0);
  for (size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 50; ++round) {
        std::vector<EncryptedItem> mine;
        for (size_t i = t; i < decoded.size(); i += 4) {
          mine.push_back(decoded[i]);
          if (mine.back() != sent[i]) mismatches[t] += 1;
        }
        Bytes reencoded;
        EncodeItemsTo(mine, &reencoded);
        if (reencoded.empty()) mismatches[t] += 1;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches, std::vector<int>(4, 0));
}

TEST(ViewRecorderTest, TagCountsMatchAMapReference) {
  // The node counts tags and blob sizes in hash maps and folds them into
  // the view's ordered maps when the view is read. Reads between
  // observations must not lose or double a count, whatever the tags'
  // lengths (the empty tag included) and however often the counts rehash.
  Rng rng(29);
  ViewRecorder recorder;
  std::map<Bytes, uint64_t> collection;
  std::map<Bytes, uint64_t> aggregation;
  std::map<uint64_t, uint64_t> sizes;
  uint64_t items = 0;
  for (int upload = 0; upload < 40; ++upload) {
    std::vector<EncryptedItem> batch;
    for (int i = 0; i < 25; ++i) {
      const uint64_t pick = rng.NextBelow(300);
      const Bytes blob(1 + pick % 4, 0x11);
      if (upload % 2 == 0) sizes[blob.size()] += 1;
      if (pick % 7 == 0) {
        batch.emplace_back(blob);  // untagged
        continue;
      }
      const Bytes tag(pick % 5, static_cast<uint8_t>(pick));
      batch.emplace_back(blob, tag);
      (upload % 2 == 0 ? collection : aggregation)[tag] += 1;
    }
    Bytes encoded;
    EncodeItemsTo(batch, &encoded);
    if (upload % 2 == 0) {
      ASSERT_TRUE(recorder.ObserveCollection(encoded).ok());
      items += batch.size();
    } else {
      ASSERT_TRUE(recorder.ObserveAggregation(encoded).ok());
    }
    if (upload % 9 == 4) {
      EXPECT_EQ(recorder.View().collection_tag_histogram, collection);
      EXPECT_EQ(recorder.View().collection_blob_size_histogram, sizes);
    }
  }
  const AdversaryView& view = recorder.View();
  EXPECT_EQ(view.collection_tag_histogram, collection);
  EXPECT_EQ(view.aggregation_tag_histogram, aggregation);
  EXPECT_EQ(view.collection_blob_size_histogram, sizes);
  EXPECT_EQ(view.collection_items, items);
}

AdversaryView SampleView() {
  AdversaryView view;
  view.collection_tag_histogram = {{Bytes{}, 2}, {Bytes{1, 2}, 5}};
  view.collection_blob_size_histogram = {{40, 6}, {48, 1}};
  view.aggregation_tag_histogram = {{Bytes{9}, 3}};
  view.collection_items = 7;
  view.aggregation_items = 3;
  view.filtering_items = 2;
  return view;
}

TEST(AdversaryViewTest, MergeSumsCountersAndMergesHistogramsByKey) {
  AdversaryView other;
  other.collection_tag_histogram = {{Bytes{1, 2}, 1}, {Bytes{3}, 4}};
  other.collection_blob_size_histogram = {{33, 2}, {48, 3}};
  other.collection_items = 5;
  other.filtering_items = 1;
  AdversaryView merged = SampleView();
  merged.Merge(other);
  EXPECT_EQ(merged.collection_tag_histogram,
            (std::map<Bytes, uint64_t>{
                {Bytes{}, 2}, {Bytes{1, 2}, 6}, {Bytes{3}, 4}}));
  EXPECT_EQ(merged.collection_blob_size_histogram,
            (std::map<uint64_t, uint64_t>{{33, 2}, {40, 6}, {48, 4}}));
  EXPECT_EQ(merged.aggregation_tag_histogram,
            SampleView().aggregation_tag_histogram);
  EXPECT_EQ(merged.collection_items, 12u);
  EXPECT_EQ(merged.aggregation_items, 3u);
  EXPECT_EQ(merged.filtering_items, 3u);
  // Merging is order-free: the other way round encodes the same bytes.
  AdversaryView reversed = other;
  reversed.Merge(SampleView());
  Bytes a, b;
  merged.EncodeTo(&a);
  reversed.EncodeTo(&b);
  EXPECT_EQ(a, b);
}

TEST(AdversaryViewTest, CodecRoundTripsAndRejectsUnorderedKeys) {
  Bytes encoded;
  SampleView().EncodeTo(&encoded);
  // Layout: three histograms (u32 count, then ascending (key, u64) pairs),
  // then three u64 counters.
  const size_t tags = 4 + (4 + 0 + 8) + (4 + 2 + 8);
  ASSERT_EQ(encoded.size(), tags + 4 + 2 * 16 + 4 + (4 + 1 + 8) + 3 * 8);
  Bytes reencoded;
  AdversaryView::Decode(encoded).ValueOrDie().EncodeTo(&reencoded);
  EXPECT_EQ(reencoded, encoded);

  // Swap the two size entries: 48 before 40.
  Bytes swapped = encoded;
  std::swap_ranges(swapped.begin() + tags + 4, swapped.begin() + tags + 20,
                   swapped.begin() + tags + 20);
  Result<AdversaryView> unordered = AdversaryView::Decode(swapped);
  ASSERT_FALSE(unordered.ok());
  EXPECT_TRUE(unordered.status().IsCorruption());

  // A repeated tag: one collection tag entry written twice under an entry
  // count of 2 (little-endian u32).
  AdversaryView repeated = SampleView();
  repeated.collection_tag_histogram = {{Bytes{7}, 1}};
  Bytes one_tag;
  repeated.EncodeTo(&one_tag);
  Bytes duplicated(one_tag.begin(), one_tag.begin() + 4 + 13);
  duplicated[0] = 2;
  duplicated.insert(duplicated.end(), one_tag.begin() + 4, one_tag.end());
  Result<AdversaryView> twice = AdversaryView::Decode(duplicated);
  ASSERT_FALSE(twice.ok());
  EXPECT_TRUE(twice.status().IsCorruption());
}

}  // namespace
}  // namespace tcells::ssi
