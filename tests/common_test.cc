// Tests for src/common: Status/Result, byte codec, hex, RNG, strings.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <set>
#include <span>

#include "common/arena.h"
#include "common/bytes.h"
#include "common/hex.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/strings.h"

namespace tcells {
namespace {

// ---------------------------------------------------------------------------
// Status / Result

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NotFound: missing thing");
}

// Success is a null pointer: passing, testing and destroying an OK status
// touches no heap, and a Result<T> is one pointer beside its value.
static_assert(sizeof(Status) == sizeof(void*));

TEST(StatusTest, CopiesOwnTheirStateAndMovesLeaveOk) {
  Status a = Status::Unavailable("link down");
  Status b = a;
  EXPECT_TRUE(b.IsUnavailable());
  EXPECT_EQ(b.message(), "link down");
  EXPECT_NE(&a.message(), &b.message());
  Status c = std::move(a);
  EXPECT_EQ(c.ToString(), "Unavailable: link down");
  EXPECT_TRUE(a.ok());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(a.message(), "");
  b = Status::OK();
  EXPECT_TRUE(b.ok());
  EXPECT_EQ(b.code(), StatusCode::kOk);
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kInvalidArgument),
               "InvalidArgument");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kPermissionDenied),
               "PermissionDenied");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kCorruption), "Corruption");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kResourceExhausted),
               "ResourceExhausted");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kUnimplemented),
               "Unimplemented");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kInternal), "Internal");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kFailedPrecondition),
               "FailedPrecondition");
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

Result<int> Doubled(int x) {
  TCELLS_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  return v * 2;
}

TEST(ResultTest, ValuePath) {
  Result<int> r = ParsePositive(21);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 21);
  EXPECT_EQ(r.ValueOr(-1), 21);
}

TEST(ResultTest, ErrorPath) {
  Result<int> r = ParsePositive(-3);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
  EXPECT_EQ(r.ValueOr(-1), -1);
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_FALSE(Doubled(0).ok());
  Result<int> r = Doubled(5);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 10);
}

TEST(ResultTest, OkStatusBecomesInternalError) {
  Result<int> r = Status::OK();
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInternal());
}

// ---------------------------------------------------------------------------
// ByteWriter / ByteReader

TEST(BytesTest, RoundTripAllTypes) {
  Bytes buf;
  ByteWriter w(&buf);
  w.PutU8(0xab);
  w.PutU16(0x1234);
  w.PutU32(0xdeadbeef);
  w.PutU64(0x0123456789abcdefULL);
  w.PutI64(-42);
  w.PutDouble(3.5);
  w.PutString("hello");
  w.PutBytes({1, 2, 3});

  ByteReader r(buf);
  EXPECT_EQ(r.GetU8().ValueOrDie(), 0xab);
  EXPECT_EQ(r.GetU16().ValueOrDie(), 0x1234);
  EXPECT_EQ(r.GetU32().ValueOrDie(), 0xdeadbeefu);
  EXPECT_EQ(r.GetU64().ValueOrDie(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.GetI64().ValueOrDie(), -42);
  EXPECT_EQ(r.GetDouble().ValueOrDie(), 3.5);
  EXPECT_EQ(r.GetString().ValueOrDie(), "hello");
  EXPECT_EQ(r.GetBytes().ValueOrDie(), (Bytes{1, 2, 3}));
  EXPECT_TRUE(r.AtEnd());
}

TEST(BytesTest, LittleEndianLayout) {
  Bytes buf;
  ByteWriter w(&buf);
  w.PutU32(0x01020304);
  ASSERT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf[0], 0x04);
  EXPECT_EQ(buf[3], 0x01);
}

TEST(BytesTest, UnderflowIsCorruption) {
  Bytes buf = {1, 2};
  ByteReader r(buf);
  auto res = r.GetU32();
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(res.status().IsCorruption());
}

TEST(ByteReaderTest, HugeLengthsCannotWrapTheCursor) {
  // A length near SIZE_MAX must fail as underflow, not wrap the bounds
  // check and move the cursor backwards.
  const Bytes buf(10, 0x5a);
  ByteReader r(buf);
  ASSERT_TRUE(r.Skip(5).ok());
  EXPECT_TRUE(r.Skip(SIZE_MAX - 2).IsCorruption());
  EXPECT_EQ(r.remaining(), 5u);
  EXPECT_TRUE(r.GetRaw(SIZE_MAX - 2).status().IsCorruption());
  EXPECT_EQ(r.remaining(), 5u);
  EXPECT_TRUE(r.Skip(5).ok());
  EXPECT_TRUE(r.AtEnd());
}

TEST(SharedBytesTest, CopiesShareTheBufferAndCompareByContent) {
  const SharedBytes a(Bytes{1, 2, 3});
  const SharedBytes b = a;
  EXPECT_EQ(a.data(), b.data());
  EXPECT_EQ(a, SharedBytes(Bytes{1, 2, 3}));
  EXPECT_FALSE(a == SharedBytes(Bytes{1, 2}));
  EXPECT_EQ(SharedBytes(), SharedBytes(Bytes{}));
  // A view keeps its owner alive.
  auto owner = std::make_shared<const Bytes>(Bytes{9, 8, 7, 6});
  const SharedBytes view(owner, std::span<const uint8_t>(*owner).subspan(1, 2));
  owner.reset();
  EXPECT_EQ(view.ToBytes(), (Bytes{8, 7}));
}

TEST(BytesTest, TruncatedLengthPrefixedBytes) {
  Bytes buf;
  ByteWriter w(&buf);
  w.PutU32(100);  // claims 100 bytes follow
  buf.push_back(7);
  ByteReader r(buf);
  EXPECT_FALSE(r.GetBytes().ok());
}

// ---------------------------------------------------------------------------
// Hex

TEST(HexTest, RoundTrip) {
  Bytes data = {0x00, 0xff, 0x12, 0xab};
  EXPECT_EQ(ToHex(data), "00ff12ab");
  EXPECT_EQ(FromHex("00ff12ab").ValueOrDie(), data);
  EXPECT_EQ(FromHex("00FF12AB").ValueOrDie(), data);
}

TEST(HexTest, RejectsBadInput) {
  EXPECT_FALSE(FromHex("abc").ok());   // odd length
  EXPECT_FALSE(FromHex("zz").ok());    // non-hex digit
  EXPECT_TRUE(FromHex("").ValueOrDie().empty());
}

// ---------------------------------------------------------------------------
// Rng

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextBelowCoversAllResidues) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.NextBelow(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.NextInRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, DoublesInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BytesHaveRequestedLength) {
  Rng rng(17);
  for (size_t n : {0u, 1u, 7u, 8u, 9u, 31u, 32u}) {
    EXPECT_EQ(rng.NextBytes(n).size(), n);
  }
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(19);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

// A keyed seed is a pure function of its four words, and changing any one
// word (domain or coordinate, including swapping the two coordinates) gives
// another stream.
TEST(RngTest, KeyedSeedsAreDeterministicAndSeparated) {
  EXPECT_EQ(Rng::Keyed(5, RngDomain::kServe, 7),
            Rng::Keyed(5, RngDomain::kServe, 7));
  std::set<uint64_t> seeds;
  for (uint64_t seed : {0u, 5u}) {
    for (RngDomain domain : {RngDomain::kConnect, RngDomain::kPartition}) {
      for (uint64_t a = 0; a < 8; ++a) {
        for (uint64_t b = 0; b < 8; ++b) {
          seeds.insert(Rng::Keyed(seed, domain, a, b));
        }
      }
    }
  }
  EXPECT_EQ(seeds.size(), 2u * 2u * 8u * 8u);
}

TEST(ZipfTest, UniformWhenSkewZero) {
  ZipfSampler z(4, 0.0);
  EXPECT_NEAR(z.Pmf(0), 0.25, 1e-12);
  EXPECT_NEAR(z.Pmf(3), 0.25, 1e-12);
}

TEST(ZipfTest, SkewFavorsLowRanks) {
  ZipfSampler z(100, 1.0);
  EXPECT_GT(z.Pmf(0), z.Pmf(1));
  EXPECT_GT(z.Pmf(1), z.Pmf(50));
}

TEST(ZipfTest, SamplesMatchPmfRoughly) {
  ZipfSampler z(10, 1.0);
  Rng rng(23);
  std::vector<int> counts(10, 0);
  const int kN = 20000;
  for (int i = 0; i < kN; ++i) counts[z.Sample(&rng)]++;
  for (size_t r = 0; r < 10; ++r) {
    double expected = z.Pmf(r) * kN;
    EXPECT_NEAR(counts[r], expected, 5 * std::sqrt(expected) + 10);
  }
}

// ---------------------------------------------------------------------------
// Strings

TEST(StringsTest, CaseConversion) {
  EXPECT_EQ(ToLower("SeLeCt"), "select");
}

TEST(StringsTest, EqualsIgnoreCase) {
  EXPECT_TRUE(EqualsIgnoreCase("GROUP", "group"));
  EXPECT_FALSE(EqualsIgnoreCase("GROUP", "groupe"));
  EXPECT_FALSE(EqualsIgnoreCase("a", "b"));
}

// ---------------------------------------------------------------------------
// Arena

TEST(ArenaTest, AllocationsAreDistinctAndWritable) {
  Arena arena;
  uint8_t* a = arena.Allocate(100);
  uint8_t* b = arena.Allocate(100);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);
  std::memset(a, 0xaa, 100);
  std::memset(b, 0xbb, 100);
  EXPECT_EQ(a[99], 0xaa);  // b's fill must not clobber a
  EXPECT_EQ(b[0], 0xbb);
}

TEST(ArenaTest, RespectsAlignment) {
  Arena arena;
  arena.Allocate(1);  // misalign the bump pointer
  for (size_t align : {2u, 4u, 8u, 16u, 64u}) {
    uint8_t* p = arena.Allocate(3, align);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % align, 0u) << align;
    arena.Allocate(1);
  }
}

TEST(ArenaTest, CopyDuplicatesBytes) {
  Arena arena;
  const uint8_t src[] = {1, 2, 3, 4, 5};
  uint8_t* dup = arena.Copy(src, sizeof(src));
  EXPECT_NE(dup, src);
  EXPECT_EQ(std::memcmp(dup, src, sizeof(src)), 0);
}

TEST(ArenaTest, OversizedAllocationGetsOwnChunk) {
  Arena arena(/*min_chunk_bytes=*/64);
  uint8_t* big = arena.Allocate(100 * 1024);
  ASSERT_NE(big, nullptr);
  std::memset(big, 0x5a, 100 * 1024);  // asan would flag an undersized chunk
  EXPECT_GE(arena.bytes_reserved(), 100 * 1024u);
}

TEST(ArenaTest, ResetKeepsLargestChunkAndStopsGrowing) {
  Arena arena(/*min_chunk_bytes=*/64);
  for (int i = 0; i < 100; ++i) arena.Allocate(64);
  arena.Reset();
  EXPECT_EQ(arena.chunk_count(), 1u);
  EXPECT_EQ(arena.bytes_allocated(), 0u);
  const size_t reserved = arena.bytes_reserved();
  // The kept chunk (geometric growth → largest holds >= half the total)
  // absorbs the same workload without reserving more.
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 40; ++i) arena.Allocate(64);
    EXPECT_EQ(arena.bytes_reserved(), reserved) << "round " << round;
    arena.Reset();
  }
}

}  // namespace
}  // namespace tcells
