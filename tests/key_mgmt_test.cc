// Dynamic key-management suite (`ctest -L keys`, docs/KEYS.md):
//
//   * complete-subtree cover-set properties at fleet scale (up to 64k ids):
//     random revocation sets partition exactly, the r*log2(N/r) header bound
//     holds, revoked devices learn nothing;
//   * hostile epoch-block decoding: truncation, restamping, forged bodies
//     and stale replays are all refused without corrupting the TDS state;
//   * contribution admission: round trip, forged digests, stale epochs and
//     revoked devices;
//   * the static/dynamic differential: KeyMode::kDynamic produces the
//     byte-identical result table and adversary-view statistics of the
//     static engine, for every protocol and several worlds;
//   * the churn/rollover scenario suite: revocation mid-query (pinned
//     rejection count), epoch rollover under an in-flight multi-round
//     S_Agg, revocation under dropout churn — all oracle-anchored;
//   * the keys determinism grid: dynamic-mode runs are bit-identical across
//     worker-thread counts, shard counts and transport backends.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/hex.h"
#include "common/rng.h"
#include "crypto/broadcast.h"
#include "crypto/keystore.h"
#include "crypto/sha256.h"
#include "keys/epoch.h"
#include "keys/key_authority.h"
#include "keys/tds_keys.h"
#include "net/channel.h"
#include "net/loopback.h"
#include "net/ssi_client.h"
#include "net/ssi_node.h"
#include "obs/metrics.h"
#include "protocol/protocols.h"
#include "protocol/reference.h"
#include "sim/campaign.h"
#include "ssi/messages.h"
#include "tcells/engine.h"
#include "tds/access_control.h"
#include "tds/query_cache.h"
#include "workload/generic.h"

namespace tcells {
namespace {

using crypto::BroadcastChannel;
using protocol::ProtocolKind;
using protocol::ProtocolKindToString;
using protocol::RunOutcome;

// ---------------------------------------------------------------------------
// Complete-subtree cover-set properties at fleet scale (satellite a).

/// The device-index range [lo, hi] of the leaves under heap node `node` in a
/// tree with `capacity` leaves (leaves are nodes capacity..2*capacity-1).
std::pair<size_t, size_t> LeafRange(uint32_t node, size_t capacity) {
  uint64_t lo = node;
  uint64_t hi = node;
  while (lo < capacity) {
    lo = lo * 2;
    hi = hi * 2 + 1;
  }
  return {static_cast<size_t>(lo - capacity),
          static_cast<size_t>(hi - capacity)};
}

std::set<size_t> RandomRevoked(size_t count, size_t num_devices, Rng* rng) {
  std::set<size_t> revoked;
  while (revoked.size() < count) {
    revoked.insert(static_cast<size_t>(rng->NextBelow(num_devices)));
  }
  return revoked;
}

// The cover of any random revocation set is an exact partition of the
// non-revoked devices — no revoked leaf, no padding leaf, no overlap, no
// gap — for fleets up to 64k ids, padded and power-of-two alike.
TEST(CompleteSubtreeProperty, RandomRevocationSetsPartitionExactly) {
  Rng rng(0x6b657973);
  for (size_t num_devices : {size_t{96}, size_t{1000}, size_t{65536}}) {
    auto channel =
        BroadcastChannel::Create(rng.NextBytes(16), num_devices).ValueOrDie();
    const size_t capacity = channel.capacity();
    for (size_t r : {size_t{0}, size_t{1}, size_t{7}, size_t{64},
                     num_devices / 16}) {
      SCOPED_TRACE("devices=" + std::to_string(num_devices) +
                   " revoked=" + std::to_string(r));
      std::set<size_t> revoked = RandomRevoked(r, num_devices, &rng);
      std::vector<uint32_t> cover = channel.Cover(revoked);
      std::vector<bool> covered(num_devices, false);
      for (uint32_t node : cover) {
        auto [lo, hi] = LeafRange(node, capacity);
        for (size_t i = lo; i <= hi; ++i) {
          ASSERT_LT(i, num_devices) << "cover includes a padding leaf";
          ASSERT_EQ(revoked.count(i), 0u) << "cover includes revoked " << i;
          ASSERT_FALSE(covered[i]) << "cover subtrees overlap at " << i;
          covered[i] = true;
        }
      }
      for (size_t i = 0; i < num_devices; ++i) {
        ASSERT_EQ(covered[i], revoked.count(i) == 0) << "gap at device " << i;
      }
    }
  }
}

/// The cover as an ordered set of dirty nodes builds it: every node on the
/// path of a revoked or padding leaf is dirty, and the cover is the clean
/// children of dirty nodes in ascending order.
std::vector<uint32_t> ReferenceCover(size_t num_devices, size_t capacity,
                                     const std::set<size_t>& revoked) {
  std::set<uint32_t> dirty;
  auto mark = [&](size_t leaf_index) {
    for (uint32_t node = static_cast<uint32_t>(capacity + leaf_index);
         node >= 1; node /= 2) {
      dirty.insert(node);
      if (node == 1) break;
    }
  };
  for (size_t r : revoked) {
    if (r < num_devices) mark(r);
  }
  for (size_t pad = num_devices; pad < capacity; ++pad) mark(pad);
  if (dirty.empty()) return {1};
  std::vector<uint32_t> cover;
  for (uint32_t node : dirty) {
    if (node >= capacity) continue;
    for (uint32_t child : {2 * node, 2 * node + 1}) {
      if (!dirty.count(child)) cover.push_back(child);
    }
  }
  return cover;
}

// The bitmap cover is the ordered-set cover, node for node and in the same
// order, for random revocation sets over padded and power-of-two fleets
// (ids beyond the fleet included: both ignore them).
TEST(CompleteSubtreeProperty, CoverMatchesOrderedSetReference) {
  Rng rng(0x636f766572);
  for (size_t num_devices : {size_t{1}, size_t{2}, size_t{3}, size_t{21},
                             size_t{96}, size_t{1024}, size_t{4097}}) {
    auto channel =
        BroadcastChannel::Create(rng.NextBytes(16), num_devices).ValueOrDie();
    for (size_t r : {size_t{0}, size_t{1}, size_t{2}, size_t{7}, size_t{64},
                     num_devices / 3, num_devices}) {
      SCOPED_TRACE("devices=" + std::to_string(num_devices) +
                   " revoked=" + std::to_string(r));
      for (int trial = 0; trial < 4; ++trial) {
        std::set<size_t> revoked = RandomRevoked(
            std::min(r, num_devices + 4), num_devices + 4, &rng);
        EXPECT_EQ(channel.Cover(revoked),
                  ReferenceCover(num_devices, channel.capacity(), revoked));
      }
    }
  }
}

// The NNL header bound at 64k devices: |cover| <= r * log2(N/r), and the
// empty revocation set needs exactly the root.
TEST(CompleteSubtreeProperty, CoverSizeWithinNnlBoundAt64k) {
  constexpr size_t kDevices = 65536;
  Rng rng(0x626f756e64);
  auto channel =
      BroadcastChannel::Create(rng.NextBytes(16), kDevices).ValueOrDie();

  EXPECT_EQ(channel.Cover({}), std::vector<uint32_t>{1});

  for (size_t r : {size_t{1}, size_t{16}, size_t{256}, size_t{1024},
                   size_t{4096}}) {
    SCOPED_TRACE("revoked=" + std::to_string(r));
    std::set<size_t> revoked = RandomRevoked(r, kDevices, &rng);
    double bound =
        static_cast<double>(r) *
        std::log2(static_cast<double>(kDevices) / static_cast<double>(r));
    EXPECT_LE(channel.Cover(revoked).size(),
              static_cast<size_t>(bound) + 1);
  }
}

// Mass revocation with one broadcast at scale: every revoked device fails to
// unwrap, every surviving device recovers the payload.
TEST(CompleteSubtreeProperty, RevokedDevicesLearnNothingAtScale) {
  constexpr size_t kDevices = 65536;
  Rng rng(0x7265766f);
  auto channel =
      BroadcastChannel::Create(rng.NextBytes(16), kDevices).ValueOrDie();
  std::set<size_t> revoked = RandomRevoked(1000, kDevices, &rng);
  Bytes payload = rng.NextBytes(48);
  auto message = channel.Encrypt(payload, revoked, &rng).ValueOrDie();

  size_t checked_revoked = 0;
  for (size_t device : revoked) {
    if (++checked_revoked > 16) break;
    auto keys = channel.DeviceKeys(device).ValueOrDie();
    EXPECT_TRUE(BroadcastChannel::Decrypt(message, keys).status().IsNotFound())
        << "revoked device " << device << " unwrapped the broadcast";
  }
  size_t checked_ok = 0;
  for (size_t device = 0; device < kDevices && checked_ok < 16;
       device += 4099) {
    if (revoked.count(device)) continue;
    ++checked_ok;
    auto keys = channel.DeviceKeys(device).ValueOrDie();
    EXPECT_EQ(BroadcastChannel::Decrypt(message, keys).ValueOrDie(), payload);
  }
}

// ---------------------------------------------------------------------------
// Hostile epoch-block and epoch-secrets decoding (satellite d).

TEST(EpochCodec, EveryTruncationOfARealBlockIsRejected) {
  auto authority =
      keys::KeyAuthority::Create(Bytes(16, 0x21), 16, 7).ValueOrDie();
  Bytes good = authority->CurrentBlock();
  ASSERT_TRUE(keys::EpochBlock::Decode(good).ok());
  for (size_t len = 0; len < good.size(); ++len) {
    Bytes prefix(good.begin(), good.begin() + len);
    EXPECT_FALSE(keys::EpochBlock::Decode(prefix).ok())
        << "truncation to " << len << " bytes decoded";
  }
}

TEST(EpochCodec, ZeroCoverAndNodeZeroAndTrailingBytesAreCorruption) {
  Bytes zero_cover;
  {
    ByteWriter w(&zero_cover);
    w.PutU32(5);  // epoch
    w.PutU32(0);  // header entries
  }
  EXPECT_TRUE(keys::EpochBlock::Decode(zero_cover).status().IsCorruption());

  Bytes node_zero;
  {
    ByteWriter w(&node_zero);
    w.PutU32(5);
    w.PutU32(1);
    w.PutU32(0);  // node id 0 is outside the heap numbering
    w.PutBytes(Bytes(4, 0x11));
    w.PutBytes(Bytes(8, 0x22));
  }
  EXPECT_TRUE(keys::EpochBlock::Decode(node_zero).status().IsCorruption());

  auto authority =
      keys::KeyAuthority::Create(Bytes(16, 0x22), 8, 9).ValueOrDie();
  Bytes trailing = authority->CurrentBlock();
  trailing.push_back(0x00);
  EXPECT_TRUE(keys::EpochBlock::Decode(trailing).status().IsCorruption());
}

// Devices find their header entry by binary search, so a header whose node
// ids are not strictly ascending is Corruption at decode, and a TDS fed one
// keeps no window from it.
TEST(EpochCodec, HeaderOutOfOrderIsCorruption) {
  auto authority =
      keys::KeyAuthority::Create(Bytes(16, 0x23), 64, 11).ValueOrDie();
  ASSERT_TRUE(authority->Revoke({5, 40}).ok());
  const auto block =
      keys::EpochBlock::Decode(authority->CurrentBlock()).ValueOrDie();
  const auto& header = block.message.header;
  ASSERT_GE(header.size(), 3u);
  for (size_t i = 1; i < header.size(); ++i) {
    ASSERT_LT(header[i - 1].first, header[i].first);
  }

  auto swapped = block;
  std::swap(swapped.message.header[0], swapped.message.header[1]);
  auto reversed = block;
  std::reverse(reversed.message.header.begin(),
               reversed.message.header.end());
  auto repeated = block;
  repeated.message.header[2].first = repeated.message.header[1].first;
  for (const keys::EpochBlock* hostile : {&swapped, &reversed, &repeated}) {
    const Bytes encoded = hostile->Encode();
    EXPECT_TRUE(keys::EpochBlock::Decode(encoded).status().IsCorruption());
    keys::TdsKeyState state(7, authority->EnrollDevice(7).ValueOrDie(),
                            /*source=*/nullptr);
    EXPECT_TRUE(state.Adopt(encoded).IsCorruption());
    EXPECT_TRUE(state.known_epoch().status().IsNotFound());
  }
}

// The published blocks of a fixed (master, id space, seed) are pinned byte
// for byte through create, revoke and rollover, with a TDS's contribution
// tag under the last one: the key path's crypto may get faster, never
// different. The digests were taken before the table-free decryption
// schedule and the shared HMAC midstates.
TEST(KeyAuthorityPin, BlocksAndTagAreByteIdentical) {
  auto authority =
      keys::KeyAuthority::Create(Bytes(16, 0x3c), 1000, 17).ValueOrDie();
  auto block_digest = [&] {
    const auto digest = crypto::Sha256::Hash(authority->CurrentBlock());
    return ToHex(digest.data(), digest.size());
  };
  EXPECT_EQ(block_digest(),
            "5a4624c0f91b6183e59da0c1da428aedc870707708aa5e6fbba065126315e774");
  ASSERT_TRUE(authority->Revoke({3, 500, 999}).ok());
  EXPECT_EQ(block_digest(),
            "b4ceccb658877e11d217c75615dbfc71ec3d94e25b7146994f8a5895de8296d8");
  ASSERT_TRUE(authority->Rollover().ok());
  EXPECT_EQ(block_digest(),
            "8a5804b2d3f06b007be5f14ce51f7a47e5c48fc232ef4ceddbe5994c0a8759a9");

  keys::TdsKeyState state(42, authority->EnrollDevice(42).ValueOrDie(),
                          /*source=*/nullptr);
  ASSERT_TRUE(state.Adopt(authority->CurrentBlock()).ok());
  const Bytes digest(32, 0x5d);
  auto tag = state.Tag(9, digest).ValueOrDie();
  EXPECT_EQ(tag.epoch, 2u);
  EXPECT_EQ(ToHex(tag.mac.data(), tag.mac.size()),
            "23a6b2f09890b435e4949ac3666f024fe0a3cdf9a434b2f0084996b901652be6");
  EXPECT_TRUE(authority->VerifyContribution(tag, 9, digest).ok());
}

TEST(EpochCodec, EpochSecretsRoundTripAndHostileWindows) {
  std::vector<Bytes> secrets;
  for (uint8_t i = 0; i < 4; ++i) secrets.push_back(Bytes(16, i));
  Bytes good = keys::EncodeEpochSecrets(9, secrets);
  auto window = keys::DecodeEpochSecrets(good).ValueOrDie();
  EXPECT_EQ(window.inner_epoch, 9u);
  ASSERT_EQ(window.secrets.size(), 4u);
  // back() is epoch 9, front() epoch 6; epochs outside are unreachable.
  EXPECT_EQ(*window.SecretFor(9), Bytes(16, 3));
  EXPECT_EQ(*window.SecretFor(6), Bytes(16, 0));
  EXPECT_EQ(window.SecretFor(5), nullptr);
  EXPECT_EQ(window.SecretFor(10), nullptr);

  // Truncation anywhere is an error, never a short read.
  for (size_t len = 0; len < good.size(); ++len) {
    Bytes prefix(good.begin(), good.begin() + len);
    EXPECT_FALSE(keys::DecodeEpochSecrets(prefix).ok());
  }

  Bytes trailing = good;
  trailing.push_back(0xff);
  EXPECT_TRUE(keys::DecodeEpochSecrets(trailing).status().IsCorruption());

  // An empty window, an oversized window and a window that would predate
  // epoch 0 are all corrupt.
  EXPECT_TRUE(keys::DecodeEpochSecrets(keys::EncodeEpochSecrets(3, {}))
                  .status()
                  .IsCorruption());
  std::vector<Bytes> oversized(keys::kEpochWindow + 1, Bytes(16, 0xaa));
  EXPECT_TRUE(
      keys::DecodeEpochSecrets(keys::EncodeEpochSecrets(20, oversized))
          .status()
          .IsCorruption());
  std::vector<Bytes> predating(3, Bytes(16, 0xbb));
  EXPECT_TRUE(keys::DecodeEpochSecrets(keys::EncodeEpochSecrets(1, predating))
                  .status()
                  .IsCorruption());
}

// A full window at the last epoch: inner_epoch + 1 wraps to 0 in 32 bits,
// which must not make a valid block look like it predates epoch 0.
TEST(EpochCodec, FullWindowAtTheLastEpochDecodes) {
  constexpr uint32_t kLast = std::numeric_limits<uint32_t>::max();
  Bytes payload;
  {
    ByteWriter w(&payload);
    w.PutU32(kLast);
    w.PutU8(static_cast<uint8_t>(keys::kEpochWindow));
    for (uint32_t i = 0; i < keys::kEpochWindow; ++i) {
      const Bytes secret(16, static_cast<uint8_t>(i));
      w.PutRaw(secret.data(), secret.size());
    }
  }
  auto window = keys::DecodeEpochSecrets(payload);
  ASSERT_TRUE(window.ok()) << window.status().ToString();
  EXPECT_EQ(window->inner_epoch, kLast);
  EXPECT_EQ(*window->SecretFor(kLast), Bytes(16, keys::kEpochWindow - 1));
  EXPECT_EQ(*window->SecretFor(kLast - (keys::kEpochWindow - 1)), Bytes(16, 0));
  EXPECT_EQ(window->SecretFor(kLast - keys::kEpochWindow), nullptr);
}

// ---------------------------------------------------------------------------
// TdsKeyState under a hostile block source.

class CannedSource : public keys::EpochBlockSource {
 public:
  std::vector<Result<Bytes>> FetchLatestBlocks(
      const std::vector<uint64_t>& tds_ids,
      const std::vector<uint64_t>&) override {
    if (fail_) {
      return std::vector<Result<Bytes>>(
          tds_ids.size(), Status::Unavailable("block source offline"));
    }
    return std::vector<Result<Bytes>>(tds_ids.size(), block_);
  }
  void Serve(Bytes block) {
    block_ = std::move(block);
    fail_ = false;
  }
  void Fail() { fail_ = true; }

 private:
  Bytes block_;
  bool fail_ = true;
};

Bytes Restamp(const Bytes& encoded, uint32_t fake_epoch) {
  auto block = keys::EpochBlock::Decode(encoded).ValueOrDie();
  block.epoch = fake_epoch;
  return block.Encode();
}

struct KeyWorld {
  std::unique_ptr<keys::KeyAuthority> authority;
  CannedSource source;
  std::unique_ptr<keys::TdsKeyState> state;

  explicit KeyWorld(uint64_t tds_id, size_t num_devices = 8) {
    authority =
        keys::KeyAuthority::Create(Bytes(16, 0x42), num_devices, 3)
            .ValueOrDie();
    state = std::make_unique<keys::TdsKeyState>(
        tds_id, authority->EnrollDevice(tds_id).ValueOrDie(), &source);
    source.Serve(authority->CurrentBlock());
  }
};

// A rollover block whose public epoch was re-stamped is refused (the sealed
// body disagrees) and the TDS keeps its last good window.
TEST(TdsKeyStateHostile, RestampedRolloverIsRefused) {
  KeyWorld w(/*tds_id=*/3);
  ASSERT_TRUE(w.state->Refresh().ok());
  ASSERT_EQ(w.state->known_epoch().ValueOrDie(), 0u);

  ASSERT_TRUE(w.authority->Rollover().ok());
  w.source.Serve(Restamp(w.authority->CurrentBlock(), 2));
  EXPECT_TRUE(w.state->Refresh().IsCorruption());
  EXPECT_EQ(w.state->known_epoch().ValueOrDie(), 0u);

  // The genuine epoch-1 block is still adoptable afterwards.
  w.source.Serve(w.authority->CurrentBlock());
  EXPECT_TRUE(w.state->Refresh().ok());
  EXPECT_EQ(w.state->known_epoch().ValueOrDie(), 1u);
}

// A forged body (bit-flip inside the sealed payload) fails authentication
// and leaves the window untouched; pure garbage fails decoding.
TEST(TdsKeyStateHostile, ForgedBodyAndGarbageAreIgnored) {
  KeyWorld w(/*tds_id=*/5);
  ASSERT_TRUE(w.state->Refresh().ok());

  ASSERT_TRUE(w.authority->Rollover().ok());
  auto block = keys::EpochBlock::Decode(w.authority->CurrentBlock())
                   .ValueOrDie();
  ASSERT_FALSE(block.message.body.empty());
  block.message.body.front() ^= 0xff;
  w.source.Serve(block.Encode());
  EXPECT_FALSE(w.state->Refresh().ok());
  EXPECT_EQ(w.state->known_epoch().ValueOrDie(), 0u);

  w.source.Serve(Bytes(64, 0x5a));
  EXPECT_FALSE(w.state->Refresh().ok());
  EXPECT_EQ(w.state->known_epoch().ValueOrDie(), 0u);
}

// Replaying the stale epoch-0 block after a rollover is a silent no-op: a
// TDS can never be rolled backwards.
TEST(TdsKeyStateHostile, StaleReplayCannotDowngrade) {
  KeyWorld w(/*tds_id=*/1);
  Bytes epoch0 = w.authority->CurrentBlock();
  ASSERT_TRUE(w.state->Refresh().ok());

  ASSERT_TRUE(w.authority->Rollover().ok());
  w.source.Serve(w.authority->CurrentBlock());
  ASSERT_TRUE(w.state->Refresh().ok());
  ASSERT_EQ(w.state->known_epoch().ValueOrDie(), 1u);

  w.source.Serve(epoch0);
  EXPECT_TRUE(w.state->Refresh().ok());
  EXPECT_EQ(w.state->known_epoch().ValueOrDie(), 1u);
}

// An offline source means no window at all: session keys and Tag both fail
// loudly instead of inventing keys.
TEST(TdsKeyStateHostile, NoWindowFailsClosed) {
  auto authority =
      keys::KeyAuthority::Create(Bytes(16, 0x42), 8, 3).ValueOrDie();
  CannedSource source;  // never served
  keys::TdsKeyState state(2, authority->EnrollDevice(2).ValueOrDie(),
                          &source);
  Rng rng(5);
  ssi::QueryKeyPosting posting = authority->NewPosting(77, &rng);
  EXPECT_TRUE(
      tds::QueryCache().SessionKeys(state, posting).status().IsNotFound());
  EXPECT_TRUE(
      state.Tag(77, Bytes(32, 0x01)).status().IsFailedPrecondition());
}

// ---------------------------------------------------------------------------
// Contribution admission: round trip, forgery, revocation, stale epochs.

TEST(ContributionAdmission, RoundTripAndForgeryAndRevocation) {
  KeyWorld honest(/*tds_id=*/4);
  ASSERT_TRUE(honest.state->Refresh().ok());
  Bytes digest(32, 0x77);
  auto tag = honest.state->Tag(11, digest).ValueOrDie();
  EXPECT_TRUE(honest.authority->VerifyContribution(tag, 11, digest).ok());

  // Wrong query id, wrong digest, flipped mac: all denied.
  EXPECT_TRUE(honest.authority->VerifyContribution(tag, 12, digest)
                  .IsPermissionDenied());
  EXPECT_TRUE(honest.authority->VerifyContribution(tag, 11, Bytes(32, 0x78))
                  .IsPermissionDenied());
  keys::ContributionTag flipped = tag;
  flipped.mac.front() ^= 0x01;
  EXPECT_TRUE(honest.authority->VerifyContribution(flipped, 11, digest)
                  .IsPermissionDenied());

  // Revocation pins the TDS to epoch 0; its next tag carries the stale
  // epoch and is rejected, while the posting-epoch session keys it already
  // derived stop extending to the new epoch.
  ASSERT_TRUE(honest.authority->Revoke({4}).ok());
  honest.source.Serve(honest.authority->CurrentBlock());
  EXPECT_TRUE(honest.state->Refresh().IsNotFound());
  auto stale = honest.state->Tag(11, digest).ValueOrDie();
  EXPECT_EQ(stale.epoch, 0u);
  EXPECT_TRUE(honest.authority->VerifyContribution(stale, 11, digest)
                  .IsPermissionDenied());

  Rng rng(9);
  ssi::QueryKeyPosting fresh_posting = honest.authority->NewPosting(12, &rng);
  EXPECT_EQ(fresh_posting.epoch, 1u);
  EXPECT_TRUE(tds::QueryCache()
                  .SessionKeys(*honest.state, fresh_posting)
                  .status()
                  .IsNotFound());
}

// Both sides of the per-query exchange derive the same session keys from
// the public posting, and different postings give unrelated keys.
TEST(ContributionAdmission, PostingDerivesMatchingSessionKeys) {
  KeyWorld w(/*tds_id=*/6);
  ASSERT_TRUE(w.state->Refresh().ok());
  Rng rng(13);
  ssi::QueryKeyPosting posting = w.authority->NewPosting(21, &rng);
  auto querier_keys = w.authority->QuerierKeysFor(posting).ValueOrDie();
  auto tds_keys = tds::QueryCache().SessionKeys(*w.state, posting).ValueOrDie();
  // KeyStore never exposes raw keys; compare through the derived schemes —
  // the deterministic k2 encryption must agree byte-for-byte, and a k1
  // ciphertext sealed by one side must open on the other.
  Bytes probe = rng.NextBytes(24);
  EXPECT_EQ(querier_keys->k2_det().Encrypt(probe),
            tds_keys->k2_det().Encrypt(probe));
  EXPECT_EQ(querier_keys->k2_hash(), tds_keys->k2_hash());
  Bytes sealed = querier_keys->k1_ndet().Encrypt(probe, &rng);
  EXPECT_EQ(tds_keys->k1_ndet().Decrypt(sealed).ValueOrDie(), probe);

  ssi::QueryKeyPosting other = w.authority->NewPosting(22, &rng);
  auto other_keys = w.authority->QuerierKeysFor(other).ValueOrDie();
  EXPECT_NE(other_keys->k2_det().Encrypt(probe),
            querier_keys->k2_det().Encrypt(probe));
}

/// Two KeyStores seal byte-identically under every scheme.
void ExpectSameKeys(const crypto::KeyStore& a, const crypto::KeyStore& b,
                    const Bytes& probe) {
  EXPECT_EQ(a.k2_det().Encrypt(probe), b.k2_det().Encrypt(probe));
  EXPECT_EQ(a.k2_hash(), b.k2_hash());
  Rng seal_a(23), seal_b(23);
  EXPECT_EQ(a.k1_ndet().Encrypt(probe, &seal_a),
            b.k1_ndet().Encrypt(probe, &seal_b));
  EXPECT_EQ(a.k2_ndet().Encrypt(probe, &seal_a),
            b.k2_ndet().Encrypt(probe, &seal_b));
}

// Session keys in a query cache: every TDS-side lookup of a posting gets one
// KeyStore, which seals byte-identically to the querier's and to a fresh
// derivation, and an entry another TDS filled never lets a revoked TDS past
// its own window.
TEST(QueryCacheKeys, SharedKeysMatchFreshDerivationAndWindowGated) {
  KeyWorld w(/*tds_id=*/2);
  ASSERT_TRUE(w.state->Refresh().ok());
  const Bytes master(16, 0x42);  // KeyWorld's authority master
  Rng rng(17);
  const Bytes probe = rng.NextBytes(24);
  for (uint64_t q = 0; q < 4; ++q) {
    SCOPED_TRACE("posting " + std::to_string(q));
    ssi::QueryKeyPosting posting = w.authority->NewPosting(100 + q, &rng);
    tds::QueryCache cache;  // one per query
    auto tds_keys = cache.SessionKeys(*w.state, posting).ValueOrDie();
    EXPECT_EQ(cache.SessionKeys(*w.state, posting).ValueOrDie(), tds_keys)
        << "one derivation, shared";
    auto querier_keys = w.authority->QuerierKeysFor(posting).ValueOrDie();
    ExpectSameKeys(*tds_keys, *querier_keys, probe);
    auto fresh =
        keys::DeriveQueryKeys(keys::DeriveEpochSecret(master, posting.epoch),
                              posting)
            .ValueOrDie();
    ExpectSameKeys(*tds_keys, *fresh, probe);
  }

  keys::TdsKeyState other(3, w.authority->EnrollDevice(3).ValueOrDie(),
                          &w.source);
  ASSERT_TRUE(w.authority->Revoke({2}).ok());
  w.source.Serve(w.authority->CurrentBlock());
  ssi::QueryKeyPosting after = w.authority->NewPosting(900, &rng);
  tds::QueryCache cache;
  ASSERT_TRUE(cache.SessionKeys(other, after).ok());  // now cached
  EXPECT_TRUE(cache.SessionKeys(*w.state, after).status().IsNotFound());
}

/// Serves a fixed reply per TDS id and counts batched fetches.
class PerIdSource : public keys::EpochBlockSource {
 public:
  explicit PerIdSource(std::map<uint64_t, Result<Bytes>> replies)
      : replies_(std::move(replies)) {}
  std::vector<Result<Bytes>> FetchLatestBlocks(
      const std::vector<uint64_t>& tds_ids,
      const std::vector<uint64_t>&) override {
    ++batches;
    std::vector<Result<Bytes>> out;
    for (uint64_t tds_id : tds_ids) out.push_back(replies_.at(tds_id));
    return out;
  }
  int batches = 0;

 private:
  std::map<uint64_t, Result<Bytes>> replies_;
};

// A batched refresh leaves every state exactly as a serial Refresh() would:
// valid, same-epoch, stale, forged, re-stamped, garbage, cover-excluded and
// unavailable replies, each through both paths on twin states.
TEST(TdsKeyStateBatch, RefreshAllEndsLikeSerialRefresh) {
  constexpr uint64_t kStates = 8;
  auto authority =
      keys::KeyAuthority::Create(Bytes(16, 0x42), 16, 3).ValueOrDie();
  const Bytes block0 = authority->CurrentBlock();
  ASSERT_TRUE(authority->Rollover().ok());
  const Bytes block1 = authority->CurrentBlock();
  ASSERT_TRUE(authority->Revoke({7}).ok());
  const Bytes block2 = authority->CurrentBlock();
  auto forged = keys::EpochBlock::Decode(block2).ValueOrDie();
  forged.message.body.front() ^= 0xff;

  std::map<uint64_t, Result<Bytes>> primes;
  for (uint64_t id = 0; id < kStates; ++id) primes.emplace(id, block0);
  primes.at(2) = block1;  // ahead, so block0 below is a stale replay
  std::map<uint64_t, Result<Bytes>> replies = {
      {0, block2},                               // valid, newer
      {1, block0},                               // same epoch
      {2, block0},                               // stale
      {3, forged.Encode()},                      // forged body
      {4, Restamp(block1, 5)},                   // re-stamped
      {5, Status::Unavailable("source offline")},
      {6, Bytes(64, 0x5a)},                      // garbage
      {7, block2},                               // revoked: not in the cover
  };

  obs::MetricsRegistry registry;
  keys::RefreshCounters counters{
      &registry.counter("fetched"), &registry.counter("adopted"),
      &registry.counter("refused"), &registry.counter("current")};
  PerIdSource serial_source(replies), batch_source(replies);
  std::vector<std::unique_ptr<keys::TdsKeyState>> serial, batched;
  std::vector<keys::TdsKeyState*> batch_ptrs;
  for (uint64_t id = 0; id < kStates; ++id) {
    auto device = authority->EnrollDevice(id).ValueOrDie();
    serial.push_back(
        std::make_unique<keys::TdsKeyState>(id, device, &serial_source));
    batched.push_back(std::make_unique<keys::TdsKeyState>(
        id, device, &batch_source, &counters));
    ASSERT_TRUE(serial.back()->Adopt(*primes.at(id)).ok());
    ASSERT_TRUE(batched.back()->Adopt(*primes.at(id)).ok());
    batch_ptrs.push_back(batched.back().get());
  }
  const uint64_t primed = registry.counter("fetched").value();
  const uint64_t primed_adopted = registry.counter("adopted").value();

  std::vector<Status> statuses = keys::TdsKeyState::RefreshAll(batch_ptrs);
  EXPECT_EQ(batch_source.batches, 1);
  ASSERT_EQ(statuses.size(), kStates);
  const Bytes digest(32, 0x33);
  for (uint64_t id = 0; id < kStates; ++id) {
    SCOPED_TRACE("tds " + std::to_string(id));
    Status serial_status = serial[id]->Refresh();
    EXPECT_EQ(statuses[id].code(), serial_status.code());
    EXPECT_EQ(batched[id]->known_epoch().ValueOrDie(),
              serial[id]->known_epoch().ValueOrDie());
    for (uint32_t epoch = 0; epoch <= 3; ++epoch) {
      EXPECT_EQ(batched[id]->Reaches(epoch), serial[id]->Reaches(epoch));
    }
    auto batch_tag = batched[id]->Tag(41, digest).ValueOrDie();
    auto serial_tag = serial[id]->Tag(41, digest).ValueOrDie();
    EXPECT_EQ(batch_tag.epoch, serial_tag.epoch);
    EXPECT_EQ(batch_tag.mac, serial_tag.mac);
  }
  // Pinned outcomes of the mix.
  EXPECT_TRUE(statuses[0].ok());
  EXPECT_TRUE(statuses[1].ok());
  EXPECT_TRUE(statuses[2].ok());
  EXPECT_FALSE(statuses[3].ok());
  EXPECT_TRUE(statuses[4].IsCorruption());
  EXPECT_TRUE(statuses[5].IsUnavailable());
  EXPECT_TRUE(statuses[6].IsCorruption());
  EXPECT_TRUE(statuses[7].IsNotFound());
  const uint32_t want_epochs[kStates] = {2, 0, 1, 0, 0, 0, 0, 0};
  for (uint64_t id = 0; id < kStates; ++id) {
    EXPECT_EQ(batched[id]->known_epoch().ValueOrDie(), want_epochs[id]);
  }
  EXPECT_EQ(primed, kStates);
  EXPECT_EQ(registry.counter("fetched").value() - primed, 7u);  // not id 5
  EXPECT_EQ(registry.counter("adopted").value() - primed_adopted, 1u);
  EXPECT_EQ(registry.counter("refused").value(), 4u);
}

/// Fetches through one SSI client, each id with its held tag.
class ClientSource : public keys::EpochBlockSource {
 public:
  explicit ClientSource(net::SsiClient* client) : client_(client) {}
  std::vector<Result<Bytes>> FetchLatestBlocks(
      const std::vector<uint64_t>& tds_ids,
      const std::vector<uint64_t>& held_tags) override {
    return client_->FetchEpochBlockBatch(tds_ids, held_tags);
  }

 private:
  net::SsiClient* client_;
};

/// Forwards every fetch with each held tag zeroed: an unconditional refresh.
class ZeroTagSource : public keys::EpochBlockSource {
 public:
  explicit ZeroTagSource(keys::EpochBlockSource* inner) : inner_(inner) {}
  std::vector<Result<Bytes>> FetchLatestBlocks(
      const std::vector<uint64_t>& tds_ids,
      const std::vector<uint64_t>& held_tags) override {
    return inner_->FetchLatestBlocks(
        tds_ids, std::vector<uint64_t>(held_tags.size(), 0));
  }

 private:
  keys::EpochBlockSource* inner_;
};

// A conditional refresh ends every state exactly as an unconditional one.
// Two fleets of the same devices refresh from one SSI node through one
// script of publications; the twin fleet's source zeroes every held tag, so
// it is always sent the whole block. After every RefreshAll the fleets agree
// on each status, known epoch and reachable epoch. A refresh that finds the
// block current moves at most 32 wire bytes per TDS each way.
TEST(TdsKeyStateBatch, ConditionalRefreshEndsLikeUnconditionalRefresh) {
  constexpr uint64_t kStates = 16;
  constexpr uint64_t kRevoked = 5;
  auto authority =
      keys::KeyAuthority::Create(Bytes(16, 0x42), kStates, 3).ValueOrDie();
  net::SsiNode node;
  net::LoopbackTransport transport(node.handler());
  net::BatchOptions batch;
  batch.max_calls_per_frame = 64;
  obs::MetricsRegistry wire;
  net::SsiClient client(&transport, net::RetryPolicy{}, &wire, batch);
  net::SsiClient twin_client(&transport, net::RetryPolicy{}, nullptr, batch);
  net::SsiClient publisher(&transport, net::RetryPolicy{}, nullptr, batch);
  ClientSource source(&client);
  ClientSource twin_client_source(&twin_client);
  ZeroTagSource twin_source(&twin_client_source);

  obs::MetricsRegistry registry;
  keys::RefreshCounters counters{
      &registry.counter("fetched"), &registry.counter("adopted"),
      &registry.counter("refused"), &registry.counter("current")};
  std::vector<std::unique_ptr<keys::TdsKeyState>> owned;
  std::vector<keys::TdsKeyState*> fleet, twins;
  for (uint64_t id = 0; id < kStates; ++id) {
    auto device = authority->EnrollDevice(id).ValueOrDie();
    owned.push_back(std::make_unique<keys::TdsKeyState>(id, device, &source,
                                                        &counters));
    fleet.push_back(owned.back().get());
    owned.push_back(
        std::make_unique<keys::TdsKeyState>(id, device, &twin_source));
    twins.push_back(owned.back().get());
  }

  std::vector<Status> last;
  auto refresh = [&](const std::string& step) {
    SCOPED_TRACE(step);
    last = keys::TdsKeyState::RefreshAll(fleet);
    const std::vector<Status> want = keys::TdsKeyState::RefreshAll(twins);
    ASSERT_EQ(last.size(), kStates);
    ASSERT_EQ(want.size(), kStates);
    for (uint64_t id = 0; id < kStates; ++id) {
      SCOPED_TRACE("tds " + std::to_string(id));
      EXPECT_EQ(last[id].code(), want[id].code());
      const Result<uint32_t> epoch = fleet[id]->known_epoch();
      const Result<uint32_t> want_epoch = twins[id]->known_epoch();
      ASSERT_EQ(epoch.status().code(), want_epoch.status().code());
      if (epoch.ok()) {
        EXPECT_EQ(*epoch, *want_epoch);
      }
      for (uint32_t e = 0; e <= 3; ++e) {
        EXPECT_EQ(fleet[id]->Reaches(e), twins[id]->Reaches(e));
      }
    }
  };
  // Each publication is refreshed twice: the second finds it current.
  auto publish = [&](const std::string& step, const Bytes& block) {
    ASSERT_TRUE(publisher.PostEpochBlock(block).ok());
    refresh(step);
    refresh(step + ", again");
  };
  obs::Counter& current = registry.counter("current");

  const Bytes block0 = authority->CurrentBlock();
  ASSERT_TRUE(publisher.PostEpochBlock(block0).ok());
  refresh("prime");
  EXPECT_EQ(current.value(), 0u);

  const uint64_t sent = wire.counter("net.bytes_sent").value();
  const uint64_t received = wire.counter("net.bytes_received").value();
  refresh("current");
  EXPECT_EQ(current.value(), kStates);
  EXPECT_LE(wire.counter("net.bytes_sent").value() - sent, 32 * kStates);
  EXPECT_LE(wire.counter("net.bytes_received").value() - received,
            32 * kStates);

  ASSERT_TRUE(authority->Rollover().ok());
  publish("rollover", authority->CurrentBlock());
  ASSERT_TRUE(authority->Revoke({kRevoked}).ok());
  publish("revocation", authority->CurrentBlock());
  EXPECT_TRUE(last[kRevoked].IsNotFound());
  publish("garbage", Bytes(64, 0x5a));
  EXPECT_TRUE(last[0].IsCorruption());
  publish("stale replay", block0);
  EXPECT_TRUE(last[0].ok());
  publish("honest block again", authority->CurrentBlock());
  EXPECT_TRUE(last[kRevoked].IsNotFound());
  EXPECT_EQ(fleet[0]->known_epoch().ValueOrDie(), 2u);
  EXPECT_EQ(fleet[kRevoked]->known_epoch().ValueOrDie(), 1u);
  // Besides the "current" step, the second refresh found the block current
  // for every state after the rollover and the stale replay, and for all but
  // the revoked one after the revocation and the honest block's return.
  EXPECT_EQ(current.value(), kStates + 2 * kStates + 2 * (kStates - 1));
}

// ---------------------------------------------------------------------------
// Static/dynamic engine differential (satellite b): same world, same query,
// both key modes — byte-identical result table and adversary statistics.

constexpr size_t kDiffTds = 24;
constexpr size_t kDiffGroups = 4;

const char* QueryFor(ProtocolKind kind) {
  return kind == ProtocolKind::kBasicSfw
             ? "SELECT grp, val, cat FROM T WHERE cat < 6"
             : "SELECT grp, COUNT(*), SUM(cat), AVG(val), MIN(val), "
               "MAX(val) FROM T GROUP BY grp";
}

struct World {
  std::unique_ptr<protocol::Fleet> fleet;
  std::unique_ptr<protocol::Querier> querier;
  std::shared_ptr<std::vector<storage::Tuple>> domain;
  std::map<storage::Tuple, uint64_t> freq;
};

World MakeWorld(uint64_t seed) {
  workload::GenericOptions gopts;
  gopts.num_tds = kDiffTds;
  gopts.num_groups = kDiffGroups;
  gopts.group_skew = 0.8;
  gopts.rows_per_tds = 2;
  gopts.seed = 8000 + seed;

  auto keys = crypto::KeyStore::CreateForTest(2028);
  auto authority = std::make_shared<tds::Authority>(Bytes(16, 0x66));
  World w;
  w.fleet = workload::BuildGenericFleet(gopts, keys, authority,
                                        tds::AccessPolicy::AllowAll())
                .ValueOrDie();
  w.querier = std::make_unique<protocol::Querier>(
      "keydiff", authority->Issue("keydiff"), keys);

  w.domain = std::make_shared<std::vector<storage::Tuple>>();
  for (size_t g = 0; g < kDiffGroups; ++g) {
    w.domain->push_back(
        storage::Tuple({storage::Value::String(workload::GroupName(g))}));
  }
  const auto& catalog = w.fleet->at(0)->db().catalog();
  auto count_q =
      sql::AnalyzeSql("SELECT grp, COUNT(*) FROM T GROUP BY grp", catalog)
          .ValueOrDie();
  for (size_t i = 0; i < w.fleet->size(); ++i) {
    auto rows =
        sql::CollectionTuples(w.fleet->at(i)->db(), count_q).ValueOrDie();
    for (const auto& r : rows) w.freq[storage::Tuple({r.at(0)})] += 1;
  }
  return w;
}

std::unique_ptr<protocol::Protocol> MakeProtocol(ProtocolKind kind,
                                                 const World& w) {
  switch (kind) {
    case ProtocolKind::kBasicSfw:
      return std::make_unique<protocol::BasicSfwProtocol>();
    case ProtocolKind::kSAgg:
      return std::make_unique<protocol::SAggProtocol>();
    case ProtocolKind::kRnfNoise:
      return std::make_unique<protocol::NoiseProtocol>(false, w.domain);
    case ProtocolKind::kCNoise:
      return std::make_unique<protocol::NoiseProtocol>(true, w.domain);
    case ProtocolKind::kEdHist:
      return protocol::EdHistProtocol::FromDistribution(w.freq, 2);
  }
  return nullptr;
}

struct EngineRunConfig {
  KeyMode key_mode = KeyMode::kStatic;
  size_t num_threads = 1;
  size_t num_shards = 1;
  net::TransportKind transport = net::TransportKind::kLoopback;
};

RunOutcome RunEngine(ProtocolKind kind, uint64_t world_seed,
                     const EngineRunConfig& rc) {
  World w = MakeWorld(world_seed);
  auto protocol = MakeProtocol(kind, w);
  Engine::Config cfg;
  cfg.options.compute_availability = 0.25;
  cfg.options.expected_groups = kDiffGroups;
  cfg.options.seed = 17;
  cfg.options.num_threads = rc.num_threads;
  cfg.num_shards = rc.num_shards;
  cfg.transport = rc.transport;
  cfg.tracing = false;
  cfg.key_mode = rc.key_mode;
  auto engine = Engine::Create(std::move(w.fleet), cfg).ValueOrDie();
  return engine->Run(*protocol, *w.querier, 1, QueryFor(kind)).ValueOrDie();
}

/// Row-order-insensitive view of a result table. Some protocols order their
/// output by Det_Enc(group) tags, and those bytes legitimately differ across
/// key modes — the rows themselves must not.
std::vector<std::string> SortedRows(const std::string& table) {
  std::vector<std::string> rows;
  size_t start = 0;
  while (start < table.size()) {
    size_t end = table.find('\n', start);
    if (end == std::string::npos) end = table.size();
    rows.push_back(table.substr(start, end - start));
    start = end + 1;
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Tag values differ across key modes (different HMAC keys), but the
/// multiplicity structure the SSI observes must not.
std::vector<uint64_t> TagCounts(const std::map<Bytes, uint64_t>& histogram) {
  std::vector<uint64_t> counts;
  counts.reserve(histogram.size());
  for (const auto& [tag, count] : histogram) counts.push_back(count);
  std::sort(counts.begin(), counts.end());
  return counts;
}

class KeyModeDifferentialTest
    : public ::testing::TestWithParam<ProtocolKind> {};

// key_mode=dynamic is invisible: byte-identical result table, identical
// adversary-view statistics (blob sizes, item counts, tag multiplicities),
// zero rejections — for every protocol over three worlds.
TEST_P(KeyModeDifferentialTest, DynamicModeIsInvisibleToHonestRuns) {
  ProtocolKind kind = GetParam();
  for (uint64_t seed : {0u, 1u, 2u}) {
    SCOPED_TRACE(std::string(ProtocolKindToString(kind)) + " world=" +
                 std::to_string(seed));
    EngineRunConfig static_rc;
    EngineRunConfig dynamic_rc;
    dynamic_rc.key_mode = KeyMode::kDynamic;
    RunOutcome s = RunEngine(kind, seed, static_rc);
    RunOutcome d = RunEngine(kind, seed, dynamic_rc);

    EXPECT_EQ(SortedRows(s.result.ToString()), SortedRows(d.result.ToString()));
    EXPECT_TRUE(s.result.SameRows(d.result));
    EXPECT_EQ(d.metrics.contributions_rejected, 0u);
    EXPECT_EQ(s.metrics.collection_participants,
              d.metrics.collection_participants);

    EXPECT_EQ(s.adversary.collection_blob_sizes,
              d.adversary.collection_blob_sizes);
    EXPECT_EQ(s.adversary.collection_items, d.adversary.collection_items);
    EXPECT_EQ(s.adversary.aggregation_items, d.adversary.aggregation_items);
    EXPECT_EQ(s.adversary.filtering_items, d.adversary.filtering_items);
    EXPECT_EQ(TagCounts(s.adversary.collection_tag_histogram),
              TagCounts(d.adversary.collection_tag_histogram));
    EXPECT_EQ(TagCounts(s.adversary.aggregation_tag_histogram),
              TagCounts(d.adversary.aggregation_tag_histogram));
  }
}

// Dynamic-mode results stay correct against the plaintext oracle.
TEST_P(KeyModeDifferentialTest, DynamicModeMatchesOracle) {
  ProtocolKind kind = GetParam();
  EngineRunConfig rc;
  rc.key_mode = KeyMode::kDynamic;
  RunOutcome outcome = RunEngine(kind, 0, rc);
  World oracle_world = MakeWorld(0);
  auto oracle =
      protocol::ExecuteReference(*oracle_world.fleet, QueryFor(kind))
          .ValueOrDie();
  EXPECT_TRUE(outcome.result.SameRows(oracle))
      << "got:\n" << outcome.result.ToString()
      << "want:\n" << oracle.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, KeyModeDifferentialTest,
    ::testing::Values(ProtocolKind::kBasicSfw, ProtocolKind::kSAgg,
                      ProtocolKind::kRnfNoise, ProtocolKind::kCNoise,
                      ProtocolKind::kEdHist),
    [](const auto& info) {
      return std::string(ProtocolKindToString(info.param));
    });

// ---------------------------------------------------------------------------
// Churn/rollover scenario suite (the headline): oracle-anchored campaign
// scenarios driven through sim::RunScenario.

sim::ScenarioOutcome MustRunScenario(const sim::ScenarioSpec& spec,
                                     net::TransportKind backend) {
  auto outcome = sim::RunScenario(spec, backend);
  EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
  return outcome.ok() ? *outcome : sim::ScenarioOutcome{};
}

sim::ScenarioSpec DynamicSAggSpec(const std::string& name) {
  sim::ScenarioSpec spec;
  spec.name = name;
  spec.protocol = ProtocolKind::kSAgg;
  spec.dynamic_keys = true;
  spec.num_threads = 2;
  return spec;
}

// A TDS revoked mid-query keeps serving under its stale epoch; every one of
// its subsequent uploads is rejected by the admission check — a pinned,
// deterministic count — and the run still completes with the revocation
// visible in the metrics.
TEST(KeyScenarioSuite, RevokedMidQueryContributionsRejectedPinned) {
  sim::ScenarioSpec spec = DynamicSAggSpec("revoke-mid-query");
  spec.duration_ticks = 8;
  spec.revoke_at = {2, 5, 9, 12};
  spec.revoke_at_tick = 1;
  sim::ScenarioOutcome outcome =
      MustRunScenario(spec, net::TransportKind::kLoopback);

  EXPECT_TRUE(outcome.violations.empty())
      << outcome.name << ": " << outcome.violations.front();
  EXPECT_TRUE(outcome.completed);
  // Pinned: with this spec's seed, exactly this many uploads from the four
  // revoked TDSs land after the tick-1 revocation broadcast.
  EXPECT_EQ(outcome.contributions_rejected, 4u);
  EXPECT_FALSE(outcome.clean);  // the rejections are visible, not silent

  // The rejection count is part of the determinism contract: identical
  // across worker-thread counts and transport backends.
  sim::ScenarioSpec serial = spec;
  serial.num_threads = 1;
  EXPECT_EQ(MustRunScenario(serial, net::TransportKind::kLoopback).Canonical(),
            outcome.Canonical());
  EXPECT_EQ(MustRunScenario(spec, net::TransportKind::kTcp).Canonical(),
            outcome.Canonical());
}

// An epoch rollover during an in-flight multi-round S_Agg run: every honest
// TDS re-keys on its next upload, nothing is rejected, and the result still
// matches the plaintext oracle.
TEST(KeyScenarioSuite, RolloverDuringInFlightSAggCompletesCleanly) {
  // The duration is generous enough that, at this seed, every TDS connects
  // before the window closes — so a clean oracle match is required, not just
  // hoped for.
  sim::ScenarioSpec spec = DynamicSAggSpec("rollover-in-flight");
  spec.duration_ticks = 40;
  spec.rollover_at_tick = 2;
  spec.expect_complete = true;
  spec.expect_contributions_rejected = 0;
  sim::ScenarioOutcome outcome =
      MustRunScenario(spec, net::TransportKind::kLoopback);
  EXPECT_TRUE(outcome.violations.empty())
      << outcome.name << ": " << outcome.violations.front();
  EXPECT_TRUE(outcome.completed);
  EXPECT_TRUE(outcome.oracle_match);
  EXPECT_TRUE(outcome.clean);
  EXPECT_EQ(outcome.contributions_rejected, 0u);
}

// Revocation under dropout churn: devices drop out while others are being
// revoked mid-collection. The run must end in a visible state — either the
// oracle answer or metrics that account for every missing contribution.
TEST(KeyScenarioSuite, RevocationUnderChurnStaysVisible) {
  sim::ScenarioSpec spec = DynamicSAggSpec("revoke-under-churn");
  spec.duration_ticks = 8;
  spec.dropout_rate = 0.2;
  spec.revoke_at = {3, 7, 11};
  spec.revoke_at_tick = 2;
  sim::ScenarioOutcome outcome =
      MustRunScenario(spec, net::TransportKind::kLoopback);
  EXPECT_TRUE(outcome.violations.empty())
      << outcome.name << ": " << outcome.violations.front();
  EXPECT_TRUE(outcome.completed);
  // Determinism holds under churn too.
  EXPECT_EQ(MustRunScenario(spec, net::TransportKind::kTcp).Canonical(),
            outcome.Canonical());
}

// ---------------------------------------------------------------------------
// Keys determinism grid: dynamic mode over worker threads {1,4} x shards
// {1,2} x {loopback,tcp} — bit-identical outcomes everywhere.

TEST(KeysDeterminismGrid, DynamicRunsAreBitIdenticalEverywhere) {
  EngineRunConfig base;
  base.key_mode = KeyMode::kDynamic;
  RunOutcome reference = RunEngine(ProtocolKind::kSAgg, 0, base);
  EXPECT_EQ(reference.metrics.contributions_rejected, 0u);

  for (size_t threads : {size_t{1}, size_t{4}}) {
    for (size_t shards : {size_t{1}, size_t{2}}) {
      for (net::TransportKind transport :
           {net::TransportKind::kLoopback, net::TransportKind::kTcp}) {
        SCOPED_TRACE("threads=" + std::to_string(threads) +
                     " shards=" + std::to_string(shards) + " transport=" +
                     (transport == net::TransportKind::kTcp ? "tcp"
                                                            : "loopback"));
        EngineRunConfig rc = base;
        rc.num_threads = threads;
        rc.num_shards = shards;
        rc.transport = transport;
        RunOutcome outcome = RunEngine(ProtocolKind::kSAgg, 0, rc);

        EXPECT_EQ(outcome.result.ToString(), reference.result.ToString());
        EXPECT_EQ(outcome.metrics.contributions_rejected, 0u);
        EXPECT_EQ(outcome.metrics.collection_participants,
                  reference.metrics.collection_participants);
        EXPECT_EQ(outcome.adversary.collection_items,
                  reference.adversary.collection_items);
        EXPECT_EQ(outcome.adversary.aggregation_items,
                  reference.adversary.aggregation_items);
        // Session keys depend only on (epoch, query id, nonce), never on
        // the backend: the raw tag histograms must match exactly.
        EXPECT_EQ(outcome.adversary.collection_tag_histogram,
                  reference.adversary.collection_tag_histogram);
        // Blob sizes are concatenated in shard order by the router; the
        // multiset is the shard-count invariant.
        auto sa = outcome.adversary.collection_blob_sizes;
        auto sb = reference.adversary.collection_blob_sizes;
        std::sort(sa.begin(), sa.end());
        std::sort(sb.begin(), sb.end());
        EXPECT_EQ(sa, sb);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Batched key refresh on the wire: the bring-up priming and a query's
// refreshes each cost one batch of frames, not a round trip per TDS.

TEST(KeyRefreshFrames, RefreshCostsOneBatchOfFramesNotOnePerTds) {
  constexpr size_t kCallsPerFrame = 4;
  constexpr uint64_t kBatchFrames =
      (kDiffTds + kCallsPerFrame - 1) / kCallsPerFrame;
  uint64_t query_frames[2] = {0, 0};  // static, dynamic
  for (KeyMode mode : {KeyMode::kStatic, KeyMode::kDynamic}) {
    const bool dynamic = mode == KeyMode::kDynamic;
    SCOPED_TRACE(dynamic ? "dynamic" : "static");
    World w = MakeWorld(0);
    protocol::SAggProtocol s_agg;
    Engine::Config cfg;
    cfg.options.compute_availability = 0.25;
    cfg.options.expected_groups = kDiffGroups;
    cfg.options.seed = 17;
    cfg.options.num_threads = 1;
    cfg.tracing = false;
    cfg.transport_batch_max_calls = kCallsPerFrame;
    cfg.key_mode = mode;
    auto engine = Engine::Create(std::move(w.fleet), cfg).ValueOrDie();
    obs::Counter& frames = engine->metrics().counter("net.frames_sent");
    const uint64_t create_frames = frames.value();
    // Dynamic bring-up: one PostEpochBlock frame, then the priming batch.
    EXPECT_LE(create_frames, dynamic ? 1 + kBatchFrames : 0);
    auto outcome =
        engine->Run(s_agg, *w.querier, 1, QueryFor(ProtocolKind::kSAgg));
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_EQ(outcome->metrics.contributions_rejected, 0u);
    query_frames[dynamic] = frames.value() - create_frames;
  }
  EXPECT_LE(query_frames[1], query_frames[0] + kBatchFrames + 1);
}

}  // namespace
}  // namespace tcells
