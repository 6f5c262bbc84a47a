// Tests for src/crypto: AES/SHA/HMAC against published vectors, plus the
// security-relevant properties of the nDet_Enc / Det_Enc schemes.
#include <gtest/gtest.h>

#include <array>
#include <limits>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/hex.h"
#include "common/rng.h"
#include "crypto/aes.h"
#include "crypto/aes_dispatch.h"
#include "crypto/encryption.h"
#include "crypto/hmac.h"
#include "crypto/keystore.h"
#include "crypto/sha256.h"

namespace tcells::crypto {
namespace {

Bytes Hex(const char* s) { return FromHex(s).ValueOrDie(); }

// ---------------------------------------------------------------------------
// AES-128 (FIPS-197 Appendix C.1)

TEST(AesTest, Fips197Vector) {
  Bytes key = Hex("000102030405060708090a0b0c0d0e0f");
  Bytes pt = Hex("00112233445566778899aabbccddeeff");
  auto aes = Aes128::Create(key).ValueOrDie();
  uint8_t block[16];
  std::copy(pt.begin(), pt.end(), block);
  aes.EncryptBlock(block);
  EXPECT_EQ(ToHex(block, 16), "69c4e0d86a7b0430d8cdb78070b4c55a");
}

TEST(AesTest, RejectsWrongKeySize) {
  EXPECT_FALSE(Aes128::Create(Bytes(15)).ok());
  EXPECT_FALSE(Aes128::Create(Bytes(32)).ok());
}

// ---------------------------------------------------------------------------
// Backend-parameterized known-answer tests: every KAT below runs once per
// dispatch path, so the T-table cipher and the AES-NI cipher are both pinned
// to the published vectors on machines that have the hardware.

class AesBackendTest : public ::testing::TestWithParam<AesBackend> {
 protected:
  void SetUp() override {
    if (GetParam() == AesBackend::kAesNi && !AesNiAvailable()) {
      GTEST_SKIP() << "AES-NI not available on this machine";
    }
    ForceAesBackend(GetParam());
    ASSERT_EQ(ActiveAesBackend(), GetParam());
  }
  void TearDown() override { ForceAesBackend(std::nullopt); }
};

INSTANTIATE_TEST_SUITE_P(AllBackends, AesBackendTest,
                         ::testing::Values(AesBackend::kPortable,
                                           AesBackend::kAesNi),
                         [](const auto& info) {
                           return std::string(AesBackendName(info.param));
                         });

TEST_P(AesBackendTest, Fips197Vector) {
  Bytes key = Hex("000102030405060708090a0b0c0d0e0f");
  Bytes pt = Hex("00112233445566778899aabbccddeeff");
  auto aes = Aes128::Create(key).ValueOrDie();
  uint8_t block[16];
  std::copy(pt.begin(), pt.end(), block);
  aes.EncryptBlock(block);
  EXPECT_EQ(ToHex(block, 16), "69c4e0d86a7b0430d8cdb78070b4c55a");
}

TEST_P(AesBackendTest, Sp800_38aCtrVector) {
  // NIST SP 800-38A F.5.1/F.5.2: AES-128-CTR, four-block message.
  Bytes key = Hex("2b7e151628aed2a6abf7158809cf4f3c");
  Bytes counter = Hex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
  Bytes pt = Hex(
      "6bc1bee22e409f96e93d7e117393172a"
      "ae2d8a571e03ac9c9eb76fac45af8e51"
      "30c81c46a35ce411e5fbc1191a0a52ef"
      "f69f2445df4f9b17ad2b417be66c3710");
  Bytes want_ct = Hex(
      "874d6191b620e3261bef6864990db6ce"
      "9806f66b7970fdff8617187bb9fffdff"
      "5ae4df3edbd5d35e5b4f09020db03eab"
      "1e031dda2fbe03d1792170a0f3009cee");
  auto aes = Aes128::Create(key).ValueOrDie();
  Bytes got(pt.size());
  CtrXor(aes, counter.data(), pt.data(), pt.size(), got.data());
  EXPECT_EQ(ToHex(got.data(), got.size()), ToHex(want_ct.data(), want_ct.size()));
  // Decryption is the same XOR.
  Bytes back(pt.size());
  CtrXor(aes, counter.data(), got.data(), got.size(), back.data());
  EXPECT_EQ(back, pt);
}

TEST_P(AesBackendTest, BatchMatchesBlockAtATime) {
  Rng rng(11);
  auto aes = Aes128::Create(rng.NextBytes(16)).ValueOrDie();
  // Odd batch sizes cover the 4-wide AES-NI pipeline plus its scalar tail.
  for (size_t nblocks : {1u, 2u, 4u, 5u, 7u, 8u, 13u}) {
    Bytes in = rng.NextBytes(nblocks * 16);
    Bytes batch(in.size()), single = in;
    aes.EncryptBlocks(in.data(), batch.data(), nblocks);
    for (size_t b = 0; b < nblocks; ++b) aes.EncryptBlock(single.data() + 16 * b);
    EXPECT_EQ(batch, single) << "nblocks=" << nblocks;
  }
}

TEST_P(AesBackendTest, SchemesRoundTripSpanForms) {
  Rng rng(12);
  auto ndet = NDetEnc::Create(rng.NextBytes(16)).ValueOrDie();
  auto det = DetEnc::Create(rng.NextBytes(16)).ValueOrDie();
  // Sizes straddling the CTR batch width (8 blocks = 128 bytes).
  for (size_t n : {0u, 1u, 15u, 16u, 100u, 127u, 128u, 129u, 1000u}) {
    Bytes pt = rng.NextBytes(n);
    Bytes ct, back;
    ndet.Encrypt(pt.data(), pt.size(), &rng, &ct);
    ASSERT_TRUE(ndet.Decrypt(ct.data(), ct.size(), &back).ok()) << n;
    EXPECT_EQ(back, pt) << n;
    det.Encrypt(pt.data(), pt.size(), &ct);
    ASSERT_TRUE(det.Decrypt(ct.data(), ct.size(), &back).ok()) << n;
    EXPECT_EQ(back, pt) << n;
  }
}

// ---------------------------------------------------------------------------
// Portable-vs-hardware differential: on AES-NI machines, both paths must
// produce byte-identical output for random keys and messages. (This is the
// property that makes dispatch invisible to the obs byte-identity suite.)

TEST(AesDispatchTest, BackendsAgreeOnRandomInputs) {
  if (!AesNiAvailable()) GTEST_SKIP() << "AES-NI not available";
  Rng rng(13);
  for (int trial = 0; trial < 20; ++trial) {
    Bytes key = rng.NextBytes(16);
    auto aes = Aes128::Create(key).ValueOrDie();
    size_t nblocks = 1 + rng.NextBelow(16);
    Bytes in = rng.NextBytes(nblocks * 16);
    Bytes iv = rng.NextBytes(16);
    Bytes msg = rng.NextBytes(1 + rng.NextBelow(300));

    ForceAesBackend(AesBackend::kPortable);
    Bytes enc_p(in.size()), ctr_p(msg.size());
    aes.EncryptBlocks(in.data(), enc_p.data(), nblocks);
    CtrXor(aes, iv.data(), msg.data(), msg.size(), ctr_p.data());

    ForceAesBackend(AesBackend::kAesNi);
    Bytes enc_n(in.size()), ctr_n(msg.size());
    aes.EncryptBlocks(in.data(), enc_n.data(), nblocks);
    CtrXor(aes, iv.data(), msg.data(), msg.size(), ctr_n.data());

    ForceAesBackend(std::nullopt);
    EXPECT_EQ(enc_p, enc_n) << "trial " << trial;
    EXPECT_EQ(ctr_p, ctr_n) << "trial " << trial;
  }
}

TEST(AesDispatchTest, SchemesAgreeAcrossBackends) {
  if (!AesNiAvailable()) GTEST_SKIP() << "AES-NI not available";
  Rng rng(14);
  Bytes master = rng.NextBytes(16);
  auto ndet = NDetEnc::Create(master).ValueOrDie();
  auto det = DetEnc::Create(master).ValueOrDie();
  for (int trial = 0; trial < 10; ++trial) {
    Bytes pt = rng.NextBytes(1 + rng.NextBelow(500));
    uint64_t iv_seed = rng.Next();

    // Identical Rng streams so nDet draws the same IV on both paths.
    ForceAesBackend(AesBackend::kPortable);
    Rng iv_rng_p(iv_seed);
    Bytes nct_p = ndet.Encrypt(pt, &iv_rng_p);
    Bytes dct_p = det.Encrypt(pt);

    ForceAesBackend(AesBackend::kAesNi);
    Rng iv_rng_n(iv_seed);
    Bytes nct_n = ndet.Encrypt(pt, &iv_rng_n);
    Bytes dct_n = det.Encrypt(pt);
    // Cross-decrypt: hardware-made ciphertext opened by the portable path.
    ForceAesBackend(AesBackend::kPortable);
    EXPECT_EQ(ndet.Decrypt(nct_n).ValueOrDie(), pt);
    EXPECT_EQ(det.Decrypt(dct_n).ValueOrDie(), pt);

    ForceAesBackend(std::nullopt);
    EXPECT_EQ(nct_p, nct_n) << "trial " << trial;
    EXPECT_EQ(dct_p, dct_n) << "trial " << trial;
  }
}

TEST(AesDispatchTest, ForcingUnavailableBackendFallsBack) {
  if (AesNiAvailable()) GTEST_SKIP() << "only meaningful without AES-NI";
  ForceAesBackend(AesBackend::kAesNi);
  EXPECT_EQ(ActiveAesBackend(), AesBackend::kPortable);
  ForceAesBackend(std::nullopt);
}

// ---------------------------------------------------------------------------
// SHA-256 (FIPS 180-4 examples)

TEST(Sha256Test, EmptyString) {
  auto d = Sha256::Hash({});
  EXPECT_EQ(ToHex(d.data(), d.size()),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  Bytes abc = {'a', 'b', 'c'};
  auto d = Sha256::Hash(abc);
  EXPECT_EQ(ToHex(d.data(), d.size()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  std::string msg = "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
  Bytes data(msg.begin(), msg.end());
  auto d = Sha256::Hash(data);
  EXPECT_EQ(ToHex(d.data(), d.size()),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  Rng rng(2);
  Bytes data = rng.NextBytes(1000);
  Sha256 inc;
  size_t pos = 0;
  for (size_t chunk : {1u, 7u, 63u, 64u, 65u, 800u}) {
    size_t take = std::min(chunk, data.size() - pos);
    inc.Update(data.data() + pos, take);
    pos += take;
  }
  inc.Update(data.data() + pos, data.size() - pos);
  auto a = inc.Finish();
  auto b = Sha256::Hash(data);
  EXPECT_EQ(ToHex(a.data(), a.size()), ToHex(b.data(), b.size()));
}

// Padding boundaries: a message of n bytes pads into one final block when
// n % 64 <= 55 and into two otherwise. Expected digests of the bytes
// 0, 1, ..., n - 1 from Python's hashlib:
//   hashlib.sha256(bytes(range(n))).hexdigest()
struct ShaKat {
  size_t n;
  const char* hex;
};
constexpr ShaKat kPaddingKats[] = {
    {0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
    {1, "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d"},
    {55, "463eb28e72f82e0a96c0a4cc53690c571281131f672aa229e0d45ae59b598b59"},
    {56, "da2ae4d6b36748f2a318f23e7ab1dfdf45acdc9d049bd80e59de82a60895f562"},
    {57, "2fe741af801cc238602ac0ec6a7b0c3a8a87c7fc7d7f02a3fe03d1c12eac4d8f"},
    {63, "29af2686fd53374a36b0846694cc342177e428d1647515f078784d69cdb9e488"},
    {64, "fdeab9acf3710362bd2658cdc9a29e8f9c757fcf9811603a8c447cd1d9151108"},
    {65, "4bfd2c8b6f1eec7a2afeb48b934ee4b2694182027e6d0fc075074f2fabb31781"},
    {119, "da18797ed7c3a777f0847f429724a2d8cd5138e6ed2895c3fa1a6d39d18f7ec6"},
    {120, "f52b23db1fbb6ded89ef42a23ce0c8922c45f25c50b568a93bf1c075420bbb7c"},
    {127, "92ca0fa6651ee2f97b884b7246a562fa71250fedefe5ebf270d31c546bfea976"},
    {128, "471fb943aa23c511f6f72f8d1652d9c880cfa392ad80503120547703e56a2be5"},
};

Bytes Iota(size_t n) {
  Bytes data(n);
  for (size_t i = 0; i < n; ++i) data[i] = static_cast<uint8_t>(i);
  return data;
}

TEST(Sha256Test, PaddingBoundaryKatsOneShotAndSplit) {
  for (const auto& kat : kPaddingKats) {
    const Bytes data = Iota(kat.n);
    auto d = Sha256::Hash(data);
    EXPECT_EQ(ToHex(d.data(), d.size()), kat.hex) << "n=" << kat.n;
    for (size_t split = 0; split <= kat.n; ++split) {
      Sha256 h;
      h.Update(data.data(), split);
      h.Update(data.data() + split, kat.n - split);
      auto ds = h.Finish();
      EXPECT_EQ(ToHex(ds.data(), ds.size()), kat.hex)
          << "n=" << kat.n << " split=" << split;
    }
  }
}

TEST(Sha256Test, FinishWithMatchesKatsFromAlignedStates) {
  for (const auto& kat : kPaddingKats) {
    const Bytes data = Iota(kat.n);
    for (size_t absorbed = 0; absorbed <= kat.n;
         absorbed += Sha256::kBlockSize) {
      Sha256 h;
      h.Update(data.data(), absorbed);
      auto d = h.FinishWith(data.data() + absorbed, kat.n - absorbed);
      EXPECT_EQ(ToHex(d.data(), d.size()), kat.hex)
          << "n=" << kat.n << " absorbed=" << absorbed;
      // The hasher is untouched: finishing it again gives the same digest.
      auto again = h.FinishWith(data.data() + absorbed, kat.n - absorbed);
      EXPECT_EQ(d, again);
    }
  }
}

// The in-process backend differential (the AES suite's counterpart): the
// same hasher and HMAC inputs, once on the portable compression and once on
// SHA-NI, must give identical digests and tags.
TEST(ShaDispatchTest, BackendsAgreeOnRandomInputs) {
  if (!ShaNiAvailable()) GTEST_SKIP() << "SHA-NI not available";
  ForcePortableSha256(false);
  if (std::string(ActiveSha256BackendName()) != "shani") {
    GTEST_SKIP() << "portable SHA-256 pinned by the environment";
  }
  Rng rng(15);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t n = rng.NextBelow(301);
    const size_t split = rng.NextBelow(n + 1);
    const Bytes data = rng.NextBytes(n);
    const Bytes key = rng.NextBytes(rng.NextBelow(132));
    std::array<uint8_t, Sha256::kDigestSize> digest[2], mac[2];
    for (int hw = 0; hw < 2; ++hw) {
      ForcePortableSha256(hw == 0);
      Sha256 h;
      h.Update(data.data(), split);
      h.Update(data.data() + split, n - split);
      digest[hw] = h.Finish();
      mac[hw] = HmacState(key).Mac(data);
    }
    ForcePortableSha256(false);
    EXPECT_EQ(digest[0], digest[1]) << "trial " << trial << " n=" << n;
    EXPECT_EQ(mac[0], mac[1]) << "trial " << trial << " n=" << n;
  }
}

// ---------------------------------------------------------------------------
// HMAC-SHA-256 (RFC 4231)

TEST(HmacTest, Rfc4231Case2) {
  Bytes key = {'J', 'e', 'f', 'e'};
  std::string msg = "what do ya want for nothing?";
  Bytes data(msg.begin(), msg.end());
  auto mac = HmacSha256(key, data);
  EXPECT_EQ(ToHex(mac.data(), mac.size()),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  Bytes data = {'H', 'i', ' ', 'T', 'h', 'e', 'r', 'e'};
  auto mac = HmacSha256(key, data);
  EXPECT_EQ(ToHex(mac.data(), mac.size()),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, LongKeyIsHashedFirst) {
  // RFC 4231 test case 6: 131-byte key.
  Bytes key(131, 0xaa);
  std::string msg = "Test Using Larger Than Block-Size Key - Hash Key First";
  Bytes data(msg.begin(), msg.end());
  auto mac = HmacSha256(key, data);
  EXPECT_EQ(ToHex(mac.data(), mac.size()),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacTest, Rfc4231Case3) {
  Bytes key(20, 0xaa);
  Bytes data(50, 0xdd);
  auto mac = HmacSha256(key, data);
  EXPECT_EQ(ToHex(mac.data(), mac.size()),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacTest, Rfc4231Case4) {
  Bytes key = Hex("0102030405060708090a0b0c0d0e0f10111213141516171819");
  Bytes data(50, 0xcd);
  auto mac = HmacSha256(key, data);
  EXPECT_EQ(ToHex(mac.data(), mac.size()),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b");
}

// HMAC as RFC 2104 writes it, from Sha256::Hash alone:
// H(K ^ opad || H(K ^ ipad || m)), K being the key (hashed first if longer
// than a block) zero-padded to one block.
std::array<uint8_t, 32> ReferenceHmac(const Bytes& key, const Bytes& msg) {
  Bytes k = key;
  if (k.size() > Sha256::kBlockSize) {
    auto d = Sha256::Hash(k);
    k.assign(d.begin(), d.end());
  }
  k.resize(Sha256::kBlockSize, 0);
  Bytes inner(Sha256::kBlockSize), outer(Sha256::kBlockSize);
  for (size_t i = 0; i < Sha256::kBlockSize; ++i) {
    inner[i] = k[i] ^ 0x36;
    outer[i] = k[i] ^ 0x5c;
  }
  inner.insert(inner.end(), msg.begin(), msg.end());
  auto inner_digest = Sha256::Hash(inner);
  outer.insert(outer.end(), inner_digest.begin(), inner_digest.end());
  return Sha256::Hash(outer);
}

TEST(HmacStateTest, MatchesFromSpecReference) {
  Rng rng(30);
  for (size_t key_len : {0u, 16u, 64u, 65u, 131u}) {
    Bytes key = rng.NextBytes(key_len);
    HmacState state(key);
    for (size_t n = 0; n <= 200; ++n) {
      Bytes data = rng.NextBytes(n);
      auto mac = state.Mac(data);
      auto expected = ReferenceHmac(key, data);
      EXPECT_EQ(ToHex(mac.data(), mac.size()),
                ToHex(expected.data(), expected.size()))
          << "key_len=" << key_len << " n=" << n;
    }
  }
}

TEST(HmacStateTest, ReusableAcrossMessages) {
  Rng rng(31);
  HmacState state(rng.NextBytes(16));
  Bytes a = rng.NextBytes(20), b = rng.NextBytes(20);
  auto ma1 = state.Mac(a);
  auto mb = state.Mac(b);
  auto ma2 = state.Mac(a);  // midstates not consumed by earlier Mac calls
  EXPECT_EQ(ToHex(ma1.data(), ma1.size()), ToHex(ma2.data(), ma2.size()));
  EXPECT_NE(ToHex(ma1.data(), ma1.size()), ToHex(mb.data(), mb.size()));
}

TEST(HmacStateTest, TwoPartMacMatchesJoinedMessage) {
  Rng rng(33);
  HmacState state(rng.NextBytes(16));
  for (size_t head_len : {0u, 12u, 63u, 64u, 100u}) {
    for (size_t tail_len : {0u, 1u, 32u, 70u}) {
      Bytes head = rng.NextBytes(head_len), tail = rng.NextBytes(tail_len);
      Bytes joined = head;
      joined.insert(joined.end(), tail.begin(), tail.end());
      auto two_part = state.Mac(head, tail);
      auto whole = state.Mac(joined);
      EXPECT_EQ(ToHex(two_part.data(), two_part.size()),
                ToHex(whole.data(), whole.size()))
          << "head=" << head_len << " tail=" << tail_len;
    }
  }
}

TEST(ConstantTimeEqualTest, ComparesCorrectly) {
  Rng rng(32);
  Bytes a = rng.NextBytes(32);
  Bytes b = a;
  EXPECT_TRUE(ConstantTimeEqual(a.data(), b.data(), a.size()));
  EXPECT_TRUE(ConstantTimeEqual(a.data(), b.data(), 0));
  for (size_t pos : {0u, 15u, 31u}) {
    Bytes c = a;
    c[pos] ^= 0x40;
    EXPECT_FALSE(ConstantTimeEqual(a.data(), c.data(), a.size())) << pos;
  }
}

TEST(KeyDerivationTest, LabelsSeparateKeys) {
  Rng rng(3);
  Bytes master = rng.NextBytes(16);
  Bytes a = DeriveKey(master, "enc");
  Bytes b = DeriveKey(master, "mac");
  EXPECT_EQ(a.size(), 16u);
  EXPECT_NE(a, b);
  EXPECT_EQ(a, DeriveKey(master, "enc"));  // deterministic
}

TEST(KeyDerivationTest, StateFormMatchesBytesForm) {
  Rng rng(5);
  for (int i = 0; i < 20; ++i) {
    Bytes master = rng.NextBytes(16);
    const HmacState state(master);
    for (std::string_view label :
         {std::string_view(""), std::string_view("ndet-enc"),
          std::string_view("a label longer than one SHA-256 block, so the "
                           "MAC input spans two compressions")}) {
      EXPECT_EQ(DeriveKey(state, label), DeriveKey(master, label)) << label;
    }
  }
}

TEST(KeyDerivationTest, NumberedLabelIsPrefixThenDecimal) {
  for (uint64_t n : {uint64_t{0}, uint64_t{7}, uint64_t{1048575},
                     std::numeric_limits<uint64_t>::max()}) {
    EXPECT_EQ(std::string_view(NumberedLabel("bc-node-", n)),
              "bc-node-" + std::to_string(n));
  }
}

TEST(KeyedHashTest, DeterministicAndKeyed) {
  Rng rng(4);
  Bytes k1 = rng.NextBytes(16), k2 = rng.NextBytes(16);
  HmacState s1(k1), s2(k2);
  Bytes data = rng.NextBytes(32);
  EXPECT_EQ(KeyedHash64(s1, data), KeyedHash64(s1, data));
  EXPECT_NE(KeyedHash64(s1, data), KeyedHash64(s2, data));
  // The first eight HMAC bytes, little-endian.
  auto mac = HmacSha256(k1, data);
  uint64_t expected = 0;
  for (int i = 7; i >= 0; --i) expected = expected << 8 | mac[i];
  EXPECT_EQ(KeyedHash64(s1, data), expected);
}

// ---------------------------------------------------------------------------
// nDet_Enc

class NDetTest : public ::testing::Test {
 protected:
  NDetTest() : rng_(5) {
    scheme_.emplace(NDetEnc::Create(rng_.NextBytes(16)).ValueOrDie());
  }
  Rng rng_;
  std::optional<NDetEnc> scheme_;
};

TEST_F(NDetTest, RoundTrip) {
  Bytes pt = rng_.NextBytes(100);
  Bytes ct = scheme_->Encrypt(pt, &rng_);
  EXPECT_EQ(ct.size(), pt.size() + NDetEnc::kOverhead);
  EXPECT_EQ(scheme_->Decrypt(ct).ValueOrDie(), pt);
}

TEST_F(NDetTest, SameMessageDifferentCiphertexts) {
  // The property nDet_Enc exists for: no frequency analysis possible.
  Bytes pt = rng_.NextBytes(24);
  std::set<Bytes> cts;
  for (int i = 0; i < 32; ++i) cts.insert(scheme_->Encrypt(pt, &rng_));
  EXPECT_EQ(cts.size(), 32u);
}

TEST_F(NDetTest, EmptyPlaintext) {
  Bytes ct = scheme_->Encrypt({}, &rng_);
  EXPECT_TRUE(scheme_->Decrypt(ct).ValueOrDie().empty());
}

TEST_F(NDetTest, TamperingDetected) {
  Bytes ct = scheme_->Encrypt(rng_.NextBytes(40), &rng_);
  for (size_t pos : {size_t{0}, size_t{20}, ct.size() - 1}) {
    Bytes bad = ct;
    bad[pos] ^= 0x01;
    EXPECT_FALSE(scheme_->Decrypt(bad).ok()) << "flip at " << pos;
  }
}

TEST_F(NDetTest, TruncationDetected) {
  Bytes ct = scheme_->Encrypt(rng_.NextBytes(40), &rng_);
  ct.resize(ct.size() - 1);
  EXPECT_FALSE(scheme_->Decrypt(ct).ok());
  EXPECT_FALSE(scheme_->Decrypt(Bytes(5)).ok());
}

TEST_F(NDetTest, SpanDecryptLeavesOutputUntouchedOnAuthFailure) {
  Bytes ct = scheme_->Encrypt(rng_.NextBytes(40), &rng_);
  Bytes bad = ct;
  bad[bad.size() / 2] ^= 0x01;
  Bytes out = {0xde, 0xad};
  EXPECT_FALSE(scheme_->Decrypt(bad.data(), bad.size(), &out).ok());
  EXPECT_EQ(out, Bytes({0xde, 0xad}));  // no plaintext released before auth
  EXPECT_TRUE(scheme_->Decrypt(ct.data(), ct.size(), &out).ok());
}

TEST_F(NDetTest, WrongKeyFails) {
  Bytes pt = rng_.NextBytes(16);
  Bytes ct = scheme_->Encrypt(pt, &rng_);
  auto other = NDetEnc::Create(rng_.NextBytes(16)).ValueOrDie();
  EXPECT_FALSE(other.Decrypt(ct).ok());
}

// Hostile-input hardening regressions (pinned by fuzz/fuzz_crypto.cc):
// ciphertexts shorter than the IV+tag framing — including the "tag length
// zero" family where the buffer ends inside or right at the tag — must be
// rejected via Status, never read out of bounds.
TEST_F(NDetTest, UndersizedCiphertextsRejected) {
  // kOverhead = IV(16) + tag(8) = 24: everything below that cannot even hold
  // the framing. 24 exact-size garbage fails authentication instead.
  for (size_t n : {size_t{0}, size_t{1}, size_t{15}, size_t{16}, size_t{17},
                   size_t{23}}) {
    auto result = scheme_->Decrypt(Bytes(n, 0xab));
    ASSERT_FALSE(result.ok()) << "n=" << n;
    EXPECT_TRUE(result.status().IsCorruption()) << "n=" << n;
  }
  EXPECT_FALSE(scheme_->Decrypt(Bytes(NDetEnc::kOverhead, 0xab)).ok());

  // A valid ciphertext truncated to exactly IV size (tag and body gone).
  Bytes ct = scheme_->Encrypt(rng_.NextBytes(8), &rng_);
  ct.resize(NDetEnc::kIvSize);
  EXPECT_FALSE(scheme_->Decrypt(ct).ok());
}

// ---------------------------------------------------------------------------
// Det_Enc

class DetTest : public ::testing::Test {
 protected:
  DetTest() : rng_(6) {
    scheme_.emplace(DetEnc::Create(rng_.NextBytes(16)).ValueOrDie());
  }
  Rng rng_;
  std::optional<DetEnc> scheme_;
};

TEST_F(DetTest, RoundTrip) {
  Bytes pt = rng_.NextBytes(33);
  Bytes ct = scheme_->Encrypt(pt);
  EXPECT_EQ(ct.size(), pt.size() + DetEnc::kOverhead);
  EXPECT_EQ(scheme_->Decrypt(ct).ValueOrDie(), pt);
}

TEST_F(DetTest, Deterministic) {
  // The property the Noise protocols rely on: SSI can group by ciphertext.
  Bytes pt = rng_.NextBytes(20);
  EXPECT_EQ(scheme_->Encrypt(pt), scheme_->Encrypt(pt));
}

TEST_F(DetTest, DistinctPlaintextsDistinctCiphertexts) {
  std::set<Bytes> cts;
  for (int i = 0; i < 64; ++i) cts.insert(scheme_->Encrypt(rng_.NextBytes(12)));
  EXPECT_EQ(cts.size(), 64u);
}

TEST_F(DetTest, TamperingDetected) {
  Bytes ct = scheme_->Encrypt(rng_.NextBytes(40));
  Bytes bad = ct;
  bad[ct.size() / 2] ^= 0x80;
  EXPECT_FALSE(scheme_->Decrypt(bad).ok());
}

TEST_F(DetTest, UndersizedCiphertextsRejected) {
  // kOverhead = SIV(16): shorter buffers cannot hold the synthetic IV.
  for (size_t n : {size_t{0}, size_t{1}, size_t{8}, size_t{15}}) {
    auto result = scheme_->Decrypt(Bytes(n, 0xab));
    ASSERT_FALSE(result.ok()) << "n=" << n;
    EXPECT_TRUE(result.status().IsCorruption()) << "n=" << n;
  }
  // Exactly SIV-sized garbage (empty-body claim) fails SIV verification.
  EXPECT_FALSE(scheme_->Decrypt(Bytes(DetEnc::kOverhead, 0xab)).ok());
}

TEST_F(DetTest, KeySeparatedFromNDet) {
  // Same master key: Det and nDet ciphertexts must not be interchangeable.
  Bytes master = rng_.NextBytes(16);
  auto det = DetEnc::Create(master).ValueOrDie();
  auto ndet = NDetEnc::Create(master).ValueOrDie();
  Bytes pt = rng_.NextBytes(24);
  EXPECT_FALSE(det.Decrypt(ndet.Encrypt(pt, &rng_)).ok());
  EXPECT_FALSE(ndet.Decrypt(det.Encrypt(pt)).ok());
}

// ---------------------------------------------------------------------------
// CTR mode

TEST(CtrTest, KnownKeystreamXorProperty) {
  Rng rng(7);
  auto aes = Aes128::Create(rng.NextBytes(16)).ValueOrDie();
  Bytes iv = rng.NextBytes(16);
  Bytes a = rng.NextBytes(50), b(50), back(50);
  CtrXor(aes, iv.data(), a.data(), a.size(), b.data());
  CtrXor(aes, iv.data(), b.data(), b.size(), back.data());
  EXPECT_EQ(back, a);  // CTR is an involution under the same IV
  EXPECT_NE(b, a);
}

// ---------------------------------------------------------------------------
// KeyStore

TEST(KeyStoreTest, SchemesAgreeAcrossInstancesWithSameKeys) {
  Rng rng(8);
  Bytes k1 = rng.NextBytes(16), k2 = rng.NextBytes(16);
  auto store_a = KeyStore::Create(k1, k2).ValueOrDie();
  auto store_b = KeyStore::Create(k1, k2).ValueOrDie();
  Bytes pt = rng.NextBytes(30);
  Bytes ct = store_a->k2_ndet().Encrypt(pt, &rng);
  EXPECT_EQ(store_b->k2_ndet().Decrypt(ct).ValueOrDie(), pt);
  EXPECT_EQ(store_a->k2_det().Encrypt(pt), store_b->k2_det().Encrypt(pt));
  EXPECT_EQ(store_a->k2_hash(), store_b->k2_hash());
}

TEST(KeyStoreTest, K1AndK2AreIndependentChannels) {
  auto store = KeyStore::CreateForTest(99);
  Rng rng(9);
  Bytes pt = rng.NextBytes(16);
  Bytes under_k1 = store->k1_ndet().Encrypt(pt, &rng);
  EXPECT_FALSE(store->k2_ndet().Decrypt(under_k1).ok());
}

TEST(KeyStoreTest, RejectsBadKeySizes) {
  EXPECT_FALSE(KeyStore::Create(Bytes(8), Bytes(16)).ok());
  EXPECT_FALSE(KeyStore::Create(Bytes(16), Bytes(17)).ok());
}

}  // namespace
}  // namespace tcells::crypto
