// Crypto-engine speedup harness: times the current AES/HMAC/scheme kernels
// against a faithful copy of the seed (pre-engine) kernels compiled into this
// binary, and writes the results to BENCH_crypto.json (or argv[1]).
//
// The embedded baseline is the byte-wise AES, the one-shot HMAC that
// re-derives ipad/opad per call, and the allocation-heavy nDet/Det scheme
// bodies — exactly what shipped before the T-table/AES-NI engine, so the
// reported speedups measure the engine's kernels, on this machine, in a
// single run. Every scheme is CTR mode, so only the forward cipher is timed.
//
// It also times, engine-only, the other unit operations that calibrate the
// cost model (§6.2): SHA-256 at 64 B and 4 KiB, a tuple encode+decode, the
// flagship SQL parse, and partial aggregation into 4 or 256 groups (per
// tuple).
//
// Timing is hand-rolled (steady_clock, calibrated batch loops) so the target
// stays dependency-light and emits machine-readable JSON directly.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "crypto/aes.h"
#include "crypto/aes_dispatch.h"
#include "crypto/encryption.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "sql/aggregates.h"
#include "sql/parser.h"
#include "storage/tuple.h"

namespace tcells {
namespace seedimpl {

// ---------------------------------------------------------------------------
// Seed AES-128: straight FIPS-197 byte-wise rounds and key expansion.

constexpr uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16};

constexpr uint8_t kRcon[11] = {0x00, 0x01, 0x02, 0x04, 0x08, 0x10,
                               0x20, 0x40, 0x80, 0x1b, 0x36};

inline uint8_t Xtime(uint8_t x) {
  return static_cast<uint8_t>((x << 1) ^ ((x >> 7) * 0x1b));
}

class SeedAes128 {
 public:
  static constexpr size_t kBlockSize = 16;

  explicit SeedAes128(const Bytes& key) {
    uint8_t* rk = round_keys_.data();
    std::memcpy(rk, key.data(), 16);
    for (int i = 4; i < 44; ++i) {
      uint8_t temp[4];
      std::memcpy(temp, rk + 4 * (i - 1), 4);
      if (i % 4 == 0) {
        uint8_t t = temp[0];
        temp[0] = static_cast<uint8_t>(kSbox[temp[1]] ^ kRcon[i / 4]);
        temp[1] = kSbox[temp[2]];
        temp[2] = kSbox[temp[3]];
        temp[3] = kSbox[t];
      }
      for (int k = 0; k < 4; ++k) {
        rk[4 * i + k] = rk[4 * (i - 4) + k] ^ temp[k];
      }
    }
  }

  void EncryptBlock(uint8_t s[kBlockSize]) const {
    const uint8_t* rk = round_keys_.data();
    for (size_t i = 0; i < kBlockSize; ++i) s[i] ^= rk[i];
    for (int round = 1; round <= 10; ++round) {
      for (size_t i = 0; i < kBlockSize; ++i) s[i] = kSbox[s[i]];
      uint8_t t;
      t = s[1]; s[1] = s[5]; s[5] = s[9]; s[9] = s[13]; s[13] = t;
      t = s[2]; s[2] = s[10]; s[10] = t; t = s[6]; s[6] = s[14]; s[14] = t;
      t = s[15]; s[15] = s[11]; s[11] = s[7]; s[7] = s[3]; s[3] = t;
      if (round != 10) {
        for (int c = 0; c < 4; ++c) {
          uint8_t* col = s + 4 * c;
          uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
          uint8_t all = a0 ^ a1 ^ a2 ^ a3;
          col[0] ^= all ^ Xtime(a0 ^ a1);
          col[1] ^= all ^ Xtime(a1 ^ a2);
          col[2] ^= all ^ Xtime(a2 ^ a3);
          col[3] ^= all ^ Xtime(a3 ^ a0);
        }
      }
      for (size_t i = 0; i < kBlockSize; ++i) s[i] ^= rk[16 * round + i];
    }
  }

 private:
  std::array<uint8_t, 176> round_keys_{};
};

// Seed one-shot HMAC: re-derives the padded key blocks on every call.
std::array<uint8_t, 32> SeedHmacSha256(const Bytes& key, const Bytes& data) {
  uint8_t block_key[crypto::Sha256::kBlockSize] = {0};
  if (key.size() > crypto::Sha256::kBlockSize) {
    auto digest = crypto::Sha256::Hash(key);
    std::memcpy(block_key, digest.data(), digest.size());
  } else {
    std::memcpy(block_key, key.data(), key.size());
  }
  uint8_t ipad[crypto::Sha256::kBlockSize];
  uint8_t opad[crypto::Sha256::kBlockSize];
  for (size_t i = 0; i < crypto::Sha256::kBlockSize; ++i) {
    ipad[i] = block_key[i] ^ 0x36;
    opad[i] = block_key[i] ^ 0x5c;
  }
  crypto::Sha256 inner;
  inner.Update(ipad, sizeof(ipad));
  inner.Update(data);
  auto inner_digest = inner.Finish();
  crypto::Sha256 outer;
  outer.Update(opad, sizeof(opad));
  outer.Update(inner_digest.data(), inner_digest.size());
  return outer.Finish();
}

// Seed CTR: one EncryptBlock call per keystream block.
void SeedCtrXor(const SeedAes128& aes, const uint8_t iv[16], const uint8_t* in,
                size_t n, uint8_t* out) {
  uint8_t counter[16];
  std::memcpy(counter, iv, 16);
  uint8_t keystream[16];
  size_t pos = 0;
  while (pos < n) {
    std::memcpy(keystream, counter, 16);
    aes.EncryptBlock(keystream);
    size_t take = std::min<size_t>(16, n - pos);
    for (size_t i = 0; i < take; ++i) out[pos + i] = in[pos + i] ^ keystream[i];
    pos += take;
    for (int i = 15; i >= 8; --i) {
      if (++counter[i] != 0) break;
    }
  }
}

// Seed scheme bodies (allocation and copy behaviour preserved: Encrypt
// allocates + insert()s the tag, Decrypt copies the full body to MAC it).
struct SeedNDetEnc {
  SeedNDetEnc(const Bytes& master)
      : aes(crypto::DeriveKey(master, "ndet-enc")),
        mac_key(crypto::DeriveKey(master, "ndet-mac")) {}

  Bytes Encrypt(const Bytes& plaintext, Rng* rng) const {
    Bytes out = rng->NextBytes(16);
    out.resize(16 + plaintext.size());
    SeedCtrXor(aes, out.data(), plaintext.data(), plaintext.size(),
               out.data() + 16);
    auto tag = SeedHmacSha256(mac_key, out);
    out.insert(out.end(), tag.begin(), tag.begin() + 8);
    return out;
  }

  Bytes Decrypt(const Bytes& ciphertext) const {
    Bytes body(ciphertext.begin(), ciphertext.end() - 8);
    auto tag = SeedHmacSha256(mac_key, body);
    if (!std::equal(tag.begin(), tag.begin() + 8, ciphertext.end() - 8)) {
      return Bytes();
    }
    Bytes plain(body.size() - 16);
    SeedCtrXor(aes, body.data(), body.data() + 16, plain.size(), plain.data());
    return plain;
  }

  SeedAes128 aes;
  Bytes mac_key;
};

struct SeedDetEnc {
  SeedDetEnc(const Bytes& master)
      : aes(crypto::DeriveKey(master, "det-enc")),
        mac_key(crypto::DeriveKey(master, "det-siv")) {}

  Bytes Encrypt(const Bytes& plaintext) const {
    auto siv_full = SeedHmacSha256(mac_key, plaintext);
    Bytes out(16 + plaintext.size());
    std::memcpy(out.data(), siv_full.data(), 16);
    SeedCtrXor(aes, out.data(), plaintext.data(), plaintext.size(),
               out.data() + 16);
    return out;
  }

  Bytes Decrypt(const Bytes& ciphertext) const {
    Bytes plain(ciphertext.size() - 16);
    SeedCtrXor(aes, ciphertext.data(), ciphertext.data() + 16, plain.size(),
               plain.data());
    auto siv_full = SeedHmacSha256(mac_key, plain);
    if (!std::equal(siv_full.begin(), siv_full.begin() + 16,
                    ciphertext.begin())) {
      return Bytes();
    }
    return plain;
  }

  SeedAes128 aes;
  Bytes mac_key;
};

}  // namespace seedimpl

namespace {

// A compiler fence: keeps `value` observable, so the timed work is not
// optimized away.
template <typename T>
inline void Consume(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

struct Measurement {
  std::string name;     ///< operation, e.g. "aes128_encrypt_block"
  std::string impl;     ///< "seed", "portable" or "aesni"
  size_t bytes_per_op;  ///< payload bytes one op processes (0 = n/a)
  double ns_per_op;
  double ops_per_sec;
  double mb_per_sec;  ///< 0 when bytes_per_op == 0
};

// Times `fn` (which must run `batch` operations per call): warms up, then
// runs enough batches to fill ~200ms of wall clock and returns ns per op.
double TimeNsPerOp(const std::function<void()>& fn, size_t batch) {
  using clock = std::chrono::steady_clock;
  fn();  // warm-up and one-time allocations
  // Calibrate: how many batches fit in ~10ms?
  size_t calib = 1;
  for (;;) {
    auto t0 = clock::now();
    for (size_t i = 0; i < calib; ++i) fn();
    double ns = std::chrono::duration<double, std::nano>(clock::now() - t0)
                    .count();
    if (ns > 1e7 || calib > (1u << 24)) {
      double target = 2e8;  // 200ms measured region
      size_t reps = std::max<size_t>(1, static_cast<size_t>(
                                            calib * target / std::max(ns, 1.0)));
      auto m0 = clock::now();
      for (size_t i = 0; i < reps; ++i) fn();
      double total =
          std::chrono::duration<double, std::nano>(clock::now() - m0).count();
      return total / (static_cast<double>(reps) * batch);
    }
    calib *= 2;
  }
}

Measurement Measure(const std::string& name, const std::string& impl,
                    size_t bytes_per_op, size_t batch,
                    const std::function<void()>& fn) {
  Measurement m;
  m.name = name;
  m.impl = impl;
  m.bytes_per_op = bytes_per_op;
  m.ns_per_op = TimeNsPerOp(fn, batch);
  m.ops_per_sec = 1e9 / m.ns_per_op;
  m.mb_per_sec =
      bytes_per_op == 0 ? 0 : m.ops_per_sec * bytes_per_op / (1024.0 * 1024.0);
  std::fprintf(stderr, "%-28s %-9s %12.1f ns/op %14.0f ops/s %10.1f MB/s\n",
               m.name.c_str(), m.impl.c_str(), m.ns_per_op, m.ops_per_sec,
               m.mb_per_sec);
  return m;
}

double FindNs(const std::vector<Measurement>& ms, const std::string& name,
              const std::string& impl) {
  for (const auto& m : ms) {
    if (m.name == name && m.impl == impl) return m.ns_per_op;
  }
  return 0;
}

}  // namespace

// The speedup numbers only mean something if both kernels compute the same
// function: before timing, check the seed kernel and the current engine
// produce bit-identical ciphertexts (same keys, same Rng stream) on every
// available backend. Returns false — and the bench fails — on any mismatch.
bool VerifyBitIdentity(const seedimpl::SeedAes128& seed_aes,
                       const crypto::Aes128& aes,
                       const seedimpl::SeedNDetEnc& seed_ndet,
                       const crypto::NDetEnc& ndet,
                       const seedimpl::SeedDetEnc& seed_det,
                       const crypto::DetEnc& det) {
  std::vector<crypto::AesBackend> backends = {crypto::AesBackend::kPortable};
  if (crypto::AesNiAvailable()) backends.push_back(crypto::AesBackend::kAesNi);
  bool ok = true;
  Rng rng(7);
  for (auto backend : backends) {
    crypto::ForceAesBackend(backend);
    for (int trial = 0; trial < 5 && ok; ++trial) {
      Bytes block = rng.NextBytes(16);
      Bytes seed_block = block, new_block = block;
      seed_aes.EncryptBlock(seed_block.data());
      aes.EncryptBlock(new_block.data());
      ok = ok && seed_block == new_block;

      Bytes pt = rng.NextBytes(1 + rng.NextBelow(300));
      uint64_t iv_seed = rng.Next();
      Rng rng_a(iv_seed), rng_b(iv_seed);
      ok = ok && seed_ndet.Encrypt(pt, &rng_a) == ndet.Encrypt(pt, &rng_b);
      ok = ok && seed_det.Encrypt(pt) == det.Encrypt(pt);
    }
    if (!ok) {
      std::fprintf(stderr,
                   "FATAL: %s backend disagrees with the seed kernel\n",
                   crypto::AesBackendName(backend));
    }
  }
  crypto::ForceAesBackend(std::nullopt);
  return ok;
}

int Run(const std::string& out_path) {
  Rng rng(42);
  const Bytes key = rng.NextBytes(16);
  const Bytes master = rng.NextBytes(16);
  const size_t kMsg = 1024;  // representative sealed-tuple payload

  seedimpl::SeedAes128 seed_aes(key);
  auto aes = crypto::Aes128::Create(key).ValueOrDie();
  seedimpl::SeedNDetEnc seed_ndet(master);
  seedimpl::SeedDetEnc seed_det(master);
  auto ndet = crypto::NDetEnc::Create(master).ValueOrDie();
  auto det = crypto::DetEnc::Create(master).ValueOrDie();

  if (!VerifyBitIdentity(seed_aes, aes, seed_ndet, ndet, seed_det, det)) {
    return 1;
  }
  std::fprintf(stderr,
               "bit-identity seed vs engine verified on all backends\n");

  std::vector<Measurement> ms;
  std::vector<std::string> impls = {"portable"};
  if (crypto::AesNiAvailable()) impls.push_back("aesni");

  // --- AES single block ---
  {
    uint8_t block[16] = {0};
    ms.push_back(Measure("aes128_encrypt_block", "seed", 16, 1, [&] {
      seed_aes.EncryptBlock(block);
      Consume(block);
    }));
    for (const auto& impl : impls) {
      crypto::ForceAesBackend(impl == "aesni" ? crypto::AesBackend::kAesNi
                                              : crypto::AesBackend::kPortable);
      ms.push_back(Measure("aes128_encrypt_block", impl, 16, 1, [&] {
        aes.EncryptBlock(block);
        Consume(block);
      }));
    }
    crypto::ForceAesBackend(std::nullopt);
  }

  // --- Per-key set-up: the AES key schedule and a whole nDet_Enc ---
  // What every broadcast unwrap and epoch adoption pays per key. The seed
  // row is the byte-wise key expansion.
  {
    Bytes create_key = rng.NextBytes(16);
    ms.push_back(Measure("aes128_create", "seed", 0, 1, [&] {
      create_key[0] ^= 1;
      seedimpl::SeedAes128 created(create_key);
      Consume(created);
    }));
    for (const auto& impl : impls) {
      crypto::ForceAesBackend(impl == "aesni" ? crypto::AesBackend::kAesNi
                                              : crypto::AesBackend::kPortable);
      ms.push_back(Measure("aes128_create", impl, 0, 1, [&] {
        create_key[0] ^= 1;
        auto created = crypto::Aes128::Create(create_key);
        Consume(created);
      }));
      ms.push_back(Measure("ndet_create", impl, 0, 1, [&] {
        create_key[0] ^= 1;
        auto created = crypto::NDetEnc::Create(create_key);
        Consume(created);
      }));
    }
    crypto::ForceAesBackend(std::nullopt);
  }

  // --- AES batched blocks (64 at a time, in place) ---
  {
    Bytes buf = rng.NextBytes(64 * 16);
    for (const auto& impl : impls) {
      crypto::ForceAesBackend(impl == "aesni" ? crypto::AesBackend::kAesNi
                                              : crypto::AesBackend::kPortable);
      ms.push_back(Measure("aes128_encrypt_blocks64", impl, 64 * 16, 1, [&] {
        aes.EncryptBlocks(buf.data(), buf.data(), 64);
        Consume(buf);
      }));
    }
    crypto::ForceAesBackend(std::nullopt);
  }

  // --- CTR keystream over a 1 KiB message ---
  {
    Bytes iv = rng.NextBytes(16);
    Bytes in = rng.NextBytes(kMsg);
    Bytes out(kMsg);
    ms.push_back(Measure("ctr_xor_1k", "seed", kMsg, 1, [&] {
      seedimpl::SeedCtrXor(seed_aes, iv.data(), in.data(), in.size(),
                           out.data());
      Consume(out);
    }));
    for (const auto& impl : impls) {
      crypto::ForceAesBackend(impl == "aesni" ? crypto::AesBackend::kAesNi
                                              : crypto::AesBackend::kPortable);
      ms.push_back(Measure("ctr_xor_1k", impl, kMsg, 1, [&] {
        crypto::CtrXor(aes, iv.data(), in.data(), in.size(), out.data());
        Consume(out);
      }));
    }
    crypto::ForceAesBackend(std::nullopt);
  }

  // --- HMAC over 32/64/80-byte messages, one row per SHA-256 backend ---
  // The seed row runs on the portable compression too, so
  // hmac_sha256_64.state_vs_seed compares like with like.
  {
    Bytes mkey = rng.NextBytes(16);
    crypto::HmacState mac(mkey);
    Bytes data64 = rng.NextBytes(64);
    crypto::ForcePortableSha256(true);
    ms.push_back(Measure("hmac_sha256_64", "seed", 64, 1, [&] {
      auto d = seedimpl::SeedHmacSha256(mkey, data64);
      Consume(d);
    }));
    std::vector<std::string> sha_impls = {"portable"};
    if (crypto::ShaNiAvailable()) sha_impls.push_back("shani");
    for (size_t n : {32u, 64u, 80u}) {
      Bytes data = rng.NextBytes(n);
      for (const auto& impl : sha_impls) {
        crypto::ForcePortableSha256(impl == "portable");
        ms.push_back(Measure("hmac_sha256_" + std::to_string(n), impl, n, 1,
                             [&] {
                               auto d = mac.Mac(data);
                               Consume(d);
                             }));
      }
    }
    crypto::ForcePortableSha256(false);
  }

  // --- SHA-256 over 64 B and 4 KiB, one row per SHA-256 backend ---
  {
    std::vector<std::string> sha_impls = {"portable"};
    if (crypto::ShaNiAvailable()) sha_impls.push_back("shani");
    for (size_t n : {64u, 4096u}) {
      Bytes data = rng.NextBytes(n);
      const std::string name = n == 64 ? "sha256_64" : "sha256_4k";
      for (const auto& impl : sha_impls) {
        crypto::ForcePortableSha256(impl == "portable");
        ms.push_back(Measure(name, impl, n, 1, [&] {
          auto d = crypto::Sha256::Hash(data);
          Consume(d);
        }));
      }
    }
    crypto::ForcePortableSha256(false);
  }

  // --- Tuple codec, SQL parse and partial aggregation (engine only) ---
  {
    const storage::Tuple tuple({storage::Value::String("D042"),
                                storage::Value::Double(1.25),
                                storage::Value::Int64(7)});
    ms.push_back(Measure("tuple_encode_decode", "engine", 0, 1, [&] {
      const Bytes encoded = tuple.Encode();
      auto back = storage::Tuple::Decode(encoded.data(), encoded.size());
      Consume(back);
    }));
    const std::string sql =
        "SELECT AVG(Cons) FROM Power P, Consumer C "
        "WHERE C.accomodation='detached house' AND C.cid = P.cid "
        "GROUP BY C.district HAVING COUNT(DISTINCT C.cid) > 100 SIZE 50000";
    ms.push_back(Measure("sql_parse_flagship", "engine", 0, 1, [&] {
      auto stmt = sql::Parse(sql);
      Consume(stmt);
    }));
    sql::AggSpec spec;
    spec.kind = sql::AggKind::kAvg;
    spec.input_index = 1;
    constexpr size_t kTuples = 1024;
    for (size_t groups : {4u, 256u}) {
      std::vector<storage::Tuple> tuples;
      for (size_t i = 0; i < kTuples; ++i) {
        tuples.push_back(storage::Tuple(
            {storage::Value::Int64(static_cast<int64_t>(rng.NextBelow(groups))),
             storage::Value::Double(rng.NextDouble())}));
      }
      ms.push_back(Measure("partial_agg_g" + std::to_string(groups), "engine",
                           0, kTuples, [&] {
                             sql::GroupedAggregation agg({spec});
                             for (const auto& t : tuples) {
                               Consume(agg.AccumulateTuple(t, 1).ok());
                             }
                             Consume(agg.num_groups());
                           }));
    }
  }

  // --- nDet_Enc / Det_Enc on a 1 KiB payload ---
  {
    Bytes pt = rng.NextBytes(kMsg);
    Bytes seed_ct = seed_ndet.Encrypt(pt, &rng);
    Bytes ct, back;
    ms.push_back(Measure("ndet_encrypt_1k", "seed", kMsg, 1, [&] {
      Bytes c = seed_ndet.Encrypt(pt, &rng);
      Consume(c);
    }));
    ms.push_back(Measure("ndet_decrypt_1k", "seed", kMsg, 1, [&] {
      Bytes p = seed_ndet.Decrypt(seed_ct);
      Consume(p);
    }));
    ms.push_back(Measure("det_encrypt_1k", "seed", kMsg, 1, [&] {
      Bytes c = seed_det.Encrypt(pt);
      Consume(c);
    }));
    Bytes seed_det_ct = seed_det.Encrypt(pt);
    ms.push_back(Measure("det_decrypt_1k", "seed", kMsg, 1, [&] {
      Bytes p = seed_det.Decrypt(seed_det_ct);
      Consume(p);
    }));
    ms.push_back(Measure("det_roundtrip_1k", "seed", 2 * kMsg, 1, [&] {
      Bytes c = seed_det.Encrypt(pt);
      Bytes p = seed_det.Decrypt(c);
      Consume(p);
    }));
    for (const auto& impl : impls) {
      crypto::ForceAesBackend(impl == "aesni" ? crypto::AesBackend::kAesNi
                                              : crypto::AesBackend::kPortable);
      Bytes new_ct = ndet.Encrypt(pt, &rng);
      ms.push_back(Measure("ndet_encrypt_1k", impl, kMsg, 1, [&] {
        ndet.Encrypt(pt.data(), pt.size(), &rng, &ct);
        Consume(ct);
      }));
      ms.push_back(Measure("ndet_decrypt_1k", impl, kMsg, 1, [&] {
        Consume(ndet.Decrypt(new_ct.data(), new_ct.size(), &back).ok());
      }));
      ms.push_back(Measure("det_encrypt_1k", impl, kMsg, 1, [&] {
        det.Encrypt(pt.data(), pt.size(), &ct);
        Consume(ct);
      }));
      Bytes det_ct = det.Encrypt(pt);
      ms.push_back(Measure("det_decrypt_1k", impl, kMsg, 1, [&] {
        Consume(det.Decrypt(det_ct.data(), det_ct.size(), &back).ok());
      }));
      ms.push_back(Measure("det_roundtrip_1k", impl, 2 * kMsg, 1, [&] {
        det.Encrypt(pt.data(), pt.size(), &ct);
        Consume(det.Decrypt(ct.data(), ct.size(), &back).ok());
      }));
    }
    crypto::ForceAesBackend(std::nullopt);
  }

  // --- Speedups vs the seed kernel (portable path = apples-to-apples) ---
  struct SpeedupRow {
    const char* key;
    const char* name;
    const char* impl;
  };
  const SpeedupRow rows[] = {
      {"aes128_encrypt_block.portable_vs_seed", "aes128_encrypt_block",
       "portable"},
      {"aes128_encrypt_block.aesni_vs_seed", "aes128_encrypt_block", "aesni"},
      {"aes128_create.portable_vs_seed", "aes128_create", "portable"},
      {"ctr_xor_1k.portable_vs_seed", "ctr_xor_1k", "portable"},
      {"ctr_xor_1k.aesni_vs_seed", "ctr_xor_1k", "aesni"},
      {"hmac_sha256_64.state_vs_seed", "hmac_sha256_64", "portable"},
      {"ndet_encrypt_1k.portable_vs_seed", "ndet_encrypt_1k", "portable"},
      {"ndet_decrypt_1k.portable_vs_seed", "ndet_decrypt_1k", "portable"},
      {"det_encrypt_1k.portable_vs_seed", "det_encrypt_1k", "portable"},
      {"det_decrypt_1k.portable_vs_seed", "det_decrypt_1k", "portable"},
      {"det_roundtrip_1k.portable_vs_seed", "det_roundtrip_1k", "portable"},
      {"det_roundtrip_1k.aesni_vs_seed", "det_roundtrip_1k", "aesni"},
  };

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"bench_crypto_json\",\n");
  std::fprintf(f, "  \"aesni_available\": %s,\n",
               crypto::AesNiAvailable() ? "true" : "false");
  std::fprintf(f, "  \"shani_available\": %s,\n",
               crypto::ShaNiAvailable() ? "true" : "false");
  std::fprintf(f, "  \"message_bytes\": %zu,\n", kMsg);
  std::fprintf(f, "  \"benchmarks\": [\n");
  for (size_t i = 0; i < ms.size(); ++i) {
    const auto& m = ms[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"impl\": \"%s\", "
                 "\"bytes_per_op\": %zu, \"ns_per_op\": %.2f, "
                 "\"ops_per_sec\": %.0f, \"mb_per_sec\": %.2f}%s\n",
                 m.name.c_str(), m.impl.c_str(), m.bytes_per_op, m.ns_per_op,
                 m.ops_per_sec, m.mb_per_sec,
                 i + 1 < ms.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"speedup_vs_seed\": {\n");
  std::vector<std::string> lines;
  for (const auto& row : rows) {
    double seed_ns = FindNs(ms, row.name, "seed");
    double new_ns = FindNs(ms, row.name, row.impl);
    if (seed_ns <= 0 || new_ns <= 0) continue;
    char buf[160];
    std::snprintf(buf, sizeof(buf), "    \"%s\": %.2f", row.key,
                  seed_ns / new_ns);
    lines.push_back(buf);
  }
  for (size_t i = 0; i < lines.size(); ++i) {
    std::fprintf(f, "%s%s\n", lines[i].c_str(),
                 i + 1 < lines.size() ? "," : "");
  }
  std::fprintf(f, "  },\n");
  const double det_speedup = FindNs(ms, "det_roundtrip_1k", "seed") /
                             FindNs(ms, "det_roundtrip_1k", "portable");
  std::fprintf(f, "  \"acceptance\": {\n");
  std::fprintf(f, "    \"det_roundtrip_portable_speedup\": %.2f,\n",
               det_speedup);
  std::fprintf(f, "    \"det_roundtrip_portable_ge_2x\": %s\n",
               det_speedup >= 2.0 ? "true" : "false");
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::fprintf(stderr, "wrote %s (det roundtrip %.1fx)\n", out_path.c_str(),
               det_speedup);
  return 0;
}

}  // namespace tcells

int main(int argc, char** argv) {
  return tcells::Run(argc > 1 ? argv[1] : "BENCH_crypto.json");
}
