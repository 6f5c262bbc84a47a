#include "crypto/sha256.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(_M_X64)
#include <cpuid.h>
#define TCELLS_SHA_X86_64 1
#endif

namespace tcells::crypto {

#if TCELLS_HAVE_SHANI_TU
/// Hardware kernel (sha256_ni.cc, built with -msha).
void Sha256NiProcessBlocks(uint32_t state[8], const uint8_t* data,
                           size_t nblocks);
#endif

namespace {

constexpr uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

// Big-endian stores as one byte swap and one plain store. Written byte by
// byte, the eight digest words vectorize into code slower than a SHA-NI
// compression.
void StoreBe32(uint8_t* p, uint32_t v) {
  if constexpr (std::endian::native == std::endian::little) {
    v = __builtin_bswap32(v);
  }
  std::memcpy(p, &v, sizeof(v));
}

void StoreBe64(uint8_t* p, uint64_t v) {
  if constexpr (std::endian::native == std::endian::little) {
    v = __builtin_bswap64(v);
  }
  std::memcpy(p, &v, sizeof(v));
}

uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

bool CpuHasShaNi() {
#if defined(TCELLS_SHA_X86_64)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  // SHA extensions: leaf 7 subleaf 0, EBX bit 29. The kernel also uses
  // SSSE3/SSE4.1 shuffles (leaf 1, ECX bits 9 and 19).
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  const bool sse = (ecx & (1u << 9)) != 0 && (ecx & (1u << 19)) != 0;
  if (!sse) return false;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  return (ebx & (1u << 29)) != 0;
#else
  return false;
#endif
}

bool ResolveUseShaNi() {
  const char* force = std::getenv("TCELLS_FORCE_PORTABLE_SHA");
  if (force != nullptr && force[0] != '\0' &&
      !(force[0] == '0' && force[1] == '\0')) {
    return false;
  }
  return ShaNiAvailable();
}

// 0 = not yet resolved, 1 = portable, 2 = sha-ni.
std::atomic<int> g_sha_backend{0};

bool UseShaNi() {
  int v = g_sha_backend.load(std::memory_order_acquire);
  if (v == 0) {
    v = ResolveUseShaNi() ? 2 : 1;
    g_sha_backend.store(v, std::memory_order_release);
  }
  return v == 2;
}

void ProcessOneBlockPortable(uint32_t state[8],
                             const uint8_t block[Sha256::kBlockSize]) {
  uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = static_cast<uint32_t>(block[4 * i]) << 24 |
           static_cast<uint32_t>(block[4 * i + 1]) << 16 |
           static_cast<uint32_t>(block[4 * i + 2]) << 8 |
           static_cast<uint32_t>(block[4 * i + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    uint32_t s0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    uint32_t s1 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
  for (int i = 0; i < 64; ++i) {
    uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
    uint32_t ch = (e & f) ^ (~e & g);
    uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
    uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
    uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    uint32_t temp2 = s0 + maj;
    h = g; g = f; f = e; e = d + temp1;
    d = c; c = b; b = a; a = temp1 + temp2;
  }
  state[0] += a; state[1] += b; state[2] += c; state[3] += d;
  state[4] += e; state[5] += f; state[6] += g; state[7] += h;
}

// Compresses `nblocks` consecutive 64-byte blocks into `h`, dispatching to
// the active backend once per call (so bulk input pays one dispatch).
void ProcessBlocks(uint32_t h[8], const uint8_t* data, size_t nblocks) {
#if TCELLS_HAVE_SHANI_TU
  if (UseShaNi()) {
    Sha256NiProcessBlocks(h, data, nblocks);
    return;
  }
#endif
  for (size_t b = 0; b < nblocks; ++b, data += Sha256::kBlockSize) {
    ProcessOneBlockPortable(h, data);
  }
}

// Finalizes a message of `total_len` bytes whose last `len` < 64 bytes sit
// at the front of `block`: writes 0x80, the zero fill and the 64-bit bit
// length in place, and compresses the one or two final blocks.
void PadAndProcess(uint32_t h[8], uint8_t block[Sha256::kBlockSize],
                   size_t len, uint64_t total_len) {
  constexpr size_t kLengthAt = Sha256::kBlockSize - 8;
  block[len++] = 0x80;
  if (len > kLengthAt) {
    std::memset(block + len, 0, Sha256::kBlockSize - len);
    ProcessBlocks(h, block, 1);
    len = 0;
  }
  std::memset(block + len, 0, kLengthAt - len);
  StoreBe64(block + kLengthAt, total_len * 8);
  ProcessBlocks(h, block, 1);
}

std::array<uint8_t, Sha256::kDigestSize> DigestOf(const uint32_t h[8]) {
  std::array<uint8_t, Sha256::kDigestSize> digest;
  for (int i = 0; i < 8; ++i) StoreBe32(digest.data() + 4 * i, h[i]);
  return digest;
}

}  // namespace

bool ShaNiAvailable() {
#if TCELLS_HAVE_SHANI_TU
  static const bool supported = CpuHasShaNi();
  return supported;
#else
  return false;
#endif
}

void ForcePortableSha256(bool force) {
  g_sha_backend.store(force ? 1 : 0, std::memory_order_release);
}

const char* ActiveSha256BackendName() {
  return UseShaNi() ? "shani" : "portable";
}

Sha256::Sha256() {
  h_[0] = 0x6a09e667; h_[1] = 0xbb67ae85; h_[2] = 0x3c6ef372; h_[3] = 0xa54ff53a;
  h_[4] = 0x510e527f; h_[5] = 0x9b05688c; h_[6] = 0x1f83d9ab; h_[7] = 0x5be0cd19;
}

Sha256::Sha256(const std::array<uint32_t, 8>& chaining_value, uint64_t blocks)
    : total_len_(blocks * kBlockSize) {
  std::memcpy(h_, chaining_value.data(), sizeof(h_));
}

std::array<uint32_t, 8> Sha256::chaining_value() const {
  std::array<uint32_t, 8> out;
  std::memcpy(out.data(), h_, sizeof(h_));
  return out;
}

void Sha256::Update(const uint8_t* data, size_t n) {
  if (n == 0) return;  // an empty span's data() may be null
  total_len_ += n;
  if (buffer_len_ > 0) {
    size_t take = std::min(n, kBlockSize - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, data, take);
    buffer_len_ += take;
    data += take;
    n -= take;
    if (buffer_len_ == kBlockSize) {
      ProcessBlocks(h_, buffer_, 1);
      buffer_len_ = 0;
    }
  }
  if (n >= kBlockSize) {
    const size_t nblocks = n / kBlockSize;
    ProcessBlocks(h_, data, nblocks);
    data += nblocks * kBlockSize;
    n -= nblocks * kBlockSize;
  }
  if (n > 0) {
    std::memcpy(buffer_, data, n);
    buffer_len_ = n;
  }
}

std::array<uint8_t, Sha256::kDigestSize> Sha256::Finish() {
  PadAndProcess(h_, buffer_, buffer_len_, total_len_);
  return DigestOf(h_);
}

std::array<uint8_t, Sha256::kDigestSize> Sha256::FinishWith(
    const uint8_t* data, size_t n) const {
  assert(buffer_len_ == 0);
  uint32_t h[8];
  std::memcpy(h, h_, sizeof(h));
  const size_t whole = n / kBlockSize * kBlockSize;
  if (whole > 0) ProcessBlocks(h, data, whole / kBlockSize);
  uint8_t block[kBlockSize];
  if (n > whole) std::memcpy(block, data + whole, n - whole);
  PadAndProcess(h, block, n - whole, total_len_ + n);
  return DigestOf(h);
}

std::array<uint8_t, Sha256::kDigestSize> Sha256::Hash(const Bytes& data) {
  Sha256 hasher;
  hasher.Update(data);
  return hasher.Finish();
}

}  // namespace tcells::crypto
