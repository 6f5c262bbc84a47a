#include "crypto/aes.h"

#include <array>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>

#include "crypto/aes_dispatch.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <cpuid.h>
#define TCELLS_AES_X86_64 1
#endif

namespace tcells::crypto {

#if TCELLS_HAVE_AESNI_TU
// Implemented in aes_ni.cc (compiled with -maes).
namespace aesni {
void EncryptBlocks(const uint8_t schedule[Aes128::kScheduleBytes],
                   const uint8_t* in, uint8_t* out, size_t nblocks);
}  // namespace aesni
#endif

namespace {

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

constexpr uint8_t Xtime(uint8_t x) {
  return static_cast<uint8_t>((x << 1) ^ ((x >> 7) * 0x1b));
}

constexpr uint32_t RotR(uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

// T-table (generated at compile time): Te0[x] is MixColumns applied to the
// column (S[x], 0, 0, 0) packed big-endian, so one lookup covers SubBytes +
// MixColumns for one byte; the other three columns use byte rotations of it.
constexpr std::array<uint32_t, 256> MakeTe0() {
  std::array<uint32_t, 256> te0{};
  for (int i = 0; i < 256; ++i) {
    const uint8_t s = kSbox[i];
    te0[i] = (static_cast<uint32_t>(Xtime(s)) << 24) |
             (static_cast<uint32_t>(s) << 16) |
             (static_cast<uint32_t>(s) << 8) |
             static_cast<uint32_t>(static_cast<uint8_t>(Xtime(s) ^ s));
  }
  return te0;
}

constexpr std::array<uint32_t, 256> kTe0 = MakeTe0();

inline uint32_t LoadBe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) << 24 | static_cast<uint32_t>(p[1]) << 16 |
         static_cast<uint32_t>(p[2]) << 8 | static_cast<uint32_t>(p[3]);
}

// One byte swap and one plain store: written byte by byte, the 44 schedule
// words Create stores cost more than the rest of the key set-up.
inline void StoreBe32(uint8_t* p, uint32_t v) {
  if constexpr (std::endian::native == std::endian::little) {
    v = __builtin_bswap32(v);
  }
  std::memcpy(p, &v, sizeof(v));
}

void PortableEncryptBlock(const uint32_t rk[44], const uint8_t in[16],
                          uint8_t out[16]) {
  uint32_t s0 = LoadBe32(in) ^ rk[0];
  uint32_t s1 = LoadBe32(in + 4) ^ rk[1];
  uint32_t s2 = LoadBe32(in + 8) ^ rk[2];
  uint32_t s3 = LoadBe32(in + 12) ^ rk[3];
  for (int round = 1; round < 10; ++round) {
    const uint32_t* k = rk + 4 * round;
    uint32_t t0 = kTe0[s0 >> 24] ^ RotR(kTe0[(s1 >> 16) & 0xff], 8) ^
                  RotR(kTe0[(s2 >> 8) & 0xff], 16) ^
                  RotR(kTe0[s3 & 0xff], 24) ^ k[0];
    uint32_t t1 = kTe0[s1 >> 24] ^ RotR(kTe0[(s2 >> 16) & 0xff], 8) ^
                  RotR(kTe0[(s3 >> 8) & 0xff], 16) ^
                  RotR(kTe0[s0 & 0xff], 24) ^ k[1];
    uint32_t t2 = kTe0[s2 >> 24] ^ RotR(kTe0[(s3 >> 16) & 0xff], 8) ^
                  RotR(kTe0[(s0 >> 8) & 0xff], 16) ^
                  RotR(kTe0[s1 & 0xff], 24) ^ k[2];
    uint32_t t3 = kTe0[s3 >> 24] ^ RotR(kTe0[(s0 >> 16) & 0xff], 8) ^
                  RotR(kTe0[(s1 >> 8) & 0xff], 16) ^
                  RotR(kTe0[s2 & 0xff], 24) ^ k[3];
    s0 = t0; s1 = t1; s2 = t2; s3 = t3;
  }
  const uint32_t* k = rk + 40;
  uint32_t o0 = (static_cast<uint32_t>(kSbox[s0 >> 24]) << 24 |
                 static_cast<uint32_t>(kSbox[(s1 >> 16) & 0xff]) << 16 |
                 static_cast<uint32_t>(kSbox[(s2 >> 8) & 0xff]) << 8 |
                 static_cast<uint32_t>(kSbox[s3 & 0xff])) ^ k[0];
  uint32_t o1 = (static_cast<uint32_t>(kSbox[s1 >> 24]) << 24 |
                 static_cast<uint32_t>(kSbox[(s2 >> 16) & 0xff]) << 16 |
                 static_cast<uint32_t>(kSbox[(s3 >> 8) & 0xff]) << 8 |
                 static_cast<uint32_t>(kSbox[s0 & 0xff])) ^ k[1];
  uint32_t o2 = (static_cast<uint32_t>(kSbox[s2 >> 24]) << 24 |
                 static_cast<uint32_t>(kSbox[(s3 >> 16) & 0xff]) << 16 |
                 static_cast<uint32_t>(kSbox[(s0 >> 8) & 0xff]) << 8 |
                 static_cast<uint32_t>(kSbox[s1 & 0xff])) ^ k[2];
  uint32_t o3 = (static_cast<uint32_t>(kSbox[s3 >> 24]) << 24 |
                 static_cast<uint32_t>(kSbox[(s0 >> 16) & 0xff]) << 16 |
                 static_cast<uint32_t>(kSbox[(s1 >> 8) & 0xff]) << 8 |
                 static_cast<uint32_t>(kSbox[s2 & 0xff])) ^ k[3];
  StoreBe32(out, o0);
  StoreBe32(out + 4, o1);
  StoreBe32(out + 8, o2);
  StoreBe32(out + 12, o3);
}

// ---------------------------------------------------------------------------
// Backend resolution

bool CpuHasAesNi() {
#if defined(TCELLS_AES_X86_64)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  return (ecx & (1u << 25)) != 0;
#else
  return false;
#endif
}

AesBackend ResolveDefaultBackend() {
  const char* force = std::getenv("TCELLS_FORCE_PORTABLE_AES");
  if (force != nullptr && force[0] != '\0' &&
      !(force[0] == '0' && force[1] == '\0')) {
    return AesBackend::kPortable;
  }
  return AesNiAvailable() ? AesBackend::kAesNi : AesBackend::kPortable;
}

// kPortable/kAesNi encoded as 1/2 so 0 can mean "not yet resolved".
std::atomic<int> g_backend{0};

}  // namespace

bool AesNiAvailable() {
#if TCELLS_HAVE_AESNI_TU
  static const bool supported = CpuHasAesNi();
  return supported;
#else
  return false;
#endif
}

AesBackend ActiveAesBackend() {
  int v = g_backend.load(std::memory_order_acquire);
  if (v == 0) {
    v = ResolveDefaultBackend() == AesBackend::kAesNi ? 2 : 1;
    g_backend.store(v, std::memory_order_release);
  }
  return v == 2 ? AesBackend::kAesNi : AesBackend::kPortable;
}

void ForceAesBackend(std::optional<AesBackend> backend) {
  if (!backend.has_value()) {
    g_backend.store(0, std::memory_order_release);
    return;
  }
  AesBackend b = *backend;
  if (b == AesBackend::kAesNi && !AesNiAvailable()) b = AesBackend::kPortable;
  g_backend.store(b == AesBackend::kAesNi ? 2 : 1, std::memory_order_release);
}

const char* AesBackendName(AesBackend backend) {
  return backend == AesBackend::kAesNi ? "aesni" : "portable";
}

// ---------------------------------------------------------------------------
// Aes128

Result<Aes128> Aes128::Create(const Bytes& key) {
  if (key.size() != kKeySize) {
    return Status::InvalidArgument("AES-128 key must be 16 bytes");
  }
  // The schedule is built as big-endian words, the form the T-table path
  // uses, and written out as bytes once at the end, so no step reads back
  // bytes just stored.
  Aes128 aes;
  uint32_t* w = aes.enc_words_.data();
  for (int i = 0; i < 4; ++i) w[i] = LoadBe32(key.data() + 4 * i);
  for (int i = 4; i < 44; ++i) {
    uint32_t temp = w[i - 1];
    if (i % 4 == 0) {
      // RotWord + SubWord + Rcon.
      temp = static_cast<uint32_t>(kSbox[(temp >> 16) & 0xff] ^ kRcon[i / 4])
                 << 24 |
             static_cast<uint32_t>(kSbox[(temp >> 8) & 0xff]) << 16 |
             static_cast<uint32_t>(kSbox[temp & 0xff]) << 8 |
             static_cast<uint32_t>(kSbox[temp >> 24]);
    }
    w[i] = w[i - 4] ^ temp;
  }
  for (int i = 0; i < 44; ++i) StoreBe32(aes.enc_keys_.data() + 4 * i, w[i]);
  return aes;
}

void Aes128::EncryptBlock(uint8_t block[kBlockSize]) const {
  EncryptBlocks(block, block, 1);
}

void Aes128::EncryptBlocks(const uint8_t* in, uint8_t* out,
                           size_t nblocks) const {
#if TCELLS_HAVE_AESNI_TU
  if (ActiveAesBackend() == AesBackend::kAesNi) {
    aesni::EncryptBlocks(enc_keys_.data(), in, out, nblocks);
    return;
  }
#endif
  for (size_t b = 0; b < nblocks; ++b) {
    PortableEncryptBlock(enc_words_.data(), in + 16 * b, out + 16 * b);
  }
}

}  // namespace tcells::crypto
