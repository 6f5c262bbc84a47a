#include "common/rng.h"

#include <algorithm>
#include <cmath>

namespace tcells {

namespace {
constexpr uint64_t kGolden = 0x9e3779b97f4a7c15ULL;

/// The splitmix64 finalizer: a bijective 64-bit mix.
uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = Mix64(sm += kGolden);
}

uint64_t Rng::Keyed(uint64_t seed, RngDomain domain, uint64_t a,
                    uint64_t b) {
  uint64_t h = Mix64(seed ^ Mix64(static_cast<uint64_t>(domain) + kGolden));
  h = Mix64(h ^ Mix64(a + kGolden));
  return Mix64(h ^ Mix64(b + kGolden));
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::NextBelow(uint64_t bound) {
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = -bound % bound;
  for (;;) {
    uint64_t r = Next();
    if (r >= threshold) return r % bound;
  }
}

int64_t Rng::NextInRange(int64_t lo, int64_t hi) {
  return lo + static_cast<int64_t>(
                  NextBelow(static_cast<uint64_t>(hi - lo) + 1));
}

double Rng::NextDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

bool Rng::NextBool(double p_true) { return NextDouble() < p_true; }

Bytes Rng::NextBytes(size_t n) {
  Bytes out(n);
  FillBytes(out.data(), n);
  return out;
}

void Rng::FillBytes(uint8_t* out, size_t n) {
  size_t i = 0;
  while (i + 8 <= n) {
    uint64_t r = Next();
    for (int k = 0; k < 8; ++k) out[i++] = static_cast<uint8_t>(r >> (8 * k));
  }
  if (i < n) {
    uint64_t r = Next();
    while (i < n) {
      out[i++] = static_cast<uint8_t>(r);
      r >>= 8;
    }
  }
}

ZipfSampler::ZipfSampler(size_t n, double s) {
  cdf_.resize(n);
  double sum = 0;
  for (size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = sum;
  }
  for (auto& c : cdf_) c /= sum;
}

size_t ZipfSampler::Sample(Rng* rng) const {
  double u = rng->NextDouble();
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) return cdf_.size() - 1;
  return static_cast<size_t>(it - cdf_.begin());
}

double ZipfSampler::Pmf(size_t i) const {
  if (i >= cdf_.size()) return 0;
  return i == 0 ? cdf_[0] : cdf_[i] - cdf_[i - 1];
}

}  // namespace tcells
