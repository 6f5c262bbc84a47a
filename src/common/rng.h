// Deterministic pseudo-random generation for simulations and workload
// generators. Not used for cryptographic nonces in a real deployment; in this
// simulated environment the CTR nonces also come from here so that whole
// protocol runs are reproducible from a seed.
#ifndef TCELLS_COMMON_RNG_H_
#define TCELLS_COMMON_RNG_H_

#include <cstdint>
#include <vector>

#include "common/bytes.h"

namespace tcells {

/// The random choices of a query, one domain each, with the coordinates (a, b)
/// Rng::Keyed takes for each. A round is a phase and the round's index in it.
enum class RngDomain : uint64_t {
  kPost = 1,         // the querier's query post encryption
  kPosting,          // dynamic keys: the key posting's nonce
  kConnect,          // (tick, tds_id): whether the TDS connects in a tick
  kServeOrder,       // (tick): the order a tick serves its connectors in
  kServe,            // (tds_id): one TDS's collection serve
  kComputePool,      // the TDSs available to the query's rounds
  kPartitioning,     // (round): the items' split into a round's partitions
  kPartition,        // (round, token): one partition's TDS, dropouts, seals
};

/// xoshiro256** with splitmix64 seeding. Fast, decent quality, reproducible.
/// A query's streams are seeded by Keyed, never forked from one another: what
/// a choice draws depends neither on the choices before it nor on threads.
class Rng {
 public:
  explicit Rng(uint64_t seed);

  /// The seed of the stream for `domain` at coordinates (a, b) under `seed`:
  /// a splitmix64 mix of the four words, as counter-based generators derive
  /// streams (Salmon et al., "Parallel Random Numbers: As Easy as 1, 2, 3").
  static uint64_t Keyed(uint64_t seed, RngDomain domain, uint64_t a = 0,
                        uint64_t b = 0);

  /// Uniform 64-bit value.
  uint64_t Next();

  /// Uniform in [0, bound), bound > 0 (unbiased via rejection).
  uint64_t NextBelow(uint64_t bound);

  /// Uniform in [lo, hi] inclusive.
  int64_t NextInRange(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Bernoulli trial.
  bool NextBool(double p_true = 0.5);

  /// `n` random bytes.
  Bytes NextBytes(size_t n);

  /// Writes `n` random bytes to `out` — the identical byte stream NextBytes
  /// would return, without the allocation (hot seal paths draw one IV per
  /// tuple).
  void FillBytes(uint8_t* out, size_t n);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      size_t j = static_cast<size_t>(NextBelow(i));
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

 private:
  uint64_t s_[4];
};

/// Samples from a Zipf(s) distribution over {0, ..., n-1} via inverse-CDF on a
/// precomputed table. Rank 0 is the most frequent value. Used to build the
/// skewed A_G distributions of Section 5's exposure experiments.
class ZipfSampler {
 public:
  /// `n` distinct values, exponent `s` (s=0 is uniform; s≈1 is classic Zipf).
  ZipfSampler(size_t n, double s);

  size_t Sample(Rng* rng) const;
  size_t n() const { return cdf_.size(); }
  /// Probability of rank `i`.
  double Pmf(size_t i) const;

 private:
  std::vector<double> cdf_;
};

}  // namespace tcells

#endif  // TCELLS_COMMON_RNG_H_
