#include "tds/histogram.h"

#include <algorithm>

namespace tcells::tds {

EquiDepthHistogram EquiDepthHistogram::Build(
    const std::map<storage::Tuple, uint64_t>& freq, size_t num_buckets) {
  EquiDepthHistogram hist;
  if (freq.empty()) return hist;
  num_buckets = std::max<size_t>(1, std::min(num_buckets, freq.size()));

  uint64_t total = 0;
  for (const auto& [key, count] : freq) total += count;

  // Greedy sweep in key order with an adaptive target: each new bucket aims
  // for (remaining mass) / (remaining buckets), so one heavy value early on
  // does not starve the later buckets.
  uint64_t remaining = total;
  uint64_t in_bucket = 0;
  size_t keys_done = 0;
  size_t buckets_made = 0;
  const storage::Tuple* last_key = nullptr;
  for (const auto& [key, count] : freq) {
    in_bucket += count;
    ++keys_done;
    last_key = &key;
    size_t keys_left = freq.size() - keys_done;
    size_t buckets_left = num_buckets - buckets_made - 1;
    bool must_close = keys_left == buckets_left && buckets_left > 0;
    double target = static_cast<double>(remaining) /
                    static_cast<double>(num_buckets - buckets_made);
    bool full = static_cast<double>(in_bucket) >= target;
    if ((full || must_close) && buckets_made + 1 < num_buckets) {
      hist.upper_bounds_.push_back(key);
      ++buckets_made;
      remaining -= in_bucket;
      in_bucket = 0;
    }
  }
  // Final bucket takes the rest.
  hist.upper_bounds_.push_back(*last_key);
  return hist;
}

uint32_t EquiDepthHistogram::BucketOf(const storage::Tuple& key) const {
  if (upper_bounds_.empty()) return 0;
  auto it = std::lower_bound(upper_bounds_.begin(), upper_bounds_.end(), key);
  if (it == upper_bounds_.end()) return static_cast<uint32_t>(upper_bounds_.size() - 1);
  return static_cast<uint32_t>(it - upper_bounds_.begin());
}

Bytes EquiDepthHistogram::BucketIdBytes(uint32_t bucket) {
  Bytes out;
  ByteWriter w(&out);
  w.PutU32(bucket);
  return out;
}

}  // namespace tcells::tds
