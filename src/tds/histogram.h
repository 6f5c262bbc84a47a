// Nearly equi-depth histogram over the grouping-attribute domain (§4.4).
//
// Built from the (approximate) distribution of A_G values — itself obtained
// by the distribution-discovery protocol — the histogram decomposes the
// domain into buckets holding nearly the same number of true tuples. Each
// TDS maps its tuple's group key to a bucket and exposes only the keyed hash
// h(bucketId) to the SSI.
#ifndef TCELLS_TDS_HISTOGRAM_H_
#define TCELLS_TDS_HISTOGRAM_H_

#include <cstdint>
#include <map>
#include <vector>

#include "common/bytes.h"
#include "storage/tuple.h"

namespace tcells::tds {

/// Immutable bucket decomposition of an ordered key domain.
class EquiDepthHistogram {
 public:
  /// Builds buckets of near-equal total frequency from `freq` (group key ->
  /// occurrence count). `num_buckets` is clamped to [1, #distinct keys].
  static EquiDepthHistogram Build(
      const std::map<storage::Tuple, uint64_t>& freq, size_t num_buckets);

  /// Bucket of `key`. Keys outside the observed domain fall into the nearest
  /// bucket by order, so stale distributions still yield a valid mapping.
  uint32_t BucketOf(const storage::Tuple& key) const;

  size_t num_buckets() const { return upper_bounds_.size(); }

  /// Canonical bytes of a bucket id (input to the keyed hash).
  static Bytes BucketIdBytes(uint32_t bucket);

 private:
  // upper_bounds_[i] is the largest key assigned to bucket i; buckets are
  // contiguous ranges in key order.
  std::vector<storage::Tuple> upper_bounds_;
};

}  // namespace tcells::tds

#endif  // TCELLS_TDS_HISTOGRAM_H_
