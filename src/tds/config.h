// Per-protocol configuration a TDS receives alongside a query (in a real
// deployment this rides inside the encrypted query post; the simulation
// passes it as a struct). It tells the TDS how to encode its collection-phase
// output and how to tag aggregation-phase output.
#ifndef TCELLS_TDS_CONFIG_H_
#define TCELLS_TDS_CONFIG_H_

#include <memory>
#include <optional>
#include <vector>

#include "ssi/messages.h"
#include "storage/tuple.h"
#include "tds/histogram.h"
#include "tds/query_cache.h"

namespace tcells::tds {

/// How collection-phase items are encoded / tagged (§4.2-4.4).
enum class CollectionMode {
  kNDet,     ///< nDet_Enc, no routing tag (basic protocol, S_Agg)
  kDetTag,   ///< routing tag = Det_Enc(A_G); noise tuples added (Noise)
  kHistTag,  ///< routing tag = h(bucketId) of an equi-depth histogram (ED_Hist)
};

/// Noise generation parameters (kDetTag).
struct NoiseConfig {
  /// Rnf_Noise: fake tuples added per true tuple (white noise). Ignored when
  /// `complementary` is set.
  int nf = 0;
  /// C_Noise: one fake per domain value different from the true one.
  bool complementary = false;
  /// The known A_G domain (group-key tuples). Required: random noise draws
  /// from it, complementary noise enumerates it.
  std::shared_ptr<const std::vector<storage::Tuple>> group_domain;
};

/// Everything the collection phase needs.
struct CollectionConfig {
  CollectionMode mode = CollectionMode::kNDet;
  NoiseConfig noise;  // kDetTag only
  std::shared_ptr<const EquiDepthHistogram> histogram;  // kHistTag only
  /// Pad every plaintext payload to this many bytes (0 = no padding) so that
  /// dummy/fake items are indistinguishable from true ones by length.
  size_t pad_payload_to = 0;
  /// Dynamic key mode: the public key posting of this query. A TDS given a
  /// posting derives the per-query session keys (k1q/k2q) from its installed
  /// key state's epoch secret instead of using the static provisioned
  /// KeyStore; absent = static keys, bit-identical to the pre-key-management
  /// behaviour.
  std::optional<ssi::QueryKeyPosting> key_posting;
  /// The work every TDS serving this query shares (query_cache.h). Created
  /// with the config, so never null, and freed with its last copy.
  std::shared_ptr<QueryCache> cache = std::make_shared<QueryCache>();
};

/// How aggregation-phase output items are tagged.
enum class OutputTagPolicy {
  kNone,         ///< no tag (S_Agg: output shuffles back into random partitions)
  kPreserve,     ///< keep the partition's input tag (Noise step 1 -> step 2)
  kPerGroupDet,  ///< one output item per group, tag = Det_Enc(group key)
                 ///< (ED_Hist step 1 -> step 2)
};

}  // namespace tcells::tds

#endif  // TCELLS_TDS_CONFIG_H_
