// SupportingServerInfrastructure (SSI): the powerful, highly available but
// honest-but-curious server tier (§2.1-2.2). It stores queryboxes and
// encrypted intermediate results, partitions covering results for parallel
// TDS processing, and re-dispatches partitions when a TDS goes offline. It
// holds no keys: its entire API consumes and produces EncryptedItems. It sees
// the cleartext SIZE clause of every post but does not enforce it: the
// querier, which sends every upload, closes the collection window (DESIGN.md
// "Who closes the collection window").
//
// The SSI's per-query state lives in net::SsiNode, one record per query.
// This header holds what both sides of the wire share: the AdversaryView —
// the exact multiset of observations an attacker controlling the SSI gets,
// for the security analysis (§5) — the ViewRecorder the node builds it with,
// and the partition builders the protocols run between rounds.
#ifndef TCELLS_SSI_SSI_H_
#define TCELLS_SSI_SSI_H_

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "ssi/messages.h"

namespace tcells::ssi {

/// Everything an honest-but-curious SSI observes during a run, as counts
/// with no order, so a view is the same however its observations were split
/// across shards. The exposure analysis and the security tests read it
/// (e.g. "all blobs of one phase have equal size", "tag multiset is flat").
struct AdversaryView {
  /// Cleartext routing tags seen in the collection phase, with multiplicity.
  std::map<Bytes, uint64_t> collection_tag_histogram;
  /// Blob sizes seen in the collection phase: size in bytes -> item count.
  std::map<uint64_t, uint64_t> collection_blob_size_histogram;
  /// Cleartext routing tags observed on aggregation-phase outputs (e.g. the
  /// Det_Enc(group) tags of ED_Hist's second phase — this is how the SSI
  /// learns G, and only G, there).
  std::map<Bytes, uint64_t> aggregation_tag_histogram;
  /// Number of items observed per phase (collection, aggregation rounds,
  /// filtering).
  uint64_t collection_items = 0;
  uint64_t aggregation_items = 0;
  uint64_t filtering_items = 0;

  /// Adds `other`'s observations: counters sum, histograms merge by key.
  void Merge(const AdversaryView& other);

  /// Wire codec, so a remote querier can download the view for the exposure
  /// analysis. Histograms encode in strictly ascending key order, the one
  /// order Decode accepts, so the round trip is lossless both ways.
  void EncodeTo(Bytes* out) const;
  static Result<AdversaryView> Decode(std::span<const uint8_t> data);
};

/// What the SSI node records of one query toward its AdversaryView, as the
/// calls arrive: one hash-map entry per distinct tag or blob size, folded
/// into the view's ordered maps when the view is read.
class ViewRecorder {
 public:
  /// Records one accepted collection upload / one aggregation-phase output.
  /// `items` is an item-vector encoding ScanItems already accepted; it is
  /// read again here without materializing an item.
  Status ObserveCollection(std::span<const uint8_t> items);
  Status ObserveAggregation(std::span<const uint8_t> items);
  /// Records the delivered result's item count.
  void ObserveFiltering(uint64_t items) { view_.filtering_items += items; }

  /// The view of everything recorded so far.
  const AdversaryView& View();

 private:
  /// Hashes a tag as a string_view, so a tag's span finds its count
  /// without a key built.
  struct TagHash {
    using is_transparent = void;
    size_t operator()(std::string_view tag) const {
      return std::hash<std::string_view>()(tag);
    }
  };
  using TagCounts =
      std::unordered_map<std::string, uint64_t, TagHash, std::equal_to<>>;
  using SizeCounts = std::unordered_map<uint64_t, uint64_t>;

  /// Reads one item-vector encoding ScanItems accepted: counts its tags
  /// into `tags` and, when `blob_sizes` is set, its blob sizes. Returns the
  /// item count.
  static Result<uint32_t> ObserveItems(std::span<const uint8_t> items,
                                       TagCounts* tags, SizeCounts* blob_sizes);

  AdversaryView view_;  ///< Histograms behind by what the counts hold.
  TagCounts collection_tags_;
  SizeCounts collection_sizes_;
  TagCounts aggregation_tags_;
};

/// ---- Partitioning (steps 5/9) ----
/// Random partitioning into chunks of at most `chunk_items` items: the only
/// thing the SSI can do when items carry no routing tag (S_Agg, basic).
std::vector<Partition> PartitionRandomly(std::vector<EncryptedItem> items,
                                         size_t chunk_items, Rng* rng);

/// Tag-based partitioning: one partition per distinct routing tag (Noise
/// protocols and ED_Hist). Items without a tag are rejected.
Result<std::vector<Partition>> PartitionByTag(std::vector<EncryptedItem> items);

/// Splits one partition into up to `ways` roughly equal sub-partitions
/// (parallelizing one group/bucket across several TDSs).
std::vector<Partition> SplitPartition(Partition partition, size_t ways);

}  // namespace tcells::ssi

#endif  // TCELLS_SSI_SSI_H_
