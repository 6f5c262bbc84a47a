// ShardedSsiClient: a coordinator-side router that presents N shard SSI
// backends as one logical SSI.
//
// The TDS population is hash-partitioned across shards (shard_of(tds_id) =
// splitmix64(tds_id) mod N), so all querybox and collection traffic of one
// TDS lands on one shard. Everything else a query sends after collection —
// its round transfers, aggregation observation and result — goes to its
// home shard, where the query is posted: an SsiNode keeps that state in the
// query's record, which only a post creates.
//
// Per-query coordination lives here, the same at every shard count. The
// collection window is not part of it: the SIZE bound and the served count
// belong to the QuerySession, which sends every upload and acknowledgement
// and reads every accept bit.
//
//   - TakeCollected must reproduce the exact arrival order a single node
//     would have produced, because the collection feeds RNG-driven
//     partitioning. The router logs (shard, item-count) per accepted upload
//     in serial upload order and re-interleaves the per-shard drains along
//     that log.
//   - The adversary view is merged across shards by AdversaryView::Merge
//     (counters sum, histograms merge by key). A view holds counts only, so
//     a global query's merged view is the same at every shard count.
//
// Global posts fan out to every shard (each shard's TDSes fetch locally);
// personal posts live only on the target TDS's shard.
//
// Thread-safety: routing is stateless hashing; the per-query coordination
// map is mutex-guarded so concurrent queries (one serial protocol session
// each) can share one router.
#ifndef TCELLS_NET_SHARDED_CLIENT_H_
#define TCELLS_NET_SHARDED_CLIENT_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "net/ssi_api.h"

namespace tcells::net {

class ShardedSsiClient : public SsiApi {
 public:
  /// `shards` are borrowed and must outlive the router. Must be non-empty.
  explicit ShardedSsiClient(std::vector<SsiApi*> shards)
      : shards_(std::move(shards)) {}

  size_t num_shards() const { return shards_.size(); }

  /// Which shard owns a TDS's querybox + collection traffic.
  size_t ShardOfTds(uint64_t tds_id) const;
  /// The scatter-gather behind every per-TDS batch: slot i of `n` goes to
  /// the shard that owns TDS `tds_of(i)`, `per_shard(shard, slots)` answers
  /// one shard's slots (in input order) once per shard that owns some, and
  /// the replies come back in input order. Only a slot its shard left
  /// unanswered becomes Unavailable.
  template <typename T, typename TdsOf, typename PerShard>
  std::vector<Result<T>> Scatter(size_t n, TdsOf tds_of,
                                 PerShard per_shard) const {
    std::vector<std::vector<size_t>> slots_of(shards_.size());
    for (size_t i = 0; i < n; ++i) slots_of[ShardOfTds(tds_of(i))].push_back(i);
    std::vector<std::vector<Result<T>>> replies(shards_.size());
    for (size_t shard = 0; shard < shards_.size(); ++shard) {
      if (!slots_of[shard].empty()) {
        replies[shard] = per_shard(shard, slots_of[shard]);
      }
    }
    // Slot i is the next unread reply of its shard.
    std::vector<size_t> next(shards_.size(), 0);
    std::vector<Result<T>> out;
    out.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      const size_t shard = ShardOfTds(tds_of(i));
      const size_t k = next[shard]++;
      if (k < replies[shard].size()) {
        out.push_back(std::move(replies[shard][k]));
      } else {
        out.push_back(Status::Unavailable("batched call not dispatched"));
      }
    }
    return out;
  }

  // ---- Querybox ----
  Status PostGlobal(const ssi::QueryPost& post) override;
  Status PostPersonal(uint64_t tds_id, const ssi::QueryPost& post) override;
  /// Groups the ids by owning shard (preserving per-shard submission order)
  /// so each shard sees one wire batch, then scatters the results back into
  /// input order.
  std::vector<Result<std::vector<ssi::QueryPost>>> FetchPostsBatch(
      const std::vector<uint64_t>& tds_ids) override;
  Status Acknowledge(uint64_t tds_id, uint64_t query_id) override;

  // ---- Key epoch distribution ----
  /// Fans the block out to every shard (each TDS fetches from its own
  /// shard); fails on the first shard that rejects.
  Status PostEpochBlock(const Bytes& block) override;
  /// Routed to the calling TDS's shard, like its querybox traffic.
  Result<Bytes> FetchEpochBlock(uint64_t tds_id) override;

  // ---- Collection phase ----
  /// Fans per-shard sub-batches out (per-shard submission order), then logs
  /// each accepted upload in submission order for TakeCollected.
  std::vector<Result<bool>> UploadCollectionBatch(
      const std::vector<CollectionUpload>& uploads) override;
  Result<std::vector<ssi::EncryptedItem>> TakeCollected(
      uint64_t query_id) override;

  // ---- Aggregation / filtering rounds ----
  Status StagePartition(uint64_t query_id, uint64_t token,
                        const ssi::Partition& partition) override;
  Result<ssi::Partition> FetchPartition(uint64_t query_id,
                                        uint64_t token) override;
  Status UploadRoundOutput(
      uint64_t query_id, uint64_t token,
      const std::vector<ssi::EncryptedItem>& items) override;
  Result<std::vector<ssi::EncryptedItem>> TakeRoundOutput(
      uint64_t query_id, uint64_t token) override;
  Status ObserveAggregation(
      uint64_t query_id, const std::vector<ssi::EncryptedItem>& items) override;

  // ---- Result delivery / teardown ----
  Status DeliverResult(
      uint64_t query_id, const std::vector<ssi::EncryptedItem>& items) override;
  Result<std::vector<ssi::EncryptedItem>> FetchResult(
      uint64_t query_id) override;
  Result<ssi::AdversaryView> GetAdversaryView(uint64_t query_id) override;
  Status Retire(uint64_t query_id) override;

 private:
  struct QueryState {
    bool personal = false;
    size_t home = 0;  ///< personal: the TDS's shard; global: hash(query_id).
    /// (shard, item count) per accepted upload, in serial upload order —
    /// the recipe for reconstructing single-node arrival order at take time.
    std::vector<std::pair<size_t, uint64_t>> upload_log;
  };

  /// Shard handling a query's round transfers, aggregation observation and
  /// result: the personal home, or a query-id hash for global posts (valid
  /// because global posts exist on every shard).
  size_t HomeShard(uint64_t query_id);

  std::vector<SsiApi*> shards_;
  std::mutex mu_;
  std::map<uint64_t, QueryState> queries_;
};

}  // namespace tcells::net

#endif  // TCELLS_NET_SHARDED_CLIENT_H_
