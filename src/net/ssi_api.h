// SsiApi: the abstract SSI RPC surface as seen by the protocol engine.
//
// Everything a querier or TDS does against the honest-but-curious server —
// querybox traffic, collection uploads, round staging/fetching, result
// delivery, exposure introspection, teardown — is one of these calls. Two
// implementations exist:
//
//   - net::SsiClient       one channel to one SsiNode (loopback or TCP);
//   - net::ShardedSsiClient a coordinator that hash-routes each call to one
//                           of N shard clients and merges cross-shard views.
//
// The protocol layer (RunContext / QuerySession) programs against this
// interface only, so a single-node world and a sharded fleet are
// interchangeable without touching protocol code.
#ifndef TCELLS_NET_SSI_API_H_
#define TCELLS_NET_SSI_API_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/result.h"
#include "ssi/messages.h"
#include "ssi/ssi.h"

namespace tcells::net {

/// One TDS contribution in a batched collection upload (UploadCollectionBatch).
struct CollectionUpload {
  uint64_t query_id = 0;
  uint64_t tds_id = 0;
  std::vector<ssi::EncryptedItem> items;
};

class SsiApi {
 public:
  virtual ~SsiApi() = default;

  // ---- Querybox ----
  virtual Status PostGlobal(const ssi::QueryPost& post) = 0;
  virtual Status PostPersonal(uint64_t tds_id, const ssi::QueryPost& post) = 0;
  /// A one-id FetchPostsBatch: the same single-call frame on the wire.
  virtual Result<std::vector<ssi::QueryPost>> FetchPosts(uint64_t tds_id) {
    return std::move(FetchPostsBatch({tds_id}).front());
  }
  /// Batched FetchPosts: one result per id, in order, each failing
  /// independently (a transport failure loses that TDS's fetch only). Call
  /// sites batch unconditionally; the transport decides how many frames
  /// that takes (SsiClient) or how it fans out per shard (ShardedSsiClient).
  virtual std::vector<Result<std::vector<ssi::QueryPost>>> FetchPostsBatch(
      const std::vector<uint64_t>& tds_ids) = 0;
  virtual Status Acknowledge(uint64_t tds_id, uint64_t query_id) = 0;
  /// Retired window probe (MsgType 5): the querier counts the serves itself.
  /// No SSI serves it and the engine never calls it.
  virtual Result<uint64_t> NumAcknowledged(uint64_t /*query_id*/) {
    return Status::Unimplemented("NumAcknowledged is retired");
  }

  // ---- Collection phase ----
  /// Retired window probe (MsgType 6): the querier enforces SIZE itself.
  /// No SSI serves it and the engine never calls it.
  virtual Result<bool> SizeReached(uint64_t /*query_id*/) {
    return Status::Unimplemented("SizeReached is retired");
  }
  /// Uploads one TDS's contribution and acknowledges the query in one
  /// exchange. Returns whether the contribution was accepted: an honest SSI
  /// accepts every upload until the collection is taken. A one-upload
  /// UploadCollectionBatch: the same single-call frame on the wire.
  virtual Result<bool> UploadCollection(
      uint64_t query_id, uint64_t tds_id,
      const std::vector<ssi::EncryptedItem>& items) {
    return std::move(
        UploadCollectionBatch({CollectionUpload{query_id, tds_id, items}})
            .front());
  }
  /// Batched UploadCollection: one accept bit per upload, in order. The
  /// uploads are applied in vector order, so results are bit-identical to
  /// calling UploadCollection once per upload.
  virtual std::vector<Result<bool>> UploadCollectionBatch(
      const std::vector<CollectionUpload>& uploads) = 0;
  virtual Result<std::vector<ssi::EncryptedItem>> TakeCollected(
      uint64_t query_id) = 0;

  // ---- Aggregation / filtering rounds ----
  virtual Status StagePartition(uint64_t query_id, uint64_t token,
                                const ssi::Partition& partition) = 0;
  virtual Result<ssi::Partition> FetchPartition(uint64_t query_id,
                                                uint64_t token) = 0;
  virtual Status UploadRoundOutput(
      uint64_t query_id, uint64_t token,
      const std::vector<ssi::EncryptedItem>& items) = 0;
  virtual Result<std::vector<ssi::EncryptedItem>> TakeRoundOutput(
      uint64_t query_id, uint64_t token) = 0;
  virtual Status ObserveAggregation(
      uint64_t query_id, const std::vector<ssi::EncryptedItem>& items) = 0;
  /// Retired report (MsgType 14): the node counts the filtering leakage
  /// when the result is delivered. No SSI serves it and the engine never
  /// calls it.
  virtual Status ObserveFiltering(
      uint64_t /*query_id*/,
      const std::vector<ssi::EncryptedItem>& /*items*/) {
    return Status::Unimplemented("ObserveFiltering is retired");
  }

  // ---- Key epoch distribution (dynamic key mode, docs/KEYS.md) ----
  /// Publishes the latest encoded keys::EpochBlock. Opaque bytes at this
  /// layer; later posts overwrite earlier ones.
  virtual Status PostEpochBlock(const Bytes& block) = 0;
  /// Fetches the latest published block. `tds_id` identifies the caller for
  /// shard routing and fault keying only. NotFound before the first post.
  virtual Result<Bytes> FetchEpochBlock(uint64_t tds_id) = 0;

  // ---- Result delivery / teardown ----
  virtual Status DeliverResult(
      uint64_t query_id, const std::vector<ssi::EncryptedItem>& items) = 0;
  virtual Result<std::vector<ssi::EncryptedItem>> FetchResult(
      uint64_t query_id) = 0;
  virtual Result<ssi::AdversaryView> GetAdversaryView(uint64_t query_id) = 0;
  virtual Status Retire(uint64_t query_id) = 0;
};

}  // namespace tcells::net

#endif  // TCELLS_NET_SSI_API_H_
