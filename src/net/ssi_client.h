// SsiClient: the typed client of the SSI RPC surface. Every querier/TDS
// interaction the protocol engine performs goes through one of these methods,
// which encode the request, push it through a Channel, retry transport-level
// failures (Unavailable / DeadlineExceeded) with bounded exponential backoff,
// and decode the reply envelope back into the application Status/value.
//
// There is one exchange path. Exchange ships a caller's requests from the
// calling thread as a sequence of batch frames (ssi_wire.h), one frame at a
// time, each holding at most BatchOptions::max_calls_per_frame calls and
// max_bytes_per_frame payload bytes; a single call is a frame with a count of
// 1. A caller's calls therefore reach the SSI in submission order, and a
// call's reply is in hand before its successor leaves. Replies are matched
// to calls by correlation ID, so a server may complete a frame's calls out of
// order; every retry re-correlates the whole frame with fresh IDs, and
// replies carrying stale or duplicate IDs are dropped. Concurrent callers
// each run their own exchange on their own channel (pooled between
// exchanges, dialed when the pool is empty).
//
// Thread-safety: all methods may be called concurrently. Application-level
// errors returned by the SSI (NotFound, InvalidArgument, ...) are never
// retried — only the transport's own failures are.
#ifndef TCELLS_NET_SSI_CLIENT_H_
#define TCELLS_NET_SSI_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/clock.h"
#include "net/channel.h"
#include "net/ssi_api.h"
#include "net/ssi_wire.h"
#include "obs/metrics.h"
#include "ssi/messages.h"
#include "ssi/ssi.h"

namespace tcells::net {

/// Retry schedule for transport-level failures. Attempt k (0-based) sleeps
/// `min(backoff_seconds * 2^k, backoff_cap_seconds)` of wall clock before
/// retrying; after `max_attempts` total attempts the last error is returned
/// and the caller decides whether the query degrades or fails.
struct RetryPolicy {
  size_t max_attempts = 3;
  double deadline_seconds = 5.0;
  double backoff_seconds = 0.001;
  double backoff_cap_seconds = 0.25;
  /// Clock the backoff sleeps go through. Null = the real wall clock; tests
  /// and deterministic campaigns inject a VirtualClock so retries complete
  /// instantly and the backoff schedule is assertable exactly.
  Clock* clock = nullptr;
};

/// How Exchange splits a request sequence into frames (docs/TRANSPORT.md
/// "Batched exchanges").
struct BatchOptions {
  /// Calls per frame, at most. 1 = every call in a frame of its own.
  size_t max_calls_per_frame = 1;
  /// Payload bytes per frame, at most (a single oversized call still ships
  /// alone).
  size_t max_bytes_per_frame = 1u << 20;
};

class SsiClient : public SsiApi {
 public:
  /// `transport` and `metrics` (optional) are borrowed and must outlive the
  /// client. Channels are dialed lazily and re-dialed after any transport
  /// failure (Unavailable or DeadlineExceeded) — an abandoned call's reply
  /// must never be consumed by a later exchange on the same channel.
  explicit SsiClient(Transport* transport, RetryPolicy policy = {},
                     obs::MetricsRegistry* metrics = nullptr,
                     BatchOptions batch = {});

  /// Ships `requests` (each an encoded u8 MsgType + fields) from the calling
  /// thread as consecutive frames of at most max_calls_per_frame calls and
  /// max_bytes_per_frame payload bytes, each frame's reply awaited before
  /// the next frame leaves. A non-zero `reply_bytes` (the expected size of
  /// each reply) also caps the calls per frame so their replies fit
  /// max_bytes_per_frame. Returns the decoded reply body (or the
  /// application/transport error) per request, in order.
  std::vector<Result<Bytes>> Exchange(std::vector<Bytes> requests,
                                      size_t reply_bytes = 0);

  // ---- Querybox ----
  Status PostGlobal(const ssi::QueryPost& post) override;
  Status PostPersonal(uint64_t tds_id, const ssi::QueryPost& post) override;
  Result<std::vector<ssi::QueryPost>> FetchPosts(uint64_t tds_id) override;
  std::vector<Result<std::vector<ssi::QueryPost>>> FetchPostsBatch(
      const std::vector<uint64_t>& tds_ids) override;
  Status Acknowledge(uint64_t tds_id, uint64_t query_id) override;

  // ---- Key epoch distribution ----
  Status PostEpochBlock(const Bytes& block) override;
  Result<Bytes> FetchEpochBlock(uint64_t tds_id) override;
  /// FetchEpochBlock for many TDSs in one Exchange; one reply per id. Every
  /// reply carries the whole block, so a frame holds no more calls than keep
  /// its replies within max_bytes_per_frame, sized by the last block this
  /// client posted or fetched.
  std::vector<Result<Bytes>> FetchEpochBlockBatch(
      const std::vector<uint64_t>& tds_ids);

  // ---- Collection phase ----
  Result<bool> UploadCollection(
      uint64_t query_id, uint64_t tds_id,
      const std::vector<ssi::EncryptedItem>& items) override;
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
  /// A plain read of the token's round output: a retry after a lost reply
  /// re-downloads the same bytes. The node drops them when the token is
  /// staged again or the query retires.
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
  /// One RPC: Exchange({request})[0].
  Result<Bytes> Call(Bytes request);
  /// The physical exchange + retry loop for one frame; returns one reply
  /// envelope (or error) per call, in order. Each attempt assigns the calls
  /// fresh correlation IDs. `channel` is the caller's connection — dialed
  /// lazily, reset on transport failure, and handed back for pooling when the
  /// exchange ends.
  std::vector<Result<Bytes>> ExchangeFrame(std::vector<BatchCall> calls,
                                           std::unique_ptr<Channel>* channel);

  Transport* transport_;
  RetryPolicy policy_;
  BatchOptions batch_;
  obs::MetricsRegistry* metrics_;
  /// The net.* instruments of `metrics_` that every frame records,
  /// registered once at construction (null without a registry). The
  /// failure-path counters are looked up by name when they fire.
  obs::Counter* frames_sent_ = nullptr;
  obs::Counter* calls_sent_ = nullptr;
  obs::Counter* bytes_sent_ = nullptr;
  obs::Counter* frames_received_ = nullptr;
  obs::Counter* bytes_received_ = nullptr;
  obs::Histogram* frame_bytes_ = nullptr;
  obs::Histogram* calls_per_frame_ = nullptr;
  obs::Histogram* inflight_per_frame_ = nullptr;

  std::atomic<uint64_t> next_correlation_{1};
  /// Calls inside frames on the wire, across every caller.
  std::atomic<size_t> inflight_calls_{0};
  /// Guards channels_, the idle channel pool.
  std::mutex mu_;
  std::vector<std::unique_ptr<Channel>> channels_;
  /// Size of the last epoch block posted or fetched (FetchEpochBlockBatch).
  std::atomic<size_t> epoch_block_bytes_{0};
};

}  // namespace tcells::net

#endif  // TCELLS_NET_SSI_CLIENT_H_
