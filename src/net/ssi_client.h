// SsiClient: the typed client of the SSI RPC surface. Every querier/TDS
// interaction the protocol engine performs goes through one of these methods,
// which encode the request, push it through a Channel, retry transport-level
// failures (Unavailable / DeadlineExceeded) with bounded exponential backoff,
// and decode the reply envelope back into the application Status/value.
//
// Submission is asynchronous underneath: CallAsync enqueues an encoded
// request and returns a completion token; Await blocks until that call's
// reply arrives. Queued calls are flushed as multi-call batch frames
// (ssi_wire.h) under a flush policy — at most BatchOptions::max_calls_per_frame
// calls / max_bytes_per_frame payload bytes per frame, and any Await forces
// the queue out immediately. Replies are matched to calls by correlation ID,
// so a server may complete them out of order; every retry re-correlates the
// whole frame with fresh IDs and replies carrying stale or duplicate IDs are
// dropped. Up to max_inflight_frames frames can be on the wire at once
// (each on its own channel), so many threads sharing one client pipeline
// their calls instead of serializing behind a single exchange.
//
// With max_calls_per_frame == 1 (the default) every call travels exactly as
// the version-1 single-call wire format — byte-identical frames, metrics and
// retry behaviour to the pre-batching client.
//
// Thread-safety: all methods may be called concurrently. Application-level
// errors returned by the SSI (NotFound, InvalidArgument, ...) are never
// retried — only the transport's own failures are.
#ifndef TCELLS_NET_SSI_CLIENT_H_
#define TCELLS_NET_SSI_CLIENT_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "common/clock.h"
#include "net/channel.h"
#include "net/ssi_api.h"
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

/// Flush policy of the batched submission path (docs/TRANSPORT.md "Batched &
/// pipelined exchanges").
struct BatchOptions {
  /// Calls coalesced into one physical frame, at most. 1 = batching off:
  /// every call travels as a bare single-call frame (the legacy wire format).
  size_t max_calls_per_frame = 1;
  /// Payload bytes coalesced into one frame, at most (a single oversized
  /// call still ships alone).
  size_t max_bytes_per_frame = 1u << 20;
  /// Frames on the wire at once, each on its own channel. Extra flushers
  /// wait for a slot.
  size_t max_inflight_frames = 4;
};

class SsiClient : public SsiApi {
 public:
  /// Completion token of one asynchronous call; redeem with Await exactly
  /// once.
  using CallToken = uint64_t;

  /// `transport` and `metrics` (optional) are borrowed and must outlive the
  /// client. Channels are dialed lazily and re-dialed after any transport
  /// failure (Unavailable or DeadlineExceeded) — an abandoned call's reply
  /// must never be consumed by a later exchange on the same channel.
  explicit SsiClient(Transport* transport, RetryPolicy policy = {},
                     obs::MetricsRegistry* metrics = nullptr,
                     BatchOptions batch = {})
      : transport_(transport),
        policy_(policy),
        batch_(batch),
        metrics_(metrics) {}

  // ---- Generic async submission ----

  /// Enqueues one encoded request (u8 MsgType + fields) for the next frame;
  /// never blocks. The call is flushed when the pending frame fills
  /// (max_calls/max_bytes) or any Await runs.
  CallToken CallAsync(Bytes request);
  /// Blocks until `token`'s reply is in, flushing the queue as needed, and
  /// returns the decoded reply body (or the application/transport error).
  /// Consumes the token.
  Result<Bytes> Await(CallToken token);

  // ---- Querybox ----
  Status PostGlobal(const ssi::QueryPost& post) override;
  Status PostPersonal(uint64_t tds_id, const ssi::QueryPost& post) override;
  Result<std::vector<ssi::QueryPost>> FetchPosts(uint64_t tds_id) override;
  std::vector<Result<std::vector<ssi::QueryPost>>> FetchPostsBatch(
      const std::vector<uint64_t>& tds_ids) override;
  Status Acknowledge(uint64_t tds_id, uint64_t query_id) override;
  Result<uint64_t> NumAcknowledged(uint64_t query_id) override;

  // ---- Key epoch distribution ----
  Status PostEpochBlock(const Bytes& block) override;
  Result<Bytes> FetchEpochBlock(uint64_t tds_id) override;
  /// FetchEpochBlock for many TDSs, shipped frame by frame in input order
  /// (ExchangeOrdered); one reply per id. Every reply carries the whole
  /// block, so a frame holds no more calls than keep its replies within
  /// max_bytes_per_frame, sized by the last block this client posted or
  /// fetched. With batching off it is the serial call sequence.
  std::vector<Result<Bytes>> FetchEpochBlockBatch(
      const std::vector<uint64_t>& tds_ids);

  // ---- Collection phase ----
  Result<bool> SizeReached(uint64_t query_id) override;
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
  /// Two-phase: downloads the round output (a retried fetch after a lost
  /// reply re-downloads the same bytes), then acks so the SSI erases the
  /// token's transfer state. The ack completes before this returns: the
  /// next round reuses the token, and an ack landing after that round's
  /// stage or upload would erase the new transfer state.
  Result<std::vector<ssi::EncryptedItem>> TakeRoundOutput(
      uint64_t query_id, uint64_t token) override;
  Status ObserveAggregation(
      uint64_t query_id, const std::vector<ssi::EncryptedItem>& items) override;
  Status ObserveFiltering(
      uint64_t query_id, const std::vector<ssi::EncryptedItem>& items) override;

  // ---- Result delivery / teardown ----
  Status DeliverResult(
      uint64_t query_id, const std::vector<ssi::EncryptedItem>& items) override;
  Result<std::vector<ssi::EncryptedItem>> FetchResult(
      uint64_t query_id) override;
  Result<ssi::AdversaryView> GetAdversaryView(uint64_t query_id) override;
  Status Retire(uint64_t query_id) override;

  const RetryPolicy& policy() const { return policy_; }
  const BatchOptions& batch_options() const { return batch_; }
  bool batching_enabled() const { return batch_.max_calls_per_frame > 1; }

 private:
  /// One pending call: its encoded request until dispatch, its reply
  /// envelope (or transport error) once the frame completes.
  struct Pending {
    Bytes request;
    bool dispatched = false;
    bool done = false;
    Result<Bytes> reply{Status::Unavailable("call not completed")};
  };

  /// One sync RPC: enqueue + await (the pre-batching Call surface).
  Result<Bytes> Call(Bytes request);
  CallToken EnqueueLocked(Bytes request);
  /// Seals up to one frame's worth of queued calls and performs the
  /// exchange (lock released during I/O). Requires a free in-flight slot.
  void DispatchChunk(std::unique_lock<std::mutex>* lock);
  /// The physical exchange + retry loop for one sealed frame; returns one
  /// reply envelope (or error) per request, in order. Runs unlocked.
  /// `channel` is this flusher's private connection — dialed lazily, reset on
  /// transport failure, and handed back for pooling when the exchange ends.
  std::vector<Result<Bytes>> ExchangeFrame(const std::vector<Bytes>& requests,
                                           std::unique_ptr<Channel>* channel);
  /// Ships `requests` as a sequence of frames from the calling thread, one
  /// frame at a time in submission order, bypassing the shared queue. The
  /// batch methods whose server-side effects are order-sensitive (collection
  /// uploads fix the hub's storage order) use this instead of CallAsync, so
  /// a concurrent flusher can never reorder them across frames. Returns the
  /// decoded reply body (or error) per request, in order. A non-zero
  /// `reply_bytes` (the expected size of each reply) also caps the calls per
  /// frame so their replies fit max_bytes_per_frame.
  std::vector<Result<Bytes>> ExchangeOrdered(std::vector<Bytes> requests,
                                             size_t reply_bytes = 0);

  Transport* transport_;
  RetryPolicy policy_;
  BatchOptions batch_;
  obs::MetricsRegistry* metrics_;

  std::mutex mu_;
  std::condition_variable cv_;
  uint64_t next_token_ = 1;
  std::atomic<uint64_t> next_correlation_{1};
  std::map<CallToken, Pending> calls_;
  std::deque<CallToken> queue_;
  size_t inflight_frames_ = 0;
  size_t inflight_calls_ = 0;
  /// Idle channel pool, one per concurrent frame at most.
  std::vector<std::unique_ptr<Channel>> channels_;
  /// Size of the last epoch block posted or fetched (FetchEpochBlockBatch).
  std::atomic<size_t> epoch_block_bytes_{0};
};

}  // namespace tcells::net

#endif  // TCELLS_NET_SSI_CLIENT_H_
