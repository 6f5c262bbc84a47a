// SsiClient: the typed client of the SSI RPC surface. Every querier/TDS
// interaction the protocol engine performs goes through one of these methods,
// which encode the request, push it through a Channel, retry transport-level
// failures (Unavailable / DeadlineExceeded) with bounded exponential backoff,
// and decode the reply envelope back into the application Status/value.
//
// There is one exchange path. It ships a caller's calls from the calling
// thread as a sequence of batch frames (ssi_wire.h), one frame at a time,
// each holding at most BatchOptions::max_calls_per_frame calls and
// kMaxBytesPerFrame payload bytes; a single call is a frame with a count of
// 1. A caller's calls therefore reach the SSI in submission order, and a
// call's reply is in hand before its successor leaves. A frame is the only
// buffer a call lives in, in each direction: the typed methods encode each
// call straight into the outgoing frame, and read each reply body in place
// in the reply frame, which the item pulls adopt as their items' owner.
// Replies are matched to calls by correlation ID, so a server may complete a
// frame's calls out of order; every retry re-correlates the whole frame with
// fresh IDs, and replies carrying stale or duplicate IDs are dropped.
// Concurrent callers each run their own exchange on their own channel
// (pooled between exchanges, dialed when the pool is empty).
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
#include <optional>
#include <span>
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

/// Payload bytes per frame, at most (a single oversized call still ships
/// alone).
inline constexpr size_t kMaxBytesPerFrame = 1u << 20;

/// How Exchange splits a request sequence into frames (docs/TRANSPORT.md
/// "Batched exchanges").
struct BatchOptions {
  /// Calls per frame, at most. 1 = every call in a frame of its own.
  size_t max_calls_per_frame = 1;
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
  /// kMaxBytesPerFrame payload bytes, each frame's reply awaited before
  /// the next frame leaves. A non-zero `reply_bytes` (the expected size of
  /// each reply) also caps the calls per frame so their replies fit
  /// kMaxBytesPerFrame. Returns the decoded reply body (or the
  /// application/transport error) per request, in order, each body copied
  /// out of the reply frame. The typed methods below take the same path
  /// without the copies.
  std::vector<Result<Bytes>> Exchange(const std::vector<Bytes>& requests,
                                      size_t reply_bytes = 0);

  // ---- Querybox ----
  Status PostGlobal(const ssi::QueryPost& post) override;
  Status PostPersonal(uint64_t tds_id, const ssi::QueryPost& post) override;
  std::vector<Result<std::vector<ssi::QueryPost>>> FetchPostsBatch(
      const std::vector<uint64_t>& tds_ids) override;
  Status Acknowledge(uint64_t tds_id, uint64_t query_id) override;

  // ---- Key epoch distribution ----
  Status PostEpochBlock(const Bytes& block) override;
  /// Holds no block: sends a held tag of 0.
  Result<Bytes> FetchEpochBlock(uint64_t tds_id) override;
  /// Conditional fetches for many TDSs in one Exchange; one reply per id:
  /// the block, or an empty body when held_tags[i] is its
  /// ssi::EpochBlockTag. A reply may carry the whole block, so a frame holds
  /// no more calls than keep its replies within kMaxBytesPerFrame, sized
  /// by the last block this client posted or fetched.
  std::vector<Result<Bytes>> FetchEpochBlockBatch(
      const std::vector<uint64_t>& tds_ids,
      const std::vector<uint64_t>& held_tags);

  // ---- Collection phase ----
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
  class ReplyFrame;
  /// A call's reply envelope in the reply frame; nullopt until matched.
  using Envelopes = std::vector<std::optional<std::span<const uint8_t>>>;

  /// The exchange path. Ships `n` calls as Exchange does; `encode(i, frame)`
  /// appends call i's payload (u8 MsgType + fields) to the frame being
  /// written, and `decode(i, body, reply)` receives call i's reply body — a
  /// view into the reply frame `reply`, valid for the call — or its
  /// application or transport error, for i = 0..n-1 in order. Defined in
  /// ssi_client.cc, its one user.
  template <typename Encode, typename Decode>
  void Run(size_t n, size_t reply_bytes, const Encode& encode,
           const Decode& decode);
  /// One call: its Status, the body ignored.
  template <typename Encode>
  Status CallStatus(const Encode& encode);
  /// One call whose body `parse(body, reply)` reads into a T.
  template <typename T, typename Encode, typename Parse>
  Result<T> CallOne(const Encode& encode, const Parse& parse);
  /// The physical exchange + retry loop for the `n` calls of `frame`. Each
  /// attempt writes fresh correlation IDs into the frame. On success,
  /// `reply` holds the reply frame and `envelopes` each call's envelope in
  /// it; a non-OK return is the error every call of the frame gets.
  /// `channel` is the caller's connection — dialed lazily, reset on
  /// transport failure, and handed back for pooling when the exchange ends.
  Status ExchangeFrame(Bytes* frame, size_t n,
                       std::unique_ptr<Channel>* channel, ReplyFrame* reply,
                       Envelopes* envelopes);

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
  /// A connection and the buffers an exchange on it reuses: the request
  /// frame and the reply envelopes' views. Pooled between exchanges; a
  /// request frame above kKeptFrameCapacity is freed rather than kept.
  struct Link {
    std::unique_ptr<Channel> channel;
    Bytes frame;
    Envelopes envelopes;
  };
  static constexpr size_t kKeptFrameCapacity = 1u << 20;
  /// Guards links_, the idle link pool.
  std::mutex mu_;
  std::vector<Link> links_;
  /// Size of the last epoch block posted or fetched (FetchEpochBlockBatch).
  std::atomic<size_t> epoch_block_bytes_{0};
};

}  // namespace tcells::net

#endif  // TCELLS_NET_SSI_CLIENT_H_
