// Request/reply wire schema for the SSI RPC surface. Every call is a u8
// message type followed by type-specific fields; every reply envelope is a
// u8 status code followed by the body (on OK) or a message string (on error).
// Item vectors ("Items" below) travel in the one item-vector encoding of
// ssi/messages.h: u32 count, then per item a u8 tag flag, the u32-length tag
// when flagged, and the u32-length blob. The node validates them with
// ssi::ItemScanner, the reader every client-side decode is built on, and
// stores and serves the validated bytes as they are.
//
// Application-level statuses (NotFound, InvalidArgument, ...) ride INSIDE an
// OK transport exchange as reply envelopes; only transport-level failures
// (Unavailable, DeadlineExceeded) come from the channel itself. The client
// retries the latter and never the former.
//
// One frame format (docs/TRANSPORT.md "Wire format"): every request and reply
// travels inside a batch envelope, and a single call is a batch of one. Each
// call carries a u64 correlation ID; replies are matched by ID, never by
// position, so a server may complete them out of order.
#ifndef TCELLS_NET_SSI_WIRE_H_
#define TCELLS_NET_SSI_WIRE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "net/frame.h"

namespace tcells::net {

/// Retired numbers stay retired: 5 and 6 (the window probes NumAcknowledged
/// and SizeReached), 14 (ObserveFiltering) and 19 (AckRoundOutput) are never
/// reused. A node answers them like any unknown type, with Corruption.
enum class MsgType : uint8_t {
  kPostGlobal = 1,        ///< QueryPost → ()
  kPostPersonal = 2,      ///< u64 tds_id, QueryPost → ()
  kFetchPosts = 3,        ///< u64 tds_id → u32 n, n × (u32-len QueryPost)
  kAcknowledge = 4,       ///< u64 tds_id, u64 query_id → ()
  kUploadCollection = 7,  ///< u64 query_id, u64 tds_id, Items → u8 accepted
  kTakeCollected = 8,     ///< u64 query_id → Items
  kStagePartition = 9,    ///< u64 query_id, u64 token, Items → ()
  kFetchPartition = 10,   ///< u64 query_id, u64 token → Items
  kUploadRoundOutput = 11,///< u64 query_id, u64 token, Items → ()
  kTakeRoundOutput = 12,  ///< u64 query_id, u64 token → Items (re-readable)
  kObserveAggregation = 13,  ///< u64 query_id, Items → ()
  kDeliverResult = 15,    ///< u64 query_id, Items → ()
  kFetchResult = 16,      ///< u64 query_id → Items
  kAdversaryView = 17,    ///< u64 query_id → AdversaryView
  kRetire = 18,           ///< u64 query_id → ()
  kPostEpochBlock = 20,   ///< encoded keys::EpochBlock → () (opaque to SSI)
  /// u64 tds_id, u64 held_tag → encoded keys::EpochBlock, or () when
  /// held_tag is the block's ssi::EpochBlockTag (0: none held)
  kFetchEpochBlock = 21,
};

/// Appends a reply envelope to `out`: the OK code and `body`, or the
/// status's code and its message string.
void AppendReplyOk(Bytes* out, std::span<const uint8_t> body);
void AppendReplyError(Bytes* out, const Status& status);
/// A reply envelope as a buffer of its own (tests and tools).
Bytes EncodeReplyOk(std::span<const uint8_t> body);
Bytes EncodeReplyError(const Status& status);

/// Unwraps a reply envelope: the body on OK, as a view into `envelope`, the
/// reconstructed application Status otherwise. Corruption when the envelope
/// itself is malformed.
Result<std::span<const uint8_t>> DecodeReply(std::span<const uint8_t> envelope);

// ---- Multi-call batch envelope ----

/// Leading byte of a batch frame. 0xB5 collides with no MsgType (1..21) and
/// no StatusCode (0..13), so a bare call or envelope is never mistaken for a
/// frame.
inline constexpr uint8_t kBatchMagic = 0xB5;
/// Wire version of the batch envelope; bumped on incompatible layout change.
inline constexpr uint8_t kBatchVersion = 1;
/// Hard cap on calls per batch frame, far above any client flush policy.
/// Enforced at decode before any allocation.
inline constexpr uint32_t kMaxCallsPerBatch = 4096;
/// Bytes of the frame header (magic, version, count) and of each call's
/// header (correlation ID, payload length).
inline constexpr size_t kBatchHeaderSize = 6;
inline constexpr size_t kBatchCallHeaderSize = 12;

/// One logical call (or its reply envelope) inside a batch frame: a u8
/// MsgType request on the way out, a u8-status reply envelope on the way
/// back.
struct BatchCall {
  uint64_t correlation_id = 0;
  FrameBytes payload;
};

/// Writes one batch frame in place:
///   u8 kBatchMagic, u8 version, u32 count,
///   count x { u64 correlation_id, u32 payload_len, payload }.
/// Open() writes a call's correlation ID and reserves its u32 length; the
/// caller appends the payload to the frame buffer itself, and Close()
/// patches the length. Finish() patches the count. The same envelope
/// carries requests and replies.
class BatchFrameWriter {
 public:
  /// Starts a frame in `frame`, which must be empty.
  explicit BatchFrameWriter(Bytes* frame);

  /// Opens the next call: its payload is everything appended to the frame
  /// buffer until Close() or Abandon().
  void Open(uint64_t correlation_id);
  /// Bytes appended to the open call so far.
  size_t open_payload_size() const {
    return frame_->size() - open_ - kBatchCallHeaderSize;
  }
  /// Drops the open call, header included: the frame ends before it.
  void Abandon() { frame_->resize(open_); }
  /// Patches the open call's payload length.
  void Close();
  /// Patches the count of closed calls; the frame is complete.
  void Finish();

 private:
  Bytes* frame_;
  size_t open_ = 0;
  uint32_t count_ = 0;
};

/// Reads a batch frame's calls as views into the frame. Open() validates the
/// whole frame before a call is read — a bad magic or version, a count that
/// is 0, exceeds kMaxCallsPerBatch or the bytes actually present (checked
/// before anything else), a payload length overrunning the frame, or
/// trailing bytes after the last call are Corruption — so a frame is either
/// read whole or not at all, and Next() cannot fail.
class BatchFrameReader {
 public:
  static Result<BatchFrameReader> Open(std::span<const uint8_t> frame);

  uint32_t count() const { return count_; }
  /// The next of count() calls.
  BatchCall Next();

 private:
  BatchFrameReader(std::span<const uint8_t> frame, uint32_t count)
      : frame_(frame), count_(count) {}

  std::span<const uint8_t> frame_;
  size_t pos_ = kBatchHeaderSize;
  uint32_t count_;
};

/// Writes consecutive correlation IDs from `first` into the calls of a
/// frame BatchFrameWriter wrote, in place.
void SetCorrelationIds(Bytes* frame, uint64_t first);

/// Encodes `calls` as one batch frame through BatchFrameWriter.
Bytes EncodeBatchFrame(const std::vector<BatchCall>& calls);

/// Every call of a batch frame through BatchFrameReader, as views into
/// `frame`.
Result<std::vector<BatchCall>> DecodeBatchFrame(
    std::span<const uint8_t> frame);

}  // namespace tcells::net

#endif  // TCELLS_NET_SSI_WIRE_H_
