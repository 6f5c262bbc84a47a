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
#include <vector>

#include "common/bytes.h"
#include "common/result.h"

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
  kFetchEpochBlock = 21,  ///< u64 tds_id → encoded keys::EpochBlock
};

/// Reply envelope: u8 StatusCode + body (OK) or message string (error).
Bytes EncodeReplyOk(const Bytes& body);
Bytes EncodeReplyError(const Status& status);

/// Unwraps a reply envelope: the body on OK (the envelope's own buffer, so
/// a moved-in envelope is unwrapped without a copy), the reconstructed
/// application Status otherwise. Corruption when the envelope itself is
/// malformed.
Result<Bytes> DecodeReply(Bytes reply);

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

/// One logical call (or its reply envelope) inside a batch frame: a u8
/// MsgType request on the way out, a u8-status reply envelope on the way
/// back.
struct BatchCall {
  uint64_t correlation_id = 0;
  Bytes payload;
};

/// Encodes `calls` as one batch frame:
///   u8 kBatchMagic, u8 version, u32 count,
///   count x { u64 correlation_id, u32 payload_len, payload }.
/// The same envelope carries requests and replies.
Bytes EncodeBatchFrame(const std::vector<BatchCall>& calls);

/// Decodes a batch frame. Corruption on a bad magic/version, a count that
/// exceeds kMaxCallsPerBatch or the bytes actually present (checked before
/// any allocation), a payload length overrunning the frame, or trailing
/// bytes after the last call.
Result<std::vector<BatchCall>> DecodeBatchFrame(const Bytes& frame);

}  // namespace tcells::net

#endif  // TCELLS_NET_SSI_WIRE_H_
