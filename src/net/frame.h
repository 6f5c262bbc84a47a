// Length-prefixed message framing for the SSI transport layer. Every message
// crossing the TDS↔SSI boundary travels as one frame: a u32 little-endian
// payload length followed by the payload bytes. The receiver enforces the
// same hostile-length discipline as the ByteReader count getters: a length
// prefix above the hard cap is rejected *before* any allocation, and a legal
// length's payload is allocated at most a fixed chunk ahead of the bytes
// that actually arrived, so a malicious peer cannot drive oversized reserves
// with a 4-byte header.
#ifndef TCELLS_NET_FRAME_H_
#define TCELLS_NET_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/bytes.h"
#include "common/result.h"

namespace tcells::net {

/// Hard upper bound on one frame's payload. Generously above any partition
/// the engine produces, far below what a forged 32-bit length could claim.
inline constexpr size_t kMaxFramePayload = 64u << 20;  // 64 MiB

/// Bytes a frame of `payload_size` occupies on the wire.
inline constexpr size_t FrameWireSize(size_t payload_size) {
  return 4 + payload_size;
}

/// Bytes inside a frame: a view, valid while the frame is unchanged. It
/// cannot be made from a temporary buffer, which would leave it dangling,
/// and a caller that keeps the bytes past the frame copies them into an
/// owning Bytes explicitly (`Bytes(view)`), so no copy hides in an
/// assignment.
class FrameBytes : public std::span<const uint8_t> {
 public:
  using std::span<const uint8_t>::span;
  // NOLINTNEXTLINE(google-explicit-constructor)
  FrameBytes(std::span<const uint8_t> bytes)
      : std::span<const uint8_t>(bytes) {}
  FrameBytes(Bytes&&) = delete;
  explicit operator Bytes() const { return Bytes(begin(), end()); }
};

/// Reassembles frames from a byte stream (a socket). A receive that starts
/// a frame goes into a caller's scratch chunk and is handed to Consume(), so
/// the header and the start of the payload — a small frame whole — arrive
/// in one receive; the rest of a payload that did not fit is received
/// straight into the buffer that carries it from then on (Space(), then
/// Commit()). Neither reaches past the frame in progress, so pipelined
/// frames split exactly where they meet.
///
/// The payload buffer never outgrows max(`max_buffer`, the bytes that
/// arrived): the first allocation is min(length, kFirstChunk, max_buffer),
/// and once that chunk is full it jumps to min(length, max_buffer) — one
/// re-copy. A 4-byte header alone therefore never allocates more than
/// min(kFirstChunk, max_buffer), whatever length it announces.
class FrameReceiver {
 public:
  explicit FrameReceiver(size_t max_buffer = kMaxFramePayload)
      : max_buffer_(max_buffer) {}

  /// Takes bytes received into a scratch chunk, up to the end of the frame
  /// in progress, and returns how many it took. Corruption when they
  /// complete a length prefix above kMaxFramePayload — rejected before the
  /// payload is allocated; the stream can no longer be re-synchronized, so
  /// the connection must then be dropped. Call only while !complete().
  Result<size_t> Consume(std::span<const uint8_t> bytes);
  /// Where the rest of the payload in progress can be received in place:
  /// the allocated, not yet received part of its buffer. Empty in a header,
  /// once a frame is complete, and once max_buffer payload bytes arrived —
  /// the next receive then goes through Consume().
  std::span<uint8_t> Space();
  /// Records `n` bytes received into Space().
  void Commit(size_t n) { have_ += n; }
  /// Whether a whole frame has arrived.
  bool complete() const { return have_ >= 4 && have_ - 4 == len_; }
  /// The complete frame's payload; the receiver starts the next frame.
  Bytes TakeFrame();
  /// Bytes of the frame in progress received so far.
  size_t pending() const { return have_; }

 private:
  /// The first payload allocation: a frame up to this size is received
  /// into one buffer; a larger one pays one re-copy of this many bytes.
  static constexpr size_t kFirstChunk = 64u << 10;

  /// Sizes the payload buffer to hold at least `need` bytes.
  void Grow(size_t need);

  size_t max_buffer_;
  uint8_t header_[4] = {0, 0, 0, 0};
  /// Bytes of the frame in progress received so far, header included.
  size_t have_ = 0;
  /// The payload length the header announced.
  size_t len_ = 0;
  Bytes payload_;
};

}  // namespace tcells::net

#endif  // TCELLS_NET_FRAME_H_
