#include "net/frame.h"

#include <algorithm>
#include <cstring>
#include <utility>

namespace tcells::net {

Result<size_t> FrameReceiver::Consume(std::span<const uint8_t> bytes) {
  size_t used = 0;
  if (have_ < 4) {
    used = std::min(bytes.size(), 4 - have_);
    std::memcpy(header_ + have_, bytes.data(), used);
    have_ += used;
    if (have_ < 4) return used;
    const uint32_t len = static_cast<uint32_t>(header_[0]) |
                         (static_cast<uint32_t>(header_[1]) << 8) |
                         (static_cast<uint32_t>(header_[2]) << 16) |
                         (static_cast<uint32_t>(header_[3]) << 24);
    if (len > kMaxFramePayload) {
      // Reject before any allocation: the peer claimed a payload the
      // protocol never produces, so this is either corruption or an attack.
      return Status::Corruption("frame length exceeds cap");
    }
    len_ = len;
  }
  const size_t received = have_ - 4;
  const size_t n = std::min(bytes.size() - used, len_ - received);
  if (n == 0) return used;
  Grow(received + n);
  std::memcpy(payload_.data() + received, bytes.data() + used, n);
  have_ += n;
  return used + n;
}

std::span<uint8_t> FrameReceiver::Space() {
  if (have_ < 4 || complete()) return {};
  const size_t received = have_ - 4;
  if (received == payload_.size()) {
    if (received >= max_buffer_) return {};
    Grow(received + 1);
  }
  return std::span<uint8_t>(payload_).subspan(received);
}

void FrameReceiver::Grow(size_t need) {
  if (need <= payload_.size()) return;
  const size_t target =
      std::min({payload_.empty() ? kFirstChunk : len_, len_, max_buffer_});
  payload_.resize(std::max(need, target));
}

Bytes FrameReceiver::TakeFrame() {
  Bytes payload = std::move(payload_);
  payload_ = Bytes();
  have_ = 0;
  len_ = 0;
  return payload;
}

}  // namespace tcells::net
