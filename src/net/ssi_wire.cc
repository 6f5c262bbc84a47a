#include "net/ssi_wire.h"

namespace tcells::net {

namespace {

Status StatusFromWire(uint8_t code, std::string msg) {
  switch (static_cast<StatusCode>(code)) {
    case StatusCode::kOk:
      return Status::OK();
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(std::move(msg));
    case StatusCode::kNotFound:
      return Status::NotFound(std::move(msg));
    case StatusCode::kPermissionDenied:
      return Status::PermissionDenied(std::move(msg));
    case StatusCode::kCorruption:
      return Status::Corruption(std::move(msg));
    case StatusCode::kResourceExhausted:
      return Status::ResourceExhausted(std::move(msg));
    case StatusCode::kFailedPrecondition:
      return Status::FailedPrecondition(std::move(msg));
    case StatusCode::kUnimplemented:
      return Status::Unimplemented(std::move(msg));
    case StatusCode::kInternal:
      return Status::Internal(std::move(msg));
    case StatusCode::kUnavailable:
      return Status::Unavailable(std::move(msg));
    case StatusCode::kDeadlineExceeded:
      return Status::DeadlineExceeded(std::move(msg));
    case StatusCode::kCancelled:
      return Status::Cancelled(std::move(msg));
    case StatusCode::kOutOfRange:
      return Status::OutOfRange(std::move(msg));
  }
  return Status::Corruption("unknown status code in reply envelope");
}

uint32_t GetLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

uint64_t GetLe64(const uint8_t* p) {
  return GetLe32(p) | static_cast<uint64_t>(GetLe32(p + 4)) << 32;
}

void PutLe32(uint8_t* p, size_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}

void PutLe64(uint8_t* p, uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}

}  // namespace

void AppendReplyOk(Bytes* out, std::span<const uint8_t> body) {
  ByteWriter w(out);
  w.PutU8(static_cast<uint8_t>(StatusCode::kOk));
  w.PutRaw(body.data(), body.size());
}

void AppendReplyError(Bytes* out, const Status& status) {
  ByteWriter w(out);
  w.PutU8(static_cast<uint8_t>(status.code()));
  w.PutString(status.message());
}

Result<std::span<const uint8_t>> DecodeReply(
    std::span<const uint8_t> envelope) {
  ByteReader reader(envelope.data(), envelope.size());
  TCELLS_ASSIGN_OR_RETURN(uint8_t code, reader.GetU8());
  if (static_cast<StatusCode>(code) == StatusCode::kOk) {
    return envelope.subspan(1);
  }
  TCELLS_ASSIGN_OR_RETURN(std::string msg, reader.GetString());
  Status decoded = StatusFromWire(code, std::move(msg));
  if (decoded.ok()) {
    // An error envelope must not carry the OK code twice removed.
    return Status::Corruption("error envelope with OK status code");
  }
  return decoded;
}

BatchFrameWriter::BatchFrameWriter(Bytes* frame) : frame_(frame) {
  ByteWriter w(frame_);
  w.PutU8(kBatchMagic);
  w.PutU8(kBatchVersion);
  w.PutU32(0);  // the count, patched by Finish
}

void BatchFrameWriter::Open(uint64_t correlation_id) {
  open_ = frame_->size();
  ByteWriter w(frame_);
  w.PutU64(correlation_id);
  w.PutU32(0);  // the payload length, patched by Close
}

void BatchFrameWriter::Close() {
  PutLe32(frame_->data() + open_ + 8, open_payload_size());
  count_ += 1;
}

void BatchFrameWriter::Finish() { PutLe32(frame_->data() + 2, count_); }

Result<BatchFrameReader> BatchFrameReader::Open(
    std::span<const uint8_t> frame) {
  ByteReader reader(frame.data(), frame.size());
  TCELLS_ASSIGN_OR_RETURN(uint8_t magic, reader.GetU8());
  if (magic != kBatchMagic) {
    return Status::Corruption("not a batch frame");
  }
  TCELLS_ASSIGN_OR_RETURN(uint8_t version, reader.GetU8());
  if (version != kBatchVersion) {
    return Status::Corruption("unsupported batch envelope version");
  }
  // Each call is at least a u64 correlation id + u32 payload length; the
  // count getter rejects anything the remaining bytes cannot hold before a
  // single call is looked at.
  TCELLS_ASSIGN_OR_RETURN(uint32_t count,
                          reader.GetCountU32(kBatchCallHeaderSize));
  if (count == 0) return Status::Corruption("empty batch frame");
  if (count > kMaxCallsPerBatch) {
    return Status::Corruption("batch frame exceeds kMaxCallsPerBatch");
  }
  for (uint32_t i = 0; i < count; ++i) {
    TCELLS_RETURN_IF_ERROR(reader.Skip(8));
    TCELLS_ASSIGN_OR_RETURN(uint32_t len, reader.GetU32());
    TCELLS_RETURN_IF_ERROR(reader.Skip(len));
  }
  if (reader.remaining() != 0) {
    return Status::Corruption("trailing bytes after batch frame");
  }
  return BatchFrameReader(frame, count);
}

BatchCall BatchFrameReader::Next() {
  // Open() checked every header and length this reads.
  BatchCall call;
  call.correlation_id = GetLe64(frame_.data() + pos_);
  const size_t len = GetLe32(frame_.data() + pos_ + 8);
  call.payload = frame_.subspan(pos_ + kBatchCallHeaderSize, len);
  pos_ += kBatchCallHeaderSize + len;
  return call;
}

void SetCorrelationIds(Bytes* frame, uint64_t first) {
  const uint32_t count = GetLe32(frame->data() + 2);
  size_t pos = kBatchHeaderSize;
  for (uint32_t i = 0; i < count; ++i) {
    PutLe64(frame->data() + pos, first + i);
    pos += kBatchCallHeaderSize + GetLe32(frame->data() + pos + 8);
  }
}

}  // namespace tcells::net
