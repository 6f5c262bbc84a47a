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

}  // namespace

Bytes EncodeReplyOk(const Bytes& body) {
  Bytes out;
  out.reserve(1 + body.size());
  ByteWriter w(&out);
  w.PutU8(static_cast<uint8_t>(StatusCode::kOk));
  w.PutRaw(body.data(), body.size());
  return out;
}

Bytes EncodeReplyError(const Status& status) {
  Bytes out;
  ByteWriter w(&out);
  w.PutU8(static_cast<uint8_t>(status.code()));
  w.PutString(status.message());
  return out;
}

Bytes EncodeBatchFrame(const std::vector<BatchCall>& calls) {
  Bytes out;
  size_t total = 6;
  for (const BatchCall& call : calls) total += 12 + call.payload.size();
  out.reserve(total);
  ByteWriter w(&out);
  w.PutU8(kBatchMagic);
  w.PutU8(kBatchVersion);
  w.PutU32(static_cast<uint32_t>(calls.size()));
  for (const BatchCall& call : calls) {
    w.PutU64(call.correlation_id);
    w.PutBytes(call.payload);
  }
  return out;
}

Result<std::vector<BatchCall>> DecodeBatchFrame(const Bytes& frame) {
  ByteReader reader(frame);
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
  // single element is allocated.
  TCELLS_ASSIGN_OR_RETURN(uint32_t count, reader.GetCountU32(12));
  if (count == 0) return Status::Corruption("empty batch frame");
  if (count > kMaxCallsPerBatch) {
    return Status::Corruption("batch frame exceeds kMaxCallsPerBatch");
  }
  std::vector<BatchCall> calls;
  calls.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    BatchCall call;
    TCELLS_ASSIGN_OR_RETURN(call.correlation_id, reader.GetU64());
    TCELLS_ASSIGN_OR_RETURN(call.payload, reader.GetBytes());
    calls.push_back(std::move(call));
  }
  if (reader.remaining() != 0) {
    return Status::Corruption("trailing bytes after batch frame");
  }
  return calls;
}

Result<Bytes> DecodeReply(Bytes reply) {
  ByteReader reader(reply);
  TCELLS_ASSIGN_OR_RETURN(uint8_t code, reader.GetU8());
  if (static_cast<StatusCode>(code) == StatusCode::kOk) {
    // The body is the envelope minus its status byte: unwrapped in place.
    reply.erase(reply.begin());
    return reply;
  }
  TCELLS_ASSIGN_OR_RETURN(std::string msg, reader.GetString());
  Status decoded = StatusFromWire(code, std::move(msg));
  if (decoded.ok()) {
    // An error envelope must not carry the OK code twice removed.
    return Status::Corruption("error envelope with OK status code");
  }
  return decoded;
}

}  // namespace tcells::net
