#include "common/status.h"

namespace tcells {

const char* StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kInvalidArgument: return "InvalidArgument";
    case StatusCode::kNotFound: return "NotFound";
    case StatusCode::kPermissionDenied: return "PermissionDenied";
    case StatusCode::kCorruption: return "Corruption";
    case StatusCode::kResourceExhausted: return "ResourceExhausted";
    case StatusCode::kFailedPrecondition: return "FailedPrecondition";
    case StatusCode::kUnimplemented: return "Unimplemented";
    case StatusCode::kInternal: return "Internal";
    case StatusCode::kUnavailable: return "Unavailable";
    case StatusCode::kDeadlineExceeded: return "DeadlineExceeded";
    case StatusCode::kCancelled: return "Cancelled";
    case StatusCode::kOutOfRange: return "OutOfRange";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeToString(code_);
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

}  // namespace tcells
