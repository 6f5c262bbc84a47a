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

Status::Status(StatusCode code, std::string msg)
    : state_(std::make_unique<State>(State{code, std::move(msg)})) {}

const std::string& Status::message() const {
  static const std::string kEmpty;
  return state_ ? state_->message : kEmpty;
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeToString(state_->code);
  if (!state_->message.empty()) {
    out += ": ";
    out += state_->message;
  }
  return out;
}

}  // namespace tcells
