// Status: lightweight error propagation without exceptions, in the style of
// RocksDB/Arrow. Library code returns Status (or Result<T>, see result.h)
// instead of throwing; callers are expected to check.
#ifndef TCELLS_COMMON_STATUS_H_
#define TCELLS_COMMON_STATUS_H_

#include <ostream>
#include <string>
#include <utility>

namespace tcells {

/// Error categories used across the library.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,   ///< Caller passed something malformed.
  kNotFound,          ///< Named entity (table, column, query) does not exist.
  kPermissionDenied,  ///< Access-control check failed.
  kCorruption,        ///< Ciphertext/serialized bytes failed to decode.
  kResourceExhausted, ///< RAM budget or fleet capacity exceeded.
  kFailedPrecondition,///< API called in the wrong state.
  kUnimplemented,     ///< Feature not (yet) supported.
  kInternal,          ///< Invariant violation inside the library.
  kUnavailable,       ///< Transport/peer failure; safe to retry.
  kDeadlineExceeded,  ///< Per-message deadline expired; safe to retry.
  kCancelled,         ///< Caller asked for the operation to stop.
  kOutOfRange,        ///< A bounded sequence (e.g. the key epochs) ran out.
};

/// Human-readable name of a StatusCode (e.g. "InvalidArgument").
const char* StatusCodeToString(StatusCode code);

/// An (code, message) pair. The common success value carries no allocation.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status PermissionDenied(std::string msg) {
    return Status(StatusCode::kPermissionDenied, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  bool IsInvalidArgument() const { return code_ == StatusCode::kInvalidArgument; }
  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsPermissionDenied() const { return code_ == StatusCode::kPermissionDenied; }
  bool IsCorruption() const { return code_ == StatusCode::kCorruption; }
  bool IsResourceExhausted() const { return code_ == StatusCode::kResourceExhausted; }
  bool IsFailedPrecondition() const { return code_ == StatusCode::kFailedPrecondition; }
  bool IsUnimplemented() const { return code_ == StatusCode::kUnimplemented; }
  bool IsInternal() const { return code_ == StatusCode::kInternal; }
  bool IsUnavailable() const { return code_ == StatusCode::kUnavailable; }
  bool IsDeadlineExceeded() const { return code_ == StatusCode::kDeadlineExceeded; }
  bool IsCancelled() const { return code_ == StatusCode::kCancelled; }
  bool IsOutOfRange() const { return code_ == StatusCode::kOutOfRange; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

 private:
  Status(StatusCode code, std::string msg)
      : code_(code), message_(std::move(msg)) {}

  StatusCode code_;
  std::string message_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

}  // namespace tcells

/// Propagates a non-OK Status to the caller. Usable only in functions
/// returning Status (or Result<T>, which converts from Status).
#define TCELLS_RETURN_IF_ERROR(expr)              \
  do {                                            \
    ::tcells::Status _st = (expr);                \
    if (!_st.ok()) return _st;                    \
  } while (0)

/// Evaluates a Result<T> expression; on error returns the Status, otherwise
/// moves the value into `lhs`. `lhs` must be a declaration or assignable.
#define TCELLS_ASSIGN_OR_RETURN(lhs, rexpr)       \
  TCELLS_ASSIGN_OR_RETURN_IMPL(                   \
      TCELLS_CONCAT_(_res, __LINE__), lhs, rexpr)

#define TCELLS_CONCAT_INNER_(a, b) a##b
#define TCELLS_CONCAT_(a, b) TCELLS_CONCAT_INNER_(a, b)

#define TCELLS_ASSIGN_OR_RETURN_IMPL(tmp, lhs, rexpr) \
  auto tmp = (rexpr);                                 \
  if (!tmp.ok()) return tmp.status();                 \
  lhs = std::move(tmp).ValueOrDie();

#endif  // TCELLS_COMMON_STATUS_H_
