// Status: lightweight error propagation without exceptions, in the style of
// RocksDB/Arrow. Library code returns Status (or Result<T>, see result.h)
// instead of throwing; callers are expected to check.
#ifndef TCELLS_COMMON_STATUS_H_
#define TCELLS_COMMON_STATUS_H_

#include <memory>
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

/// An (code, message) pair, held as one pointer that is null when OK: the
/// success value is a null pointer to pass, test and destroy, and only an
/// error allocates (its code and message, behind the pointer). Copying an
/// error copies its state; moving one leaves the source OK. Build an error
/// only to return or keep it: a hot path that makes one and drops it pays an
/// allocation per call (DESIGN.md "Status").
class Status {
 public:
  /// Constructs an OK status.
  Status() noexcept = default;
  Status(const Status& other)
      : state_(other.state_ ? std::make_unique<State>(*other.state_)
                            : nullptr) {}
  Status& operator=(const Status& other) {
    if (this != &other) {
      state_ = other.state_ ? std::make_unique<State>(*other.state_) : nullptr;
    }
    return *this;
  }
  Status(Status&&) noexcept = default;
  Status& operator=(Status&&) noexcept = default;

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

  bool ok() const { return state_ == nullptr; }
  StatusCode code() const { return state_ ? state_->code : StatusCode::kOk; }
  /// The error's message; empty when OK.
  const std::string& message() const;

  bool IsInvalidArgument() const { return code() == StatusCode::kInvalidArgument; }
  bool IsNotFound() const { return code() == StatusCode::kNotFound; }
  bool IsPermissionDenied() const { return code() == StatusCode::kPermissionDenied; }
  bool IsCorruption() const { return code() == StatusCode::kCorruption; }
  bool IsResourceExhausted() const { return code() == StatusCode::kResourceExhausted; }
  bool IsFailedPrecondition() const { return code() == StatusCode::kFailedPrecondition; }
  bool IsUnimplemented() const { return code() == StatusCode::kUnimplemented; }
  bool IsInternal() const { return code() == StatusCode::kInternal; }
  bool IsUnavailable() const { return code() == StatusCode::kUnavailable; }
  bool IsDeadlineExceeded() const { return code() == StatusCode::kDeadlineExceeded; }
  bool IsCancelled() const { return code() == StatusCode::kCancelled; }
  bool IsOutOfRange() const { return code() == StatusCode::kOutOfRange; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

 private:
  struct State {
    StatusCode code;
    std::string message;
  };

  /// Out of line, so a call site that builds an error inlines no string or
  /// allocation code.
  Status(StatusCode code, std::string msg);

  std::unique_ptr<State> state_;  ///< null = OK
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
  if (!tmp.ok()) return std::move(tmp).status();      \
  lhs = std::move(tmp).ValueOrDie();

#endif  // TCELLS_COMMON_STATUS_H_
