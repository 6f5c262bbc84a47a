// Result<T>: a Status or a value of type T, in the style of arrow::Result.
#ifndef TCELLS_COMMON_RESULT_H_
#define TCELLS_COMMON_RESULT_H_

#include <cassert>
#include <optional>
#include <utility>

#include "common/status.h"

namespace tcells {

/// Holds either an error Status or a value of type T. A Result constructed
/// from Status must carry a non-OK status (an OK status with no value is a
/// programming error and is converted to kInternal).
template <typename T>
class Result {
 public:
  /// Implicit conversion from an error Status so that
  /// `return Status::InvalidArgument(...)` works in Result-returning code.
  Result(Status status)  // NOLINT(google-explicit-constructor)
      : status_(std::move(status)) {
    if (status_.ok()) {
      status_ = Status::Internal("Result constructed from OK status");
    }
  }

  /// Implicit conversion from a value.
  Result(T value)  // NOLINT(google-explicit-constructor)
      : value_(std::move(value)) {}

  bool ok() const { return status_.ok(); }
  const Status& status() const& { return status_; }
  /// Hands the error out without copying it.
  Status status() && { return std::move(status_); }

  /// Returns the contained value; must only be called when ok().
  const T& ValueOrDie() const& {
    assert(ok());
    return *value_;
  }
  T& ValueOrDie() & {
    assert(ok());
    return *value_;
  }
  T&& ValueOrDie() && {
    assert(ok());
    return std::move(*value_);
  }

  const T& operator*() const& { return ValueOrDie(); }
  T& operator*() & { return ValueOrDie(); }
  const T* operator->() const { return &ValueOrDie(); }
  T* operator->() { return &ValueOrDie(); }

  /// Returns the value or `alternative` when in error state.
  T ValueOr(T alternative) const {
    return ok() ? *value_ : std::move(alternative);
  }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace tcells

#endif  // TCELLS_COMMON_RESULT_H_
