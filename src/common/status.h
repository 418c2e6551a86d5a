#ifndef ANKER_COMMON_STATUS_H_
#define ANKER_COMMON_STATUS_H_

#include <string>
#include <utility>

#include "common/macros.h"

namespace anker {

/// Error codes for recoverable failures. Transaction aborts are modeled as
/// statuses (kAborted) so callers can retry; invariant violations use
/// ANKER_CHECK instead.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  kIoError,
  kAborted,         ///< Transaction aborted (conflict or validation failure).
  kResourceBusy,    ///< Latch/lock could not be acquired.
  kNotSupported,
  kInternal,
};

/// RocksDB-style status object: cheap to return, carries a code and an
/// optional message. The library does not use exceptions.
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
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  /// IoError "<what>: <strerror(errno)>" for a failed system call.
  static Status IoErrorFromErrno(const char* what);
  static Status Aborted(std::string msg) {
    return Status(StatusCode::kAborted, std::move(msg));
  }
  static Status ResourceBusy(std::string msg) {
    return Status(StatusCode::kResourceBusy, std::move(msg));
  }
  static Status NotSupported(std::string msg) {
    return Status(StatusCode::kNotSupported, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  bool IsAborted() const { return code_ == StatusCode::kAborted; }
  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsResourceBusy() const { return code_ == StatusCode::kResourceBusy; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Human-readable representation, e.g. "Aborted: ww-conflict on row 5".
  std::string ToString() const;

 private:
  Status(StatusCode code, std::string msg)
      : code_(code), message_(std::move(msg)) {}

  StatusCode code_;
  std::string message_;
};

/// Returns early from the enclosing function if `expr` is a non-OK Status.
#define ANKER_RETURN_IF_ERROR(expr)             \
  do {                                          \
    ::anker::Status _st = (expr);               \
    if (!_st.ok()) return _st;                  \
  } while (0)

/// A value-or-status pair, used where a function computes a value but can
/// fail recoverably.
template <typename T>
class Result {
 public:
  /// Implicit construction from a value (success path reads naturally).
  Result(T value) : status_(Status::OK()), value_(std::move(value)) {}
  /// Implicit construction from an error status.
  Result(Status status) : status_(std::move(status)) {
    ANKER_CHECK_MSG(!status_.ok(), "Result built from OK status needs value");
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }
  const T& value() const {
    ANKER_CHECK(ok());
    return value_;
  }
  T& value() {
    ANKER_CHECK(ok());
    return value_;
  }
  T&& TakeValue() {
    ANKER_CHECK(ok());
    return std::move(value_);
  }

 private:
  Status status_;
  T value_{};
};

}  // namespace anker

#endif  // ANKER_COMMON_STATUS_H_
