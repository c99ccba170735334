// Status: lightweight error propagation without exceptions.
//
// Library code in tgks never throws; fallible operations return a Status (or
// a Result<T>, see result.h). The idiom follows RocksDB/Arrow: a Status is a
// cheap value type carrying an error code and a human-readable message, with
// `ok()` as the success test.

#ifndef TGKS_COMMON_STATUS_H_
#define TGKS_COMMON_STATUS_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>

namespace tgks {

/// Error categories used across the library.
enum class StatusCode : uint8_t {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kAlreadyExists = 3,
  kOutOfRange = 4,
  kCorruption = 5,
  kIOError = 6,
  kUnimplemented = 7,
  kInternal = 8,
};

/// Returns a stable, lowercase name for `code` ("ok", "invalid-argument", ...).
std::string_view StatusCodeName(StatusCode code);

/// A cheap value type describing the outcome of a fallible operation.
///
/// Successful statuses carry no allocation. Construct errors through the
/// named factories: `Status::InvalidArgument("...")` etc.
class Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) noexcept = default;
  Status& operator=(Status&&) noexcept = default;

  /// Named error factories.
  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  /// True iff the operation succeeded.
  bool ok() const { return code_ == StatusCode::kOk; }

  /// The error category; kOk iff ok().
  StatusCode code() const { return code_; }

  /// The error message; empty for OK statuses.
  const std::string& message() const { return message_; }

  /// "ok" or "<code-name>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  Status(StatusCode code, std::string msg)
      : code_(code), message_(std::move(msg)) {}

  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& status);

/// Propagates an error Status out of the enclosing function.
#define TGKS_RETURN_IF_ERROR(expr)            \
  do {                                        \
    ::tgks::Status _tgks_status = (expr);     \
    if (!_tgks_status.ok()) return _tgks_status; \
  } while (false)

}  // namespace tgks

#endif  // TGKS_COMMON_STATUS_H_
