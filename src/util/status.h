#ifndef SAPHYRA_UTIL_STATUS_H_
#define SAPHYRA_UTIL_STATUS_H_

#include <string>
#include <utility>

namespace saphyra {

/// \brief Error category for a failed operation.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kIOError,
  kNotFound,
  kOutOfRange,
  kFailedPrecondition,
  kInternal,
  /// A per-query (or drain) time budget ran out; partial results may still
  /// have been produced (see the serving layer's degraded results).
  kDeadlineExceeded,
  /// Load shed: an admission queue or resource cap rejected the work.
  kResourceExhausted,
  /// A hard stop was requested (shutdown, explicit cancel).
  kCancelled,
};

/// \brief Stable SCREAMING_SNAKE wire name of a code (gRPC-style), e.g.
/// "DEADLINE_EXCEEDED". This is what NDJSON error objects carry in their
/// "code" field; clients dispatch on it, so the names are part of the
/// serving contract (docs/serving.md, "Error taxonomy").
const char* StatusCodeWireName(StatusCode code);

/// \brief Lightweight status object for operations that can fail.
///
/// Mirrors the RocksDB/Arrow convention: functions that can fail return a
/// Status (or a value accompanied by a Status) instead of throwing. The OK
/// status carries no allocation.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// \brief Human-readable rendering, e.g. "InvalidArgument: bad node id".
  std::string ToString() const;

 private:
  Status(StatusCode code, std::string msg)
      : code_(code), message_(std::move(msg)) {}

  StatusCode code_;
  std::string message_;
};

/// \brief Propagate a non-OK status to the caller.
#define SAPHYRA_RETURN_NOT_OK(expr)        \
  do {                                     \
    ::saphyra::Status _st = (expr);        \
    if (!_st.ok()) return _st;             \
  } while (false)

}  // namespace saphyra

#endif  // SAPHYRA_UTIL_STATUS_H_
