#ifndef SAPHYRA_UTIL_CANCEL_H_
#define SAPHYRA_UTIL_CANCEL_H_

/// \file
/// Cooperative cancellation and deadlines for long-running estimator runs.
///
/// A `CancelToken` is the bridge between the serving layer's latency
/// budget and the progressive sampling loop: the scheduler arms a token
/// per query (from `deadline_ms`, chained to a server-wide drain token),
/// and `ProgressiveSampler` polls it at every wave boundary. Expiry never
/// discards work — the sampler finalizes from completed waves only and
/// reports a *degraded* result tagged with the accuracy it actually
/// achieved (DESIGN.md, "Degradation contract").
///
/// **Determinism.** Cancellation is polled only at deterministic points
/// (wave boundaries of the striped sampling loop), so a truncated run is a
/// pure function of (seed, truncation checkpoint N'): the wall clock
/// decides *where* a run stops, never *what* the bits at that stop point
/// are. `CancelAfterPolls` pins the truncation point itself, making
/// degraded results exactly reproducible in tests.
///
/// Ownership/threading: all members are atomic; arming (Cancel,
/// TightenDeadline, CancelAfterPolls) and polling may race freely across
/// threads. A parent token must outlive every token chained to it.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

#include "util/status.h"

namespace saphyra {

/// \brief A monotonic-clock expiry point. Value type; `Never()` (the
/// default) means unbounded.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  Deadline() : when_ns_(kNeverNs) {}

  static Deadline Never() { return Deadline(); }
  /// Expires `ms` milliseconds from now (clamped to ≥ 0).
  static Deadline AfterMillis(uint64_t ms);

  bool unbounded() const { return when_ns_ == kNeverNs; }
  bool expired() const { return !unbounded() && NowNanos() >= when_ns_; }
  int64_t steady_nanos() const { return when_ns_; }

  /// Raw steady-clock reading shared by every deadline comparison.
  static int64_t NowNanos();

  /// Sentinel raw value of the unbounded deadline (compares later than
  /// every real expiry, so min-combining deadlines needs no special case).
  static constexpr int64_t kNeverNs = INT64_MAX;

 private:
  explicit Deadline(int64_t ns) : when_ns_(ns) {}
  int64_t when_ns_;
};

/// \brief Cooperative cancellation: a thread-safe flag + optional deadline
/// + optional parent chain, polled by the sampling loop.
///
/// `Check()` reports the strongest reason to stop as a StatusCode:
/// `kOk` (keep going), `kDeadlineExceeded` (the budget ran out — degrade
/// gracefully) or `kCancelled` (a hard stop was requested). A parent token
/// is consulted first, so one server-wide token can drain every in-flight
/// query at once.
class CancelToken {
 public:
  CancelToken() = default;
  explicit CancelToken(Deadline deadline)
      : deadline_ns_(deadline.steady_nanos()) {}

  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Chain to a server/drain token checked before this token's own state.
  /// `parent` may be null; must outlive this token otherwise.
  void set_parent(const CancelToken* parent) { parent_ = parent; }

  /// Request a hard stop (reported as kCancelled from now on).
  void Cancel() { cancelled_.store(true, std::memory_order_release); }

  /// Arm or tighten the deadline: the earlier of the current and the new
  /// expiry wins, so a drain deadline can only shorten a query's budget.
  void TightenDeadline(Deadline deadline);

  /// Deterministic test/benchmark trigger: report kCancelled on the n-th
  /// Poll() from now (n ≥ 1). Polls happen at wave boundaries, so a fixed
  /// poll count pins the truncation checkpoint exactly.
  void CancelAfterPolls(uint64_t polls);

  /// True if a deadline, poll budget, parent or pending cancel could ever
  /// make Check() non-OK — i.e. the run should poll at a fine granularity.
  bool CanExpire() const;

  /// Non-counting read of the current state.
  StatusCode Check() const;

  /// Counting poll: like Check(), but consumes one unit of a
  /// CancelAfterPolls budget. The sampling loop calls this once per wave.
  /// Const because pollers only borrow the token (the budget countdown is
  /// internal accounting, not an observable arm/disarm).
  StatusCode Poll() const;

  /// Render a non-OK poll result as a Status with a uniform message.
  static Status ToStatus(StatusCode code, const std::string& what);

 private:
  const CancelToken* parent_ = nullptr;
  mutable std::atomic<bool> cancelled_{false};
  std::atomic<int64_t> deadline_ns_{Deadline::kNeverNs};
  /// Remaining Poll() calls before auto-cancel; < 0 = disabled.
  mutable std::atomic<int64_t> polls_left_{-1};
};

}  // namespace saphyra

#endif  // SAPHYRA_UTIL_CANCEL_H_
