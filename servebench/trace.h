#ifndef SAPHYRA_SERVEBENCH_TRACE_H_
#define SAPHYRA_SERVEBENCH_TRACE_H_

/// \file
/// The benchmark's span recorder. Spans are taken around calls into the
/// library's public functions from the benchmark's own code only; nothing
/// inside the library is instrumented. Disabled tracers record nothing and
/// read no clock, so an untraced run pays nothing for them. Spans stay in
/// memory until the run ends and are then written out as one JSON file.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "aggregate.h"

namespace servebench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// \brief Open a span; returns its id, or -1 when disabled.
  int64_t Begin(const std::string& name, int64_t parent, uint64_t request) {
    if (!enabled_) return -1;
    Span s;
    s.name = name;
    s.parent = parent;
    s.request = request;
    s.start_ns = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(s));
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  /// \brief Close span `id` (no-op for -1); returns its duration in ns.
  int64_t End(int64_t id) {
    if (id < 0) return 0;
    const int64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id].end_ns = now;
    return now - spans_[id].start_ns;
  }
  /// \brief Copy of every span recorded so far.
  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }
  /// \brief Durations (seconds) of every closed span named `name`.
  std::vector<double> Durations(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name && s.end_ns > 0) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
      }
    }
    return out;
  }

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// \brief RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, const std::string& name, int64_t parent = -1,
             uint64_t request = 0)
      : tracer_(t), id_(t->Begin(name, parent, request)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int64_t id_;
};

}  // namespace servebench

#endif  // SAPHYRA_SERVEBENCH_TRACE_H_
