#ifndef SAPHYRA_SERVEBENCH_AGGREGATE_H_
#define SAPHYRA_SERVEBENCH_AGGREGATE_H_

/// \file
/// The benchmark's own aggregation: percentile selection, failure
/// accounting and span self-time subtraction. Pure functions over plain
/// values, pinned by selftest.cc (`servebench selftest`), which every
/// benchmark run executes before it measures anything.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "service/query.h"

namespace servebench {

/// \brief Nearest-rank percentile (p in (0, 100]) of `samples`: the
/// smallest sample with at least p% of all samples at or below it. Always
/// a measured value, never an interpolation. Empty input gives nullopt.
inline std::optional<double> Percentile(std::vector<double> samples,
                                        double p) {
  if (samples.empty()) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  const double rank =
      std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(idx, samples.size() - 1)];
}

/// \brief Samples strictly above the nearest-rank p-th percentile's rank.
inline size_t SamplesBeyond(size_t n, double p) {
  const size_t rank =
      static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  return n - std::min(rank, n);
}

/// \brief A tail percentile is reported only when at least this many
/// samples lie beyond it; below that it is a single outlier, not a tail.
inline constexpr size_t kMinSamplesBeyondTail = 10;

/// \brief The p-th percentile when the sample supports it (at least
/// kMinSamplesBeyondTail samples beyond it), nullopt otherwise.
inline std::optional<double> TailPercentile(const std::vector<double>& samples,
                                            double p) {
  if (SamplesBeyond(samples.size(), p) < kMinSamplesBeyondTail) {
    return std::nullopt;
  }
  return Percentile(samples, p);
}

/// \brief Why one attempted operation did or did not succeed.
enum class Outcome {
  kOk,
  kError,     ///< non-ok status other than shedding
  kShed,      ///< refused at admission (RESOURCE_EXHAUSTED)
  kDegraded,  ///< ok but deadline-truncated; no workload sets deadlines
  kMismatch,  ///< ok, but the correctness check rejected the answer
};

inline const char* OutcomeName(Outcome o) {
  switch (o) {
    case Outcome::kOk: return "ok";
    case Outcome::kError: return "error";
    case Outcome::kShed: return "shed";
    case Outcome::kDegraded: return "degraded";
    case Outcome::kMismatch: return "mismatch";
  }
  return "?";
}

/// \brief Classify a served answer. Every outcome but kOk is a failure.
inline Outcome Classify(const saphyra::QueryResult& res) {
  if (!res.status.ok()) {
    return res.status.code() == saphyra::StatusCode::kResourceExhausted
               ? Outcome::kShed
               : Outcome::kError;
  }
  return res.degraded ? Outcome::kDegraded : Outcome::kOk;
}

/// \brief Attempted/failed counts of one phase, broken down by outcome.
struct OpCounts {
  uint64_t attempted = 0;
  std::map<Outcome, uint64_t> by_outcome;

  void Add(Outcome o) {
    ++attempted;
    ++by_outcome[o];
  }
  uint64_t failed() const {
    uint64_t f = 0;
    for (const auto& [o, c] : by_outcome) {
      if (o != Outcome::kOk) f += c;
    }
    return f;
  }
  uint64_t succeeded() const { return attempted - failed(); }
  void Merge(const OpCounts& other) {
    attempted += other.attempted;
    for (const auto& [o, c] : other.by_outcome) by_outcome[o] += c;
  }
};

/// \brief One traced interval. `parent` indexes the span list (-1 = root);
/// spans of one request share `request`.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;
  uint64_t request = 0;
};

/// \brief Layer of a span: its name up to the first '.' ("bicomp.isp.warm"
/// → "bicomp").
inline std::string LayerOf(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

/// \brief Self time of every span: its duration minus the part of it that
/// its direct children cover. Children are clipped to the parent's
/// interval, and overlapping children are merged, so concurrent children
/// are not subtracted twice and self time never goes negative.
inline std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0 || static_cast<size_t>(s.parent) >= spans.size()) continue;
    const Span& p = spans[s.parent];
    const int64_t b = std::max(s.start_ns, p.start_ns);
    const int64_t e = std::min(s.end_ns, p.end_ns);
    if (e > b) children[s.parent].push_back({b, e});
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0, cur_b = 0, cur_e = -1;
    for (const auto& [b, e] : iv) {
      if (b > cur_e) {
        if (cur_e > cur_b) covered += cur_e - cur_b;
        cur_b = b;
        cur_e = e;
      } else {
        cur_e = std::max(cur_e, e);
      }
    }
    if (cur_e > cur_b) covered += cur_e - cur_b;
    self[i] =
        std::max<int64_t>(0, spans[i].end_ns - spans[i].start_ns - covered);
  }
  return self;
}

/// \brief Self time summed per layer, in seconds.
inline std::map<std::string, double> SelfSecondsByLayer(
    const std::vector<Span>& spans) {
  const std::vector<int64_t> self = SelfTimes(spans);
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    out[LayerOf(spans[i].name)] += static_cast<double>(self[i]) * 1e-9;
  }
  return out;
}

}  // namespace servebench

#endif  // SAPHYRA_SERVEBENCH_AGGREGATE_H_
