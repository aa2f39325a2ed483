// Self-tests of the benchmark's own aggregation (aggregate.h). Every
// benchmark run executes them first: `servebench selftest`.

#include <cmath>
#include <cstdio>
#include <string>

#include "aggregate.h"
#include "serve.h"

namespace servebench {

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
  }
}

std::vector<double> Ramp(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i > 0; --i) v.push_back(static_cast<double>(i));
  return v;  // n, n-1, ..., 1: unsorted on purpose
}

void PercentileSelection() {
  Expect(!Percentile({}, 50).has_value(), "empty sample has no median");
  Expect(Percentile({7}, 50) == 7.0, "single sample is its own median");
  Expect(Percentile(Ramp(10), 50) == 5.0, "nearest-rank median of 1..10");
  Expect(Percentile(Ramp(11), 50) == 6.0, "median of 1..11");
  Expect(Percentile(Ramp(100), 90) == 90.0, "p90 of 1..100");
  // p90 needs ten samples beyond it: 100 samples is the smallest count.
  Expect(SamplesBeyond(100, 90) == 10, "100 samples leave 10 beyond p90");
  Expect(SamplesBeyond(99, 90) == 9, "99 samples leave 9 beyond p90");
  Expect(!TailPercentile(Ramp(99), 90).has_value(), "p90 withheld at n=99");
  Expect(TailPercentile(Ramp(100), 90) == 90.0, "p90 reported at n=100");
  Expect(TailPercentile(Ramp(250), 90) == 225.0, "p90 of 1..250");
  Expect(!TailPercentile(Ramp(30), 90).has_value(), "p90 withheld at n=30");
}

void FailureAccounting() {
  using saphyra::QueryResult;
  using saphyra::Status;
  QueryResult ok;
  QueryResult degraded;
  degraded.degraded = true;
  QueryResult shed;
  shed.status = Status::ResourceExhausted("queue full");
  QueryResult bad;
  bad.status = Status::InvalidArgument("epsilon");
  Expect(Classify(ok) == Outcome::kOk, "ok answer");
  Expect(Classify(degraded) == Outcome::kDegraded, "degraded answer");
  Expect(Classify(shed) == Outcome::kShed, "shed answer");
  Expect(Classify(bad) == Outcome::kError, "error answer");
  OpCounts c;
  c.Add(Classify(ok));
  c.Add(Classify(ok));
  c.Add(Classify(degraded));
  c.Add(Classify(shed));
  c.Add(Classify(bad));
  c.Add(Outcome::kMismatch);
  Expect(c.attempted == 6, "every operation is attempted");
  Expect(c.failed() == 4, "degraded, shed, error and mismatch all fail");
  Expect(c.succeeded() == 2, "only ok answers succeed");
  OpCounts d;
  d.Add(Outcome::kOk);
  d.Merge(c);
  Expect(d.attempted == 7 && d.failed() == 4, "merged counts add up");
}

void SelfTimeSubtraction() {
  // root [0,100) with children [10,30) and [20,50) (overlapping: covered
  // [10,50) = 40) and a child [90,120) clipped to [90,100) = 10;
  // grandchild [12,18) under the first child.
  std::vector<Span> spans = {
      {"bench.request", 0, 100, -1, 1},
      {"service.query.parse", 10, 30, 0, 1},
      {"service.scheduler.run", 20, 50, 0, 1},
      {"service.query.serialize", 90, 120, 0, 1},
      {"bc.run", 12, 18, 1, 1},
  };
  const std::vector<int64_t> self = SelfTimes(spans);
  Expect(self[0] == 50, "root self time: 100 - 40 - 10");
  Expect(self[1] == 14, "child minus grandchild");
  Expect(self[2] == 30, "leaf keeps its duration");
  Expect(self[3] == 30, "leaf self time is its own duration");
  Expect(self[4] == 6, "grandchild");
  const auto by_layer = SelfSecondsByLayer(spans);
  auto near = [](double a, double b) { return std::fabs(a - b) < 1e-15; };
  Expect(near(by_layer.at("bench"), 50e-9), "bench layer");
  Expect(near(by_layer.at("service"), 74e-9), "service layer: 14 + 30 + 30");
  Expect(near(by_layer.at("bc"), 6e-9), "bc layer");
  Expect(LayerOf("graph.delta_overlay.apply") == "graph", "layer prefix");
}

}  // namespace

int RunSelfTest() {
  PercentileSelection();
  FailureAccounting();
  SelfTimeSubtraction();
  if (failures == 0) std::fprintf(stderr, "selftest: all passed\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace servebench
