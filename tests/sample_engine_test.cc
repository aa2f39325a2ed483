// Tests of the pooled SampleEngine's determinism contract: for a fixed
// (base RNG, num_workers), results are bitwise identical no matter which
// thread pool executes the logical stripes — across pool sizes, across
// concurrency caps, across runs, and against inline execution — plus the
// cost side: how many physical instances a wave runs on.

#include <algorithm>
#include <atomic>
#include <memory>

#include <gtest/gtest.h>

#include "core/progressive_sampler.h"
#include "core/sample_engine.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace saphyra {
namespace {

/// Clonable problem whose sample stream is a pure function of the RNG:
/// each sample hits exactly one of k hypotheses.
class CountingProblem : public HypothesisRankingProblem {
 public:
  explicit CountingProblem(size_t k) : k_(k) {}
  size_t num_hypotheses() const override { return k_; }
  double ComputeExactRisks(std::vector<double>* exact) override {
    exact->assign(k_, 0.0);
    return 0.0;
  }
  void SampleApproxLosses(Rng* rng, std::vector<uint32_t>* hits) override {
    hits->push_back(static_cast<uint32_t>(rng->UniformInt(k_)));
  }
  double VcDimension() const override { return 1.0; }
  std::unique_ptr<HypothesisRankingProblem> CloneForSampling() override {
    return std::make_unique<CountingProblem>(k_);
  }

 private:
  size_t k_;
};

std::vector<uint64_t> RunDraws(uint32_t num_workers, ThreadPool* pool,
                               uint64_t seed) {
  CountingProblem problem(8);
  Rng rng(seed);
  SampleEngine engine(&problem, num_workers, &rng, pool);
  std::vector<uint64_t> counts(8, 0);
  // Several rounds with awkward quotas (not divisible by the worker count).
  uint64_t n = 0;
  for (uint64_t target : {37u, 138u, 979u, 2025u}) {
    n = engine.Draw(n, target, &counts);
    EXPECT_EQ(n, target);
  }
  return counts;
}

TEST(SampleEngine, CountsEveryRequestedSample) {
  ThreadPool pool(3);
  auto counts = RunDraws(4, &pool, 1);
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  EXPECT_EQ(total, 2025u);  // every sample hits exactly one hypothesis
}

TEST(SampleEngine, DeterministicAcrossRuns) {
  ThreadPool pool(4);
  EXPECT_EQ(RunDraws(4, &pool, 7), RunDraws(4, &pool, 7));
}

TEST(SampleEngine, ResultIndependentOfPoolSize) {
  // The same 4 logical workers scheduled on 1, 2, or 8 pool threads — or
  // inline with no pool at all — must produce identical counts: quotas and
  // RNG streams belong to the logical workers, not the executing threads.
  ThreadPool pool1(1), pool2(2), pool8(8);
  auto inline_counts = RunDraws(4, nullptr, 13);
  EXPECT_EQ(RunDraws(4, &pool1, 13), inline_counts);
  EXPECT_EQ(RunDraws(4, &pool2, 13), inline_counts);
  EXPECT_EQ(RunDraws(4, &pool8, 13), inline_counts);
  EXPECT_EQ(RunDraws(4, &SharedThreadPool(), 13), inline_counts);
}

TEST(SampleEngine, WorkerCountChangesTheStream) {
  // Different worker counts partition the RNG streams differently; the
  // totals still match but the per-run stream is a different draw.
  ThreadPool pool(4);
  auto one = RunDraws(1, &pool, 3);
  auto four = RunDraws(4, &pool, 3);
  uint64_t t1 = 0, t4 = 0;
  for (uint64_t c : one) t1 += c;
  for (uint64_t c : four) t4 += c;
  EXPECT_EQ(t1, t4);
}

TEST(SampleEngine, NonClonableDegradesToOneWorker) {
  class NonClonable : public HypothesisRankingProblem {
   public:
    size_t num_hypotheses() const override { return 2; }
    double ComputeExactRisks(std::vector<double>* e) override {
      e->assign(2, 0.0);
      return 0.0;
    }
    void SampleApproxLosses(Rng* rng, std::vector<uint32_t>* hits) override {
      if (rng->Bernoulli(0.5)) hits->push_back(0);
    }
    double VcDimension() const override { return 1.0; }
  };
  NonClonable p;
  Rng rng(5);
  SampleEngine engine(&p, 8, &rng, &SharedThreadPool());
  EXPECT_EQ(engine.num_workers(), 1u);
  std::vector<uint64_t> counts(2, 0);
  EXPECT_EQ(engine.Draw(0, 100, &counts), 100u);
}

TEST(SampleEngine, ZeroNeedIsANoop) {
  CountingProblem p(4);
  Rng rng(9);
  SampleEngine engine(&p, 2, &rng, nullptr);
  std::vector<uint64_t> counts(4, 0);
  EXPECT_EQ(engine.Draw(50, 50, &counts), 50u);
  for (uint64_t c : counts) EXPECT_EQ(c, 0u);
}

/// Clonable problem that records how many SampleApproxLosses calls run at
/// once (across the original and all its clones) and how many clones were
/// made. Each sample does a little busy work so concurrent calls overlap.
class ProbedProblem : public HypothesisRankingProblem {
 public:
  struct Probe {
    std::atomic<int> in_flight{0};
    std::atomic<int> peak{0};
    std::atomic<int> clones{0};
  };

  ProbedProblem(size_t k, std::shared_ptr<Probe> probe)
      : k_(k), probe_(std::move(probe)) {}
  size_t num_hypotheses() const override { return k_; }
  double ComputeExactRisks(std::vector<double>* exact) override {
    exact->assign(k_, 0.0);
    return 0.0;
  }
  void SampleApproxLosses(Rng* rng, std::vector<uint32_t>* hits) override {
    const int now = probe_->in_flight.fetch_add(1) + 1;
    int seen = probe_->peak.load();
    while (now > seen && !probe_->peak.compare_exchange_weak(seen, now)) {
    }
    uint64_t spin = 0;
    for (int i = 0; i < 2000; ++i) spin += rng->UniformInt(7);
    hits->push_back(static_cast<uint32_t>((spin + rng->UniformInt(k_)) % k_));
    probe_->in_flight.fetch_sub(1);
  }
  double VcDimension() const override { return 1.0; }
  std::unique_ptr<HypothesisRankingProblem> CloneForSampling() override {
    probe_->clones.fetch_add(1);
    return std::make_unique<ProbedProblem>(k_, probe_);
  }

 private:
  size_t k_;
  std::shared_ptr<Probe> probe_;
};

TEST(SampleEngine, OneInstancePerPoolThreadNotPerStripe) {
  // 16 stripes on an 8-thread pool: the primary plus at most 7 clones
  // (the probe is reused as the second instance).
  ThreadPool pool(8);
  auto probe = std::make_shared<ProbedProblem::Probe>();
  ProbedProblem p(4, probe);
  Rng rng(21);
  SampleEngine engine(&p, 16, &rng, &pool);
  EXPECT_EQ(engine.num_workers(), 16u);
  EXPECT_LE(probe->clones.load(), 7);

  // Inline: every stripe runs on the caller's instance; the single clone
  // is the probe that fixes the stripe count.
  auto inline_probe = std::make_shared<ProbedProblem::Probe>();
  ProbedProblem q(4, inline_probe);
  Rng rng2(21);
  SampleEngine inline_engine(&q, 16, &rng2, nullptr);
  EXPECT_EQ(inline_engine.num_workers(), 16u);
  EXPECT_EQ(inline_probe->clones.load(), 1);
}

/// Runs 16 stripes on an 8-thread pool capped at `threads` concurrent
/// instances; returns the merged counts and records the peak concurrency.
std::vector<uint64_t> RunCapped(uint32_t threads, ThreadPool* pool,
                                int* peak) {
  auto probe = std::make_shared<ProbedProblem::Probe>();
  ProbedProblem p(8, probe);
  Rng rng(17);
  SampleEngine engine(&p, 16, &rng, pool, threads);
  EXPECT_EQ(engine.num_workers(), 16u);
  // One clone per instance beyond the caller's; the probe, made even at a
  // cap of 1, doubles as the second instance.
  EXPECT_EQ(probe->clones.load(), static_cast<int>(std::max(threads, 2u)) - 1);
  SampleStats stats;
  uint64_t n = 0;
  for (uint64_t target : {40u, 333u, 1201u}) {
    n = engine.Draw(n, target, &stats);
  }
  *peak = probe->peak.load();
  return stats.counts;
}

TEST(SampleEngine, ThreadsCapConcurrencyAndNeverChangeCounts) {
  ThreadPool pool(8);
  int peak = 0;
  const auto one = RunCapped(1, &pool, &peak);
  EXPECT_EQ(peak, 1);
  for (uint32_t threads : {2u, 4u, 8u}) {
    EXPECT_EQ(RunCapped(threads, &pool, &peak), one) << threads;
    EXPECT_GE(peak, 1);
    EXPECT_LE(peak, static_cast<int>(threads)) << threads;
  }
}

TEST(SampleEngine, ProgressiveSamplerHonoursThreadsAsCap) {
  // The frontends' num_threads reaches the engine as the concurrency cap:
  // `threads` 2 must never occupy more than two pool threads, whatever
  // the shared pool's width.
  auto probe = std::make_shared<ProbedProblem::Probe>();
  ProbedProblem p(8, probe);
  Rng rng(4);
  ProgressiveOptions opts;
  opts.initial_samples = 600;
  opts.max_samples = 600;
  opts.num_threads = 2;
  ProgressiveSampler sampler(&p, opts, &rng);
  FixedBudgetRule rule;
  EXPECT_EQ(sampler.Run(&rule).samples_used, 600u);
  EXPECT_LE(probe->peak.load(), 2);
  EXPECT_LE(probe->clones.load(), 1);
}

}  // namespace
}  // namespace saphyra
