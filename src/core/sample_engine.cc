#include "core/sample_engine.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "util/logging.h"

namespace saphyra {

namespace {

/// 32.32 fixed point: weighted losses lie in [0, 1], so one sample
/// contributes at most 2³² to an accumulator — a uint64 holds 2³² samples
/// before overflow, far beyond any VC cap this codebase produces. Integer
/// accumulation is associative, which keeps the merged moments independent
/// of wave partitioning and instance scheduling; the 2⁻³³ rounding error per
/// sample is orders of magnitude below every stopping tolerance.
constexpr double kFixedPointScale = 4294967296.0;  // 2^32

uint64_t ToFixedPoint(double x) {
  return static_cast<uint64_t>(std::llround(x * kFixedPointScale));
}

double FromFixedPoint(uint64_t fp) {
  return static_cast<double>(fp) / kFixedPointScale;
}

/// #samples with global index in [0, n) assigned to stripe `w` of
/// `num_stripes` under the engine's `j mod W` striping.
uint64_t StripeSamplesBelow(uint64_t n, size_t w, size_t num_stripes) {
  if (n <= w) return 0;
  return (n - w - 1) / num_stripes + 1;
}

}  // namespace

double SampleStats::mean(size_t i) const {
  if (n == 0) return 0.0;
  const double nn = static_cast<double>(n);
  if (weighted) return sums[i] / nn;
  return static_cast<double>(counts[i]) / nn;
}

double SampleStats::sample_variance(size_t i) const {
  SAPHYRA_CHECK(n >= 2);
  const double nn = static_cast<double>(n);
  if (!weighted) {
    const uint64_t ones = counts[i];
    return static_cast<double>(ones) * static_cast<double>(n - ones) /
           (nn * (nn - 1.0));
  }
  const double var =
      (sum_squares[i] - sums[i] * sums[i] / nn) / (nn - 1.0);
  return var > 0.0 ? var : 0.0;
}

SampleEngine::SampleEngine(HypothesisRankingProblem* problem,
                           uint32_t num_stripes, Rng* base_rng,
                           ThreadPool* pool, uint32_t max_parallel)
    : weighted_(problem->has_weighted_losses()), pool_(pool) {
  // One probe clone decides the stripe count, pooled or inline alike: a
  // different count partitions the RNG streams differently, so it must not
  // depend on the execution mode. For the same reason clonability is all-
  // or-nothing — a problem that clones once must keep cloning (partial
  // clonability would silently give the two modes different stripe
  // counts), so a later nullptr is a hard error, not a degrade.
  size_t stripes = 1;
  std::unique_ptr<HypothesisRankingProblem> probe;
  if (num_stripes > 1) {
    probe = problem->CloneForSampling();
    if (probe != nullptr) stripes = num_stripes;
  }
  // Physical instances only pay off when they can run concurrently: one
  // per task a wave may occupy, never more than there are stripes. A
  // stripe's output is a pure function of its stream, so any instance may
  // serve it; an unused probe is dropped here.
  size_t parallel = 1;
  if (pool_ != nullptr) {
    parallel = std::min(stripes, pool_->num_threads());
    if (max_parallel > 0) {
      parallel = std::min<size_t>(parallel, max_parallel);
    }
  }
  if (parallel > 1) clones_.push_back(std::move(probe));
  while (clones_.size() + 1 < parallel) {
    auto clone = problem->CloneForSampling();
    SAPHYRA_CHECK_MSG(clone != nullptr,
                      "CloneForSampling must not fail after succeeding");
    clones_.push_back(std::move(clone));
  }
  const size_t k = problem->num_hypotheses();
  instances_.resize(parallel);
  for (size_t i = 0; i < parallel; ++i) {
    Instance& inst = instances_[i];
    inst.problem = i == 0 ? problem : clones_[i - 1].get();
    inst.counts.assign(k, 0);
    if (weighted_) {
      inst.fp_sums.assign(k, 0);
      inst.fp_sum_squares.assign(k, 0);
    }
  }
  for (size_t w = 0; w < stripes; ++w) rngs_.push_back(base_rng->Split());
}

void SampleEngine::DrawStriped(uint64_t current, uint64_t target) {
  const size_t ns = rngs_.size();
  // Sample j belongs to stripe j mod W: each stripe's quota — and
  // therefore its RNG stream consumption — is a pure function of
  // (current, target, num_stripes), no matter how a run batches its Draw
  // calls or which instance serves the stripe.
  auto quota_of = [&](size_t w) {
    return StripeSamplesBelow(target, w, ns) -
           StripeSamplesBelow(current, w, ns);
  };
  if (instances_.size() == 1) {
    for (size_t w = 0; w < ns; ++w) {
      RunStripe(&instances_[0], w, quota_of(w));
    }
    return;
  }
  // One task per instance; each owns its instance for the whole wave and
  // pulls stripes off the shared cursor, so no instance is ever used by
  // two threads at once and fast tasks absorb the slow stripes.
  std::atomic<size_t> next_stripe{0};
  pool_->ParallelFor(0, instances_.size(), [&](size_t i) {
    for (size_t w = next_stripe.fetch_add(1); w < ns;
         w = next_stripe.fetch_add(1)) {
      RunStripe(&instances_[i], w, quota_of(w));
    }
  });
}

void SampleEngine::MergeLocals(std::vector<uint64_t>* counts,
                               std::vector<uint64_t>* fp_sums,
                               std::vector<uint64_t>* fp_sum_squares) {
  for (Instance& inst : instances_) {
    for (size_t i = 0; i < counts->size(); ++i) {
      (*counts)[i] += inst.counts[i];
      inst.counts[i] = 0;
    }
    if (fp_sums == nullptr) continue;
    for (size_t i = 0; i < fp_sums->size(); ++i) {
      (*fp_sums)[i] += inst.fp_sums[i];
      (*fp_sum_squares)[i] += inst.fp_sum_squares[i];
      inst.fp_sums[i] = 0;
      inst.fp_sum_squares[i] = 0;
    }
  }
}

uint64_t SampleEngine::Draw(uint64_t current, uint64_t target,
                            std::vector<uint64_t>* counts) {
  SAPHYRA_CHECK(target >= current);
  if (target == current) return target;
  DrawStriped(current, target);
  MergeLocals(counts, nullptr, nullptr);
  return target;
}

uint64_t SampleEngine::DrawAccumulate(uint64_t current, uint64_t target) {
  SAPHYRA_CHECK(target >= current);
  const size_t k = instances_[0].problem->num_hypotheses();
  if (agg_counts_.empty()) {
    agg_counts_.assign(k, 0);
    if (weighted_) {
      agg_fp_sums_.assign(k, 0);
      agg_fp_sum_squares_.assign(k, 0);
    }
  }
  if (target > current) {
    DrawStriped(current, target);
    MergeLocals(&agg_counts_, weighted_ ? &agg_fp_sums_ : nullptr,
                &agg_fp_sum_squares_);
  }
  return target;
}

void SampleEngine::SnapshotStats(uint64_t n, SampleStats* stats) const {
  const size_t k = instances_[0].problem->num_hypotheses();
  stats->n = n;
  stats->weighted = weighted_;
  stats->counts = agg_counts_;
  stats->counts.resize(k, 0);  // agg may be untouched when n == 0
  if (weighted_) {
    stats->sums.resize(k);
    stats->sum_squares.resize(k);
    for (size_t i = 0; i < k; ++i) {
      stats->sums[i] = i < agg_fp_sums_.size()
                           ? FromFixedPoint(agg_fp_sums_[i])
                           : 0.0;
      stats->sum_squares[i] = i < agg_fp_sum_squares_.size()
                                  ? FromFixedPoint(agg_fp_sum_squares_[i])
                                  : 0.0;
    }
  }
}

uint64_t SampleEngine::Draw(uint64_t current, uint64_t target,
                            SampleStats* stats) {
  DrawAccumulate(current, target);
  SnapshotStats(target, stats);
  return target;
}

void SampleEngine::RunStripe(Instance* inst, size_t w, uint64_t quota) {
  Rng* rng = &rngs_[w];
  if (weighted_) {
    auto& hits = inst->weighted_hits;
    for (uint64_t j = 0; j < quota; ++j) {
      hits.clear();
      inst->problem->SampleWeightedLosses(rng, &hits);
      for (const WeightedHit& h : hits) {
        SAPHYRA_CHECK(h.index < inst->counts.size());
        if (h.value <= 0.0) continue;
        ++inst->counts[h.index];
        inst->fp_sums[h.index] += ToFixedPoint(h.value);
        inst->fp_sum_squares[h.index] += ToFixedPoint(h.value * h.value);
      }
    }
    return;
  }
  auto& hits = inst->hits;
  for (uint64_t j = 0; j < quota; ++j) {
    hits.clear();
    inst->problem->SampleApproxLosses(rng, &hits);
    for (uint32_t i : hits) {
      SAPHYRA_CHECK(i < inst->counts.size());
      ++inst->counts[i];
    }
  }
}

}  // namespace saphyra
