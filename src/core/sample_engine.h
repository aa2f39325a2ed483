#ifndef SAPHYRA_CORE_SAMPLE_ENGINE_H_
#define SAPHYRA_CORE_SAMPLE_ENGINE_H_

/// \file
/// The pooled sampling engine: draws batches of i.i.d. samples for the
/// adaptive estimation loop over a fixed set of logical RNG stripes, so
/// that merged statistics are bitwise independent of thread count, pool
/// size and wave batching (DESIGN.md, "Pooled sample engine and its
/// determinism contract"). Every estimator frontend samples through this
/// engine via core/progressive_sampler.h.
///
/// Ownership/threading: an engine borrows the problem, base RNG and pool
/// (all must outlive it) and owns its clones and accumulators. One
/// engine serves one driver thread — its Draw calls must not be made
/// concurrently — but independent engines may share one ThreadPool from
/// different driver threads: pool completion is tracked per task group
/// (util/thread_pool.h), which is what lets the serving layer
/// (src/service/) run concurrent queries on the shared pool.

#include <cstdint>
#include <memory>
#include <vector>

#include "core/saphyra.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace saphyra {

/// \brief Merged sampling statistics after `n` i.i.d. draws.
///
/// For 0/1 losses only `counts` is maintained (`sums`/`sum_squares` stay
/// empty and the moment accessors fall back to the Bernoulli closed forms).
/// For weighted problems (`HypothesisRankingProblem::has_weighted_losses`)
/// the per-hypothesis loss sums and sums of squares are accumulated in
/// 32.32 fixed point and exposed here as doubles — fixed-point integer
/// accumulation is associative, which is what makes the merged moments
/// independent of wave partitioning and thread scheduling (see DESIGN.md,
/// "Adaptive stopping contract").
struct SampleStats {
  uint64_t n = 0;
  bool weighted = false;
  std::vector<uint64_t> counts;     ///< #samples with loss > 0 per hypothesis
  std::vector<double> sums;         ///< Σ loss (weighted problems only)
  std::vector<double> sum_squares;  ///< Σ loss² (weighted problems only)

  /// Empirical mean loss of hypothesis i.
  double mean(size_t i) const;
  /// Unbiased sample variance of hypothesis i (the U-statistic of Lemma 3).
  /// Requires n >= 2.
  double sample_variance(size_t i) const;
};

/// \brief Draws batches of i.i.d. samples for the adaptive estimation loop,
/// serially or across a persistent thread pool.
///
/// The engine separates *logical stripes* from *physical instances*.
///
///  * Stripes fix the statistics: the engine splits `num_stripes`
///    independent RNG streams off the base generator, and sample j
///    (globally indexed over the whole run) always belongs to stripe
///    j mod W, so stripe w's slice of its own stream is a pure function of
///    how many samples have been requested in total — never of how the
///    request was batched.
///  * Instances fix the cost: only P = min(num_stripes, pool width,
///    max_parallel) problem objects exist — the caller's problem plus P−1
///    CloneForSampling copies — each with its own scratch and accumulators.
///    A wave runs as P pool tasks; each task owns one instance and pulls
///    stripe indices from a shared cursor until every stripe's quota is
///    drawn. A stripe's output is a pure function of its stream, and the
///    integer accumulators are associative, so which instance serves which
///    stripe is invisible in the merged result. Inline execution
///    (pool == nullptr, or P == 1) serves every stripe from the caller's
///    instance; one probe clone is still made whenever num_stripes > 1,
///    because clonability must decide the stripe count identically for
///    pooled and inline runs.
///
///   **Determinism contract.** For a fixed (base_rng seed, num_stripes),
///   the merged statistics after N total samples are bitwise identical
///   across runs, across pool sizes and concurrency caps, against inline
///   execution (pool == nullptr), and across any partitioning of the N
///   samples into Draw calls. They do differ from a run with another
///   num_stripes, which partitions the streams differently.
///
/// Execution goes through the ThreadPool passed at construction (typically
/// SharedThreadPool()) — the pool threads persist across the adaptive
/// rounds instead of being spawned and joined per round. Per-instance
/// accumulators are merged after every batch.
class SampleEngine {
 public:
  /// \brief `pool` may be null to force inline execution on the caller's
  /// thread; it must otherwise outlive the engine. `max_parallel` caps how
  /// many instances (hence pool tasks) a wave uses; 0 = the pool width.
  /// Requests for more than one stripe degrade gracefully to one when the
  /// problem does not support cloning at all; a problem whose first clone
  /// succeeds must keep cloning (all-or-nothing — see CloneForSampling).
  SampleEngine(HypothesisRankingProblem* problem, uint32_t num_stripes,
               Rng* base_rng, ThreadPool* pool, uint32_t max_parallel = 0);

  /// \brief Logical RNG stripes actually created (1 for a non-clonable
  /// problem).
  size_t num_workers() const { return rngs_.size(); }

  /// \brief Draw `target - current` samples into *counts; returns `target`.
  /// Hit counts only — for weighted problems and moment statistics use the
  /// SampleStats overload. Do not mix the two overloads on one engine.
  uint64_t Draw(uint64_t current, uint64_t target,
                std::vector<uint64_t>* counts);

  /// \brief Draw `target - current` samples and refresh *stats with the
  /// merged statistics of all `target` samples drawn through this overload.
  /// The engine owns the running accumulation; *stats is overwritten.
  uint64_t Draw(uint64_t current, uint64_t target, SampleStats* stats);

  /// \brief Draw `target - current` samples into the engine's running
  /// accumulators without materializing a SampleStats — the cheap per-wave
  /// path; call SnapshotStats at the checkpoints that actually evaluate a
  /// stopping rule. Shares the accumulation with the stats Draw overload.
  uint64_t DrawAccumulate(uint64_t current, uint64_t target);

  /// \brief Materialize the running accumulation of DrawAccumulate /
  /// Draw(stats) into *stats, as of `n` total samples drawn.
  void SnapshotStats(uint64_t n, SampleStats* stats) const;

 private:
  /// One physical problem instance with the local accumulators of the
  /// stripes it served since the last merge, zeroed by every merge. For
  /// 0/1 problems only `counts` is used; weighted problems also fill the
  /// fixed-point moment accumulators.
  struct Instance {
    HypothesisRankingProblem* problem = nullptr;
    std::vector<uint64_t> counts;
    std::vector<uint64_t> fp_sums;
    std::vector<uint64_t> fp_sum_squares;
    std::vector<uint32_t> hits;                ///< scratch
    std::vector<WeightedHit> weighted_hits;    ///< scratch
  };

  /// Draw `quota` samples of stripe `w` on `inst` into its locals.
  void RunStripe(Instance* inst, size_t w, uint64_t quota);
  void DrawStriped(uint64_t current, uint64_t target);
  /// Add every instance's locals into the given arrays and zero them.
  void MergeLocals(std::vector<uint64_t>* counts,
                   std::vector<uint64_t>* fp_sums,
                   std::vector<uint64_t>* fp_sum_squares);

  std::vector<Instance> instances_;
  std::vector<std::unique_ptr<HypothesisRankingProblem>> clones_;
  std::vector<Rng> rngs_;  ///< one stream per logical stripe
  bool weighted_ = false;
  /// Running merged accumulators of the SampleStats overload.
  std::vector<uint64_t> agg_counts_;
  std::vector<uint64_t> agg_fp_sums_;
  std::vector<uint64_t> agg_fp_sum_squares_;
  ThreadPool* pool_;
};

}  // namespace saphyra

#endif  // SAPHYRA_CORE_SAMPLE_ENGINE_H_
