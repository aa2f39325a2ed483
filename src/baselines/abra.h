#ifndef SAPHYRA_BASELINES_ABRA_H_
#define SAPHYRA_BASELINES_ABRA_H_

#include <cstdint>
#include <vector>

#include "core/saphyra.h"
#include "graph/graph.h"
#include "util/cancel.h"

namespace saphyra {

/// \brief Options for the ABRA baseline (Riondato & Upfal, KDD'16 [47]).
/// ε mode is the Rademacher sup-norm bound; top-k mode separates by
/// per-node empirical-Bernstein intervals.
struct AbraOptions : SamplingParams {};

/// \brief Output of ABRA.
struct AbraResult {
  /// Estimated betweenness for all n nodes (ABRA cannot restrict itself to
  /// a subset — one of the paper's motivating observations).
  std::vector<double> bc;
  uint64_t samples_used = 0;
  uint32_t epochs = 0;
  /// Last Rademacher deviation bound (ε mode), or the final top-k
  /// separation gap (top-k mode; ≥ 0 iff separation was reached).
  double final_bound = 0.0;
  double seconds = 0.0;
  /// The ε budget saturated past 2^64 − 1 samples (stats/vc.h): nothing
  /// was sampled and the estimates carry no guarantee.
  bool budget_saturated = false;
  /// Deadline/cancel truncation: estimates cover completed waves only and
  /// the (ε, δ) guarantee does NOT hold.
  bool degraded = false;
  StatusCode degrade_reason = StatusCode::kOk;
  /// Only when degraded: the Rademacher bound (ε mode) or widest
  /// confidence half-width (top-k mode) actually achieved; infinity when
  /// truncation preceded any variance estimate.
  double epsilon_achieved = 0.0;
};

/// \brief ABRA: progressive node-pair sampling with a Rademacher-average
/// stopping rule.
///
/// Each sample is a uniform ordered pair (u,v); the BFS dependency
/// accumulation credits every node w on a shortest u-v path with
/// σ_uv(w)/σ_uv. The stopping rule bounds the supremum deviation by
/// 2·R̃ + 3·sqrt(ln(2/δ_e)/2N), where the empirical Rademacher average R̃
/// is bounded through the exponential-moment ("Massart-style") function of
/// the per-node sums of squares minimized over its scale parameter — the
/// self-bounding computation ABRA performs at the end of each sample
/// schedule epoch. The run executes on the shared progressive scheduler
/// (core/progressive_sampler.h): epochs double the sample size, δ is
/// split evenly across the planned checks, and a Riondato–Kornaropoulos
/// VC cap bounds the schedule.
AbraResult RunAbra(const Graph& g, const AbraOptions& options);

}  // namespace saphyra

#endif  // SAPHYRA_BASELINES_ABRA_H_
