#ifndef SAPHYRA_BC_SAPHYRA_BC_H_
#define SAPHYRA_BC_SAPHYRA_BC_H_

#include <cstdint>
#include <vector>

#include "bc/path_sampler.h"
#include "bicomp/isp.h"
#include "core/saphyra.h"
#include "graph/graph.h"

namespace saphyra {

/// \brief Parameters of the SaPHyRa_bc algorithm (§IV-D).
struct SaphyraBcOptions {
  /// Target additive accuracy ε on the betweenness values (Theorem 24).
  double epsilon = 0.05;
  /// Failure probability δ.
  double delta = 0.01;
  /// RNG seed (whole run is deterministic given the seed).
  uint64_t seed = 1;
  /// Shortest-path sampling strategy of Gen_bc.
  SamplingStrategy strategy = SamplingStrategy::kBidirectional;
  /// BFS level-expansion policy of Gen_bc (graph/frontier.h):
  /// kAuto/kHybrid use the direction-optimizing kernel, kTopDown the
  /// classic push. Results are bitwise identical either way.
  TraversalPolicy traversal = TraversalPolicy::kAuto;
  /// Ablation switch: disable the 2-hop exact subspace (X̂ = ∅), leaving
  /// pure PISP sampling. Lemma 19's no-false-zero property is lost.
  bool use_exact_subspace = true;
  /// Constant c of the sample bounds (Lemma 4).
  double vc_constant = 0.5;
  /// Floor on the initial sample size of the adaptive loop.
  uint64_t min_initial_samples = 32;
  /// Worker threads for sample generation (execution only — results are
  /// bitwise identical for a fixed seed regardless of the thread count;
  /// see core/progressive_sampler.h).
  uint32_t num_threads = 1;
  /// 0 = guaranteed-ε mode; >0 = top-k mode: sampling stops as soon as
  /// the k highest b̃c estimates are separated from the rest by their
  /// confidence intervals (per-node δ allocation from the pilot).
  uint64_t top_k = 0;
  /// Samples per engine wave (0 = one wave per stopping check); batching
  /// granularity only, never affects results.
  uint64_t max_wave = 0;
  /// Optional cooperative cancellation/deadline (see util/cancel.h): on
  /// expiry the run returns completed-wave estimates tagged degraded.
  /// Borrowed; must outlive the run.
  const CancelToken* cancel = nullptr;
};

/// \brief Output of SaPHyRa_bc.
struct SaphyraBcResult {
  /// (ε,δ)-estimates b̃c(v), aligned with the `targets` argument.
  std::vector<double> bc;

  // --- diagnostics -----------------------------------------------------
  double gamma = 0.0;       ///< ISP normalization γ (Eq. 19)
  double eta = 0.0;         ///< personalization mass η (Eq. 23)
  double lambda_hat = 0.0;  ///< exact-subspace weight λ̂
  double vc_bound = 0.0;    ///< personalized VC bound (Corollary 22)
  double bs_bound = 0.0;    ///< bound on BS(A) (Lemma 23)
  uint64_t pilot_samples = 0;
  uint64_t samples_used = 0;
  uint64_t max_samples = 0;
  uint64_t rejected_samples = 0;  ///< Gen_bc rejections (Alg. 2 line 6)
  bool stopped_early = false;     ///< Bernstein stop before the VC cap
  /// The ε budget saturated past 2^64 − 1 samples (stats/vc.h): nothing
  /// was sampled and the estimates carry no guarantee.
  bool budget_saturated = false;
  /// Deadline/cancel truncation: estimates cover completed waves only and
  /// Theorem 24's guarantee does NOT hold (but the bits are deterministic
  /// for a fixed seed and samples_used).
  bool degraded = false;
  StatusCode degrade_reason = StatusCode::kOk;
  /// Only when degraded: the deviation bound actually achieved, in bc
  /// units (γη × the framework's combined-risk bound); infinity when
  /// truncation preceded any variance estimate.
  double epsilon_achieved = 0.0;
  double exact_seconds = 0.0;     ///< Exact_bc time
  double sampling_seconds = 0.0;  ///< adaptive sampling time
  double total_seconds = 0.0;
};

/// \brief Rank the nodes of `targets` by betweenness centrality with the
/// full SaPHyRa_bc pipeline: bi-component/PISP sampling, 2-hop exact
/// subspace, empirical-Bernstein adaptive sampling, personalized VC cap.
///
/// `isp` can be shared across many subsets of the same graph (it is
/// A-independent); building it once amortizes the O(n + m) decomposition,
/// mirroring how the paper's experiments rank 1000 subsets per network.
///
/// Returns estimates satisfying Pr[∀v∈A: |b̃c(v) − bc(v)| < ε] ≥ 1 − δ
/// (Theorem 24), with bc normalized per Eq. 3.
SaphyraBcResult RunSaphyraBc(const IspIndex& isp,
                             const std::vector<NodeId>& targets,
                             const SaphyraBcOptions& options);

/// \brief SaPHyRa_bc-full: the whole network as the target set (the
/// configuration the paper calls "SaPHyRa_bc-full").
SaphyraBcResult RunSaphyraBcFull(const IspIndex& isp,
                                 const SaphyraBcOptions& options);

}  // namespace saphyra

#endif  // SAPHYRA_BC_SAPHYRA_BC_H_
