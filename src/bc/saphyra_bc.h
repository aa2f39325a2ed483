#ifndef SAPHYRA_BC_SAPHYRA_BC_H_
#define SAPHYRA_BC_SAPHYRA_BC_H_

#include <cstdint>
#include <vector>

#include "bc/path_sampler.h"
#include "bicomp/isp.h"
#include "core/saphyra.h"
#include "graph/graph.h"

namespace saphyra {

/// \brief Parameters of the SaPHyRa_bc algorithm (§IV-D). `epsilon` is
/// the additive accuracy on the betweenness values (Theorem 24); in top-k
/// mode the k highest b̃c estimates must separate (per-node δ allocation
/// from the pilot).
struct SaphyraBcOptions : SamplingParams {
  /// Shortest-path sampling strategy of Gen_bc.
  SamplingStrategy strategy = SamplingStrategy::kBidirectional;
  /// Ablation switch: disable the 2-hop exact subspace (X̂ = ∅), leaving
  /// pure PISP sampling. Lemma 19's no-false-zero property is lost.
  bool use_exact_subspace = true;
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
