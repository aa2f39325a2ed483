#ifndef SAPHYRA_BASELINES_KADABRA_H_
#define SAPHYRA_BASELINES_KADABRA_H_

#include <cstdint>
#include <vector>

#include "bc/path_sampler.h"
#include "core/saphyra.h"
#include "graph/graph.h"
#include "util/cancel.h"

namespace saphyra {

/// \brief Options for the KADABRA baseline (Borassi & Natale, ESA'16 [12]).
struct KadabraOptions {
  double epsilon = 0.05;
  double delta = 0.01;
  uint64_t seed = 1;
  double vc_constant = 0.5;
  /// KADABRA's signature balanced bidirectional BFS; unidirectional kept
  /// for ablations.
  SamplingStrategy strategy = SamplingStrategy::kBidirectional;
  /// BFS level-expansion policy (graph/frontier.h): kAuto/kHybrid use the
  /// direction-optimizing kernel, kTopDown the classic push. Results are
  /// bitwise identical either way.
  TraversalPolicy traversal = TraversalPolicy::kAuto;
  /// Worker threads for path sampling (execution only — results are
  /// bitwise identical for a fixed seed regardless of the thread count;
  /// see core/progressive_sampler.h).
  uint32_t num_threads = 1;
  /// 0 = guaranteed-ε mode; >0 = stop once the top-k node set is
  /// separated by the per-node confidence intervals. A top_k covering
  /// every node (≥ num_nodes) is a full ranking in disguise and falls
  /// back to ε mode.
  uint64_t top_k = 0;
  /// Samples per engine wave (0 = one wave per stopping check); batching
  /// granularity only, never affects results.
  uint64_t max_wave = 0;
  /// Optional cooperative cancellation/deadline (see util/cancel.h): on
  /// expiry the run returns completed-wave estimates tagged degraded.
  /// Borrowed; must outlive the run.
  const CancelToken* cancel = nullptr;
};

/// \brief Output of KADABRA.
struct KadabraResult {
  /// Estimates for all n nodes (like ABRA, KADABRA estimates the whole
  /// network even when only a subset is of interest).
  std::vector<double> bc;
  uint64_t samples_used = 0;
  uint32_t epochs = 0;
  double seconds = 0.0;
  bool stopped_early = false;
  /// The ε budget saturated past 2^64 − 1 samples (stats/vc.h): nothing
  /// was sampled and the estimates carry no guarantee.
  bool budget_saturated = false;
  /// Deadline/cancel truncation: estimates cover completed waves only and
  /// the (ε, δ) guarantee does NOT hold.
  bool degraded = false;
  StatusCode degrade_reason = StatusCode::kOk;
  /// Only when degraded: the per-node Bernstein bound (ε mode) or widest
  /// confidence half-width (top-k mode) actually achieved; infinity when
  /// truncation preceded any variance estimate.
  double epsilon_achieved = 0.0;
};

/// \brief KADABRA: adaptive uniform path sampling.
///
/// Each sample draws a uniform ordered node pair, samples *one* uniform
/// shortest path between them with a balanced bidirectional BFS, and
/// increments the counters of the path's inner nodes. Sampling runs on the
/// shared progressive scheduler (core/progressive_sampler.h) and stops
/// when per-node empirical-Bernstein deviations (failure budget split
/// uniformly across nodes, both tails, and doubling epochs) all reach ε,
/// or at the diameter-based VC cap of Riondato–Kornaropoulos — the
/// adaptive scheme of [12] with its union-bound bookkeeping simplified to
/// uniform weights. With `top_k` set the stop condition is instead
/// confidence-interval separation of the k most-central nodes.
KadabraResult RunKadabra(const Graph& g, const KadabraOptions& options);

}  // namespace saphyra

#endif  // SAPHYRA_BASELINES_KADABRA_H_
