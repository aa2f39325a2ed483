#ifndef SAPHYRA_STATS_VC_H_
#define SAPHYRA_STATS_VC_H_

#include <cstdint>
#include <limits>

namespace saphyra {

/// The largest sample count a budget can express. A budget that saturates
/// to it can never be drawn, so the estimator frontends refuse such a run
/// (`budget_saturated` in their results) instead of sampling forever.
inline constexpr uint64_t kSaturatedSampleCount =
    std::numeric_limits<uint64_t>::max();

/// \brief ⌈x⌉ as a sample count: 0 for x ≤ 0, kSaturatedSampleCount when
/// x ≥ 2^64 or x is NaN (a plain cast is undefined behaviour there).
uint64_t SaturatingSampleCount(double x);

/// Constant c of Lemma 4 ("approximately 0.5" per the paper).
constexpr double kVcSampleConstant = 0.5;

/// \brief Sample-complexity bound from VC dimension (Lemma 4 /
/// Shalev-Shwartz & Ben-David Thm 6.8): N = c/ε² (VC + ln 1/δ) samples give
/// an (ε, δ)-estimation of all expected risks simultaneously. Saturates
/// at kSaturatedSampleCount.
uint64_t VcSampleBound(double epsilon, double delta, double vc_dimension,
                       double c = kVcSampleConstant);

/// \brief πmax-based VC bound (Lemma 5): if no sample is hit by more than
/// `pi_max` hypotheses, VC(H) ≤ ⌊log₂ πmax⌋ + 1.
///
/// Returns 1 for pi_max ≤ 1 (a chain of singletons still shatters a point).
double PiMaxVcBound(uint64_t pi_max);

}  // namespace saphyra

#endif  // SAPHYRA_STATS_VC_H_
