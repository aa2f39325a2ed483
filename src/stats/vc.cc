#include "stats/vc.h"

#include <cmath>

#include "util/logging.h"

namespace saphyra {

uint64_t SaturatingSampleCount(double x) {
  constexpr double kTwoTo64 = 18446744073709551616.0;
  if (!(x < kTwoTo64)) return kSaturatedSampleCount;  // also catches NaN
  if (x <= 0.0) return 0;
  return static_cast<uint64_t>(std::ceil(x));
}

uint64_t VcSampleBound(double epsilon, double delta, double vc_dimension,
                       double c) {
  SAPHYRA_CHECK(epsilon > 0.0 && epsilon < 1.0);
  SAPHYRA_CHECK(delta > 0.0 && delta < 1.0);
  SAPHYRA_CHECK(vc_dimension >= 0.0);
  return SaturatingSampleCount(c / (epsilon * epsilon) *
                               (vc_dimension + std::log(1.0 / delta)));
}

double PiMaxVcBound(uint64_t pi_max) {
  if (pi_max <= 1) return 1.0;
  return std::floor(std::log2(static_cast<double>(pi_max))) + 1.0;
}

}  // namespace saphyra
