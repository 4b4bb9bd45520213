#include "util/stats.h"

#include <algorithm>
#include <cmath>

namespace sqs {

double RunningStat::stddev() const { return std::sqrt(variance()); }

double RunningStat::ci95_half_width() const {
  if (count_ < 2) return 0.0;
  return 1.96 * stddev() / std::sqrt(static_cast<double>(count_));
}

namespace {
constexpr double kZ95 = 1.959963984540054;

double wilson_bound(std::size_t successes, std::size_t trials, bool upper) {
  if (trials == 0) return upper ? 1.0 : 0.0;
  const double n = static_cast<double>(trials);
  const double phat = static_cast<double>(successes) / n;
  const double z2 = kZ95 * kZ95;
  const double denom = 1.0 + z2 / n;
  const double center = phat + z2 / (2.0 * n);
  const double spread =
      kZ95 * std::sqrt(phat * (1.0 - phat) / n + z2 / (4.0 * n * n));
  const double value = (center + (upper ? spread : -spread)) / denom;
  return std::clamp(value, 0.0, 1.0);
}
}  // namespace

double Proportion::wilson_low() const {
  return wilson_bound(successes, trials, /*upper=*/false);
}

double Proportion::wilson_high() const {
  return wilson_bound(successes, trials, /*upper=*/true);
}

}  // namespace sqs
