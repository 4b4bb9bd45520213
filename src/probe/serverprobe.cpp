#include "probe/serverprobe.h"

#include <cassert>

#include "probe/sequential_analysis.h"
#include "util/binomial.h"

namespace sqs {

namespace {

// a(x, y) = C(x, y) p^(x-y) (1-p)^y: probability that a fixed sequence of x
// probes holds exactly y successes.
double a_term(int x, int y, double p) { return binom_pmf(x, y, 1.0 - p); }

}  // namespace

double serverprobe_cdf(int n, int alpha, double p, int i) {
  assert(n >= 3 * alpha - 1);
  if (i < 2 * alpha) return 0.0;
  if (i > n) i = n;
  double f = 0.0;
  if (i <= n - alpha) {
    for (int j = 2 * alpha; j <= i; ++j) f += a_term(i, j, p);
  } else {
    for (int j = 0; j <= i + alpha - (n + 1); ++j) f += a_term(i, j, p);
    for (int j = n + alpha - i; j <= i; ++j) f += a_term(i, j, p);
  }
  return f;
}

double serverprobe_complexity(int n, int alpha, double p) {
  double g = 0.0;
  double prev = 0.0;
  for (int i = 1; i <= n; ++i) {
    const double cur = serverprobe_cdf(n, alpha, p, i);
    g += static_cast<double>(i) * (cur - prev);
    prev = cur;
  }
  return g;
}

double serverprobe_complexity_dp(int n, int alpha, double p) {
  return analyze_sequential(n, 1.0 - p, opt_d_stop_rule(n, alpha))
      .expected_probes;
}

double serverprobe_upper_bound(int alpha, double p) {
  return 2.0 * alpha / (1.0 - p);
}

}  // namespace sqs
