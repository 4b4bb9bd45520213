#include "mismatch/exact.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <tuple>
#include <vector>

#include "core/constructions.h"
#include "core/witness.h"
#include "mismatch/model.h"
#include "util/binomial.h"

namespace sqs {
namespace {

class ExactSweep
    : public ::testing::TestWithParam<std::tuple<int, int, double, double>> {
 protected:
  int n() const { return std::get<0>(GetParam()); }
  int alpha() const { return std::get<1>(GetParam()); }
  double p() const { return std::get<2>(GetParam()); }
  double m() const { return std::get<3>(GetParam()); }
};

TEST_P(ExactSweep, MatchesMonteCarlo) {
  const auto exact = exact_nonintersection(n(), alpha(), p(), m(),
                                           opt_d_stop_rule(n(), alpha()));
  const OptDFamily fam(n(), alpha());
  MismatchModel model;
  model.p = p();
  model.link_miss = m();
  const NonintersectionStats mc =
      measure_nonintersection(fam, model, 400000, Rng(271));
  // The exact value must lie inside (a slightly padded) Wilson interval of
  // the Monte Carlo estimate.
  EXPECT_GE(exact.nonintersection, mc.nonintersection.wilson_low() * 0.8 - 1e-6);
  EXPECT_LE(exact.nonintersection, mc.nonintersection.wilson_high() * 1.2 + 1e-6);
  EXPECT_NEAR(exact.both_acquire, mc.both_acquired.estimate(), 0.01);
}

TEST_P(ExactSweep, RespectsTheorem9Bound) {
  const auto exact = exact_nonintersection(n(), alpha(), p(), m(),
                                           opt_d_stop_rule(n(), alpha()));
  EXPECT_LE(exact.nonintersection, exact.bound + 1e-12);
  EXPECT_GE(exact.nonintersection, 0.0);
  EXPECT_LE(exact.both_acquire, 1.0 + 1e-12);
}

TEST_P(ExactSweep, BothAcquireMatchesAvailabilityOfJointModel) {
  // Each client individually acquires iff >= alpha of its reachable servers
  // exist; marginal reach probability is (1-p)(1-m).
  const auto exact = exact_nonintersection(n(), alpha(), p(), m(),
                                           opt_d_stop_rule(n(), alpha()));
  const double marginal = binom_tail_geq(n(), alpha(), (1 - p()) * (1 - m()));
  // Both-acquire <= each marginal, and they are positively correlated, so
  // both_acquire >= marginal^2.
  EXPECT_LE(exact.both_acquire, marginal + 1e-9);
  EXPECT_GE(exact.both_acquire, marginal * marginal - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExactSweep,
    ::testing::Values(std::make_tuple(10, 1, 0.1, 0.1),
                      std::make_tuple(10, 1, 0.1, 0.3),
                      std::make_tuple(12, 2, 0.2, 0.2),
                      std::make_tuple(16, 2, 0.1, 0.25),
                      std::make_tuple(20, 3, 0.15, 0.3)));

// The two-client DP over a family's counting walk against Monte Carlo:
// P[non-intersection] and P[both acquire] each within 6 standard
// deviations. The witness walks run over the witnesses only, so the DP's
// universe is the order's length.
TEST(ExactNonintersection, MatchesMonteCarloForOptAAndWitness) {
  std::vector<std::unique_ptr<QuorumFamily>> families;
  families.push_back(std::make_unique<OptAFamily>(10, 2));
  families.push_back(std::make_unique<WitnessFamily>(24, 8, 2));
  families.push_back(
      std::make_unique<WitnessFamily>(10, std::vector<int>{7, 2, 9, 4, 0}, 2));
  MismatchModel model;
  model.p = 0.1;
  model.link_miss = 0.3;
  const int trials = 200000;
  for (const auto& family : families) {
    const std::optional<CountingWalk> walk = family->counting_walk();
    ASSERT_TRUE(walk.has_value());
    const auto exact = exact_nonintersection(
        static_cast<int>(walk->order.size()), family->alpha(), model.p,
        model.link_miss, walk->rule);
    const NonintersectionStats mc =
        measure_nonintersection(*family, model, trials, Rng(4242));
    auto six_sigma = [&](double q) {
      return 6.0 * std::sqrt(std::max(0.0, q * (1 - q)) / trials) + 1e-9;
    };
    EXPECT_GT(mc.nonintersection.successes, 0u) << family->name();
    EXPECT_NEAR(mc.nonintersection.estimate(), exact.nonintersection,
                six_sigma(exact.nonintersection))
        << family->name();
    EXPECT_NEAR(mc.both_acquired.estimate(), exact.both_acquire,
                six_sigma(exact.both_acquire))
        << family->name();
  }
}

TEST(ExactNonintersection, DecreasesExponentiallyInAlpha) {
  const int n = 30;
  const double p = 0.1, m = 0.25;
  double prev = 1.0;
  for (int alpha = 1; alpha <= 4; ++alpha) {
    const auto exact =
        exact_nonintersection(n, alpha, p, m, opt_d_stop_rule(n, alpha));
    EXPECT_LT(exact.nonintersection, prev);
    // At least a factor epsilon per extra alpha (bound shrinks by eps^2).
    EXPECT_LT(exact.nonintersection, exact.bound);
    prev = exact.nonintersection;
  }
}

TEST(ExactNonintersection, ZeroWhenNoMismatches) {
  const auto exact = exact_nonintersection(12, 2, 0.2, 0.0,
                                           opt_d_stop_rule(12, 2));
  EXPECT_DOUBLE_EQ(exact.nonintersection, 0.0);
  EXPECT_DOUBLE_EQ(exact.epsilon, 0.0);
}

TEST(ExactNonintersection, IndependentOfNForLargeN) {
  // Like g(n), the non-intersection probability stabilizes once n is large
  // enough that the tail rules never fire.
  const double p = 0.1, m = 0.2;
  const auto at_40 = exact_nonintersection(40, 2, p, m, opt_d_stop_rule(40, 2));
  const auto at_80 = exact_nonintersection(80, 2, p, m, opt_d_stop_rule(80, 2));
  EXPECT_NEAR(at_40.nonintersection, at_80.nonintersection, 1e-6);
}

TEST(ExactNonintersection, TheBoundIsLooseByAConstantFactor) {
  // Quantifies how conservative Theorem 9 is (the benches report this
  // ratio): at moderate parameters the true probability is well below the
  // bound but the same order of magnitude.
  const auto exact = exact_nonintersection(24, 2, 0.1, 0.25,
                                           opt_d_stop_rule(24, 2));
  EXPECT_GT(exact.nonintersection, exact.bound / 50.0);
  EXPECT_LT(exact.nonintersection, exact.bound);
}

}  // namespace
}  // namespace sqs
