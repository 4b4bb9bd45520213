#include "probe/sequential_analysis.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <optional>
#include <tuple>
#include <vector>

#include "core/constructions.h"
#include "core/witness.h"
#include "probe/engine.h"
#include "probe/measurements.h"
#include "util/binomial.h"

namespace sqs {
namespace {

class SequentialSweep
    : public ::testing::TestWithParam<std::tuple<int, int, double>> {
 protected:
  int n() const { return std::get<0>(GetParam()); }
  int alpha() const { return std::get<1>(GetParam()); }
  double p() const { return std::get<2>(GetParam()); }
};

TEST_P(SequentialSweep, PmfSumsToOne) {
  const auto a = analyze_sequential(n(), 1 - p(), opt_d_stop_rule(n(), alpha()));
  const double total =
      std::accumulate(a.probes_pmf.begin(), a.probes_pmf.end(), 0.0);
  EXPECT_NEAR(total, 1.0, 1e-10);
}

TEST_P(SequentialSweep, AcquireProbabilityEqualsOptAAvailability) {
  // The OPT_d strategy acquires exactly when >= alpha servers are up.
  const auto a = analyze_sequential(n(), 1 - p(), opt_d_stop_rule(n(), alpha()));
  EXPECT_NEAR(a.acquire_probability, binom_tail_geq(n(), alpha(), 1 - p()),
              1e-10);
}

TEST_P(SequentialSweep, PositionProbabilitiesAreMonotoneFromOne) {
  const auto a = analyze_sequential(n(), 1 - p(), opt_d_stop_rule(n(), alpha()));
  ASSERT_EQ(a.position_probe_probability.size(), static_cast<std::size_t>(n()));
  EXPECT_DOUBLE_EQ(a.position_probe_probability[0], 1.0);
  for (std::size_t j = 1; j < a.position_probe_probability.size(); ++j)
    ASSERT_LE(a.position_probe_probability[j],
              a.position_probe_probability[j - 1] + 1e-12);
}

TEST_P(SequentialSweep, ExpectedProbesEqualsSumOfPositionProbabilities) {
  // E[probes] = sum_j P[probe j issued] — a linearity identity that ties the
  // load vector to the probe complexity.
  const auto a = analyze_sequential(n(), 1 - p(), opt_d_stop_rule(n(), alpha()));
  const double sum = std::accumulate(a.position_probe_probability.begin(),
                                     a.position_probe_probability.end(), 0.0);
  EXPECT_NEAR(sum, a.expected_probes, 1e-10);
}

TEST_P(SequentialSweep, ConditionalExpectationsCombine) {
  const auto a = analyze_sequential(n(), 1 - p(), opt_d_stop_rule(n(), alpha()));
  const double combined =
      a.acquire_probability * a.expected_probes_acquired +
      (1.0 - a.acquire_probability) * a.expected_probes_failed;
  EXPECT_NEAR(combined, a.expected_probes, 1e-9);
}

TEST_P(SequentialSweep, PositionProbabilitiesMatchMonteCarloLoad) {
  if (n() > 16) GTEST_SKIP();
  const auto a = analyze_sequential(n(), 1 - p(), opt_d_stop_rule(n(), alpha()));
  const OptDFamily fam(n(), alpha());
  Rng rng(5);
  std::vector<long> counts(static_cast<std::size_t>(n()), 0);
  const int trials = 60000;
  auto strategy = fam.make_probe_strategy();
  for (int t = 0; t < trials; ++t) {
    Configuration config(Bitset(static_cast<std::size_t>(n())));
    for (int i = 0; i < n(); ++i) config.set_up(i, !rng.bernoulli(p()));
    ConfigurationOracle oracle(&config);
    const ProbeRecord record = run_probe(*strategy, oracle, nullptr);
    for (int i = 0; i < record.num_probes; ++i) ++counts[static_cast<std::size_t>(i)];
  }
  for (int j = 0; j < n(); ++j) {
    const double mc = static_cast<double>(counts[static_cast<std::size_t>(j)]) / trials;
    EXPECT_NEAR(mc, a.position_probe_probability[static_cast<std::size_t>(j)], 0.02)
        << "position " << j;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SequentialSweep,
    ::testing::Values(std::make_tuple(5, 1, 0.2), std::make_tuple(8, 2, 0.3),
                      std::make_tuple(12, 2, 0.1), std::make_tuple(14, 4, 0.45),
                      std::make_tuple(50, 3, 0.25)));

TEST(SequentialAnalysis, OptARuleProbesEverythingUnlessEarlyFail) {
  const int n = 10, alpha = 2;
  const double p = 0.2;
  const auto a = analyze_sequential(n, 1 - p, opt_a_stop_rule(n, alpha));
  // Acquire probability equals OPT_a availability.
  EXPECT_NEAR(a.acquire_probability, binom_tail_geq(n, alpha, 1 - p), 1e-10);
  // Conditioned on acquiring, exactly n probes.
  EXPECT_NEAR(a.expected_probes_acquired, n, 1e-9);
}

TEST(SequentialAnalysis, ThresholdRuleMatchesNegativeBinomialMean) {
  // With no failure exit possible until late, E[probes to k successes]
  // ~ k / (1-p) for small p and large n.
  const int n = 200, k = 10;
  const double p = 0.1;
  const auto a = analyze_sequential(
      n, 1 - p, CountingRule{n, k, CountingRule::Acquire::kAtNeed});
  EXPECT_NEAR(a.expected_probes, k / (1 - p), 0.05);
}

TEST(SequentialAnalysis, ThresholdAcquireProbabilityIsBinomialTail) {
  const int n = 15, k = 8;
  for (double p : {0.1, 0.3, 0.5}) {
    const auto a = analyze_sequential(
        n, 1 - p, CountingRule{n, k, CountingRule::Acquire::kAtNeed});
    EXPECT_NEAR(a.acquire_probability, binom_tail_geq(n, k, 1 - p), 1e-10) << p;
  }
}

// The three stop rules as they were written before CountingRule, kept here
// as the reference the rule must agree with.
StepDecision reference_opt_d(int n, int alpha, int i, int pos) {
  if (pos >= 2 * alpha || pos >= n + alpha - i) return StepDecision::kAcquire;
  if (i - pos >= n + 1 - alpha) return StepDecision::kFail;
  return StepDecision::kContinue;
}

StepDecision reference_opt_a(int n, int alpha, int i, int pos) {
  if (i - pos >= n + 1 - alpha) return StepDecision::kFail;
  if (i == n)
    return pos >= alpha ? StepDecision::kAcquire : StepDecision::kFail;
  return StepDecision::kContinue;
}

StepDecision reference_threshold(int n, int needed, int i, int pos) {
  if (pos >= needed) return StepDecision::kAcquire;
  if (pos + (n - i) < needed) return StepDecision::kFail;
  return StepDecision::kContinue;
}

TEST(SequentialAnalysis, CountingRuleMatchesTheHandWrittenStopRules) {
  for (int n = 1; n <= 40; ++n) {
    for (int need = 1; need <= n; ++need) {
      const CountingRule threshold{n, need, CountingRule::Acquire::kAtNeed};
      for (int i = 1; i <= n; ++i)
        for (int pos = 0; pos <= i; ++pos) {
          ASSERT_EQ(threshold(i, pos), reference_threshold(n, need, i, pos))
              << "threshold n=" << n << " need=" << need << " i=" << i
              << " pos=" << pos;
          if (2 * need > n) continue;
          ASSERT_EQ(opt_d_stop_rule(n, need)(i, pos),
                    reference_opt_d(n, need, i, pos))
              << "opt_d n=" << n << " alpha=" << need << " i=" << i
              << " pos=" << pos;
          ASSERT_EQ(opt_a_stop_rule(n, need)(i, pos),
                    reference_opt_a(n, need, i, pos))
              << "opt_a n=" << n << " alpha=" << need << " i=" << i
              << " pos=" << pos;
        }
    }
  }
}

// The exact DP over a family's counting walk against the Monte Carlo
// probe measurement: acquire rate, mean probes and each position's probe
// rate (its server's load) each within 6 standard deviations.
TEST(SequentialAnalysis, ExactDpMatchesMonteCarloForOptAAndWitness) {
  std::vector<std::unique_ptr<QuorumFamily>> families;
  families.push_back(std::make_unique<OptAFamily>(12, 2));
  families.push_back(std::make_unique<WitnessFamily>(24, 8, 2));
  families.push_back(
      std::make_unique<WitnessFamily>(10, std::vector<int>{7, 2, 9, 4, 0}, 2));
  const int trials = 100000;
  for (const auto& family : families) {
    for (const double p : {0.2, 0.6}) {
      const std::optional<CountingWalk> walk = family->counting_walk();
      ASSERT_TRUE(walk.has_value());
      const int steps = static_cast<int>(walk->order.size());
      const SequentialAnalysis a = analyze_sequential(steps, 1 - p, walk->rule);
      const ProbeMeasurement mc = measure_probes(*family, p, trials, Rng(77));
      auto six_sigma = [&](double q) {
        return 6.0 * std::sqrt(std::max(0.0, q * (1 - q)) / trials) + 1e-9;
      };
      EXPECT_NEAR(mc.acquired.estimate(), a.acquire_probability,
                  six_sigma(a.acquire_probability))
          << family->name() << " p=" << p;
      double second_moment = 0.0;
      for (int i = 0; i <= steps; ++i)
        second_moment += static_cast<double>(i) * i *
                         a.probes_pmf[static_cast<std::size_t>(i)];
      const double variance =
          second_moment - a.expected_probes * a.expected_probes;
      EXPECT_NEAR(mc.probes_overall.mean(), a.expected_probes,
                  6.0 * std::sqrt(std::max(0.0, variance) / trials) + 1e-9)
          << family->name() << " p=" << p;
      for (int j = 0; j < steps; ++j) {
        const double q =
            a.position_probe_probability[static_cast<std::size_t>(j)];
        const int server = walk->order[static_cast<std::size_t>(j)];
        EXPECT_NEAR(mc.server_probe_frequency[static_cast<std::size_t>(server)],
                    q, six_sigma(q))
            << family->name() << " p=" << p << " position " << j;
      }
    }
  }
}

TEST(SequentialAnalysis, DegenerateUpProbabilities) {
  const int n = 6, alpha = 2;
  // Everything up: exactly 2 alpha probes, always acquired.
  const auto up = analyze_sequential(n, 1.0, opt_d_stop_rule(n, alpha));
  EXPECT_NEAR(up.expected_probes, 2.0 * alpha, 1e-12);
  EXPECT_NEAR(up.acquire_probability, 1.0, 1e-12);
  // Everything down: fails after n+1-alpha probes.
  const auto down = analyze_sequential(n, 0.0, opt_d_stop_rule(n, alpha));
  EXPECT_NEAR(down.expected_probes, n + 1.0 - alpha, 1e-12);
  EXPECT_NEAR(down.acquire_probability, 0.0, 1e-12);
}

}  // namespace
}  // namespace sqs
