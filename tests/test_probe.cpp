#include "probe/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <tuple>
#include <vector>

#include "core/constructions.h"
#include "core/masking.h"
#include "core/witness.h"
#include "probe/measurements.h"
#include "uqs/grid.h"
#include "uqs/majority.h"
#include "uqs/pqs.h"
#include "uqs/projective_plane.h"
#include "uqs/weighted_voting.h"

namespace sqs {
namespace {

// ---- OPT_d sequential strategy vs its specification ----

class OptDProbeSweep : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  int n() const { return std::get<0>(GetParam()); }
  int alpha() const { return std::get<1>(GetParam()); }
};

TEST_P(OptDProbeSweep, AcquiresExactlyWhenAlphaServersUp) {
  const OptDFamily fam(n(), alpha());
  auto strategy = fam.make_probe_strategy();
  for (std::uint64_t mask = 0; mask < (1ull << n()); ++mask) {
    Configuration config(n(), mask);
    ConfigurationOracle oracle(&config);
    const ProbeRecord record = run_probe(*strategy, oracle, nullptr);
    ASSERT_EQ(record.acquired,
              config.num_up() >= static_cast<std::size_t>(alpha()))
        << "mask=" << mask;
  }
}

TEST_P(OptDProbeSweep, StopsPerServerProbeRules) {
  const OptDFamily fam(n(), alpha());
  auto strategy = fam.make_probe_strategy();
  for (std::uint64_t mask = 0; mask < (1ull << n()); ++mask) {
    Configuration config(n(), mask);
    ConfigurationOracle oracle(&config);
    const ProbeRecord record = run_probe(*strategy, oracle, nullptr);
    // Recompute the stop step directly from Definition 26.
    int pos = 0, neg = 0, stop = 0;
    for (int i = 1; i <= n(); ++i) {
      if (config.is_up(i - 1)) {
        ++pos;
      } else {
        ++neg;
      }
      if (pos >= 2 * alpha() || pos >= n() + alpha() - i ||
          neg >= n() + 1 - alpha()) {
        stop = i;
        break;
      }
    }
    ASSERT_EQ(record.num_probes, stop) << "mask=" << mask;
  }
}

TEST_P(OptDProbeSweep, AcquiredQuorumBelongsToExplicitOptD) {
  if (n() > 10) GTEST_SKIP();
  const OptDFamily fam(n(), alpha());
  const ExplicitSqs explicit_d = opt_d_explicit(n(), alpha());
  auto strategy = fam.make_probe_strategy();
  for (std::uint64_t mask = 0; mask < (1ull << n()); ++mask) {
    Configuration config(n(), mask);
    ConfigurationOracle oracle(&config);
    const ProbeRecord record = run_probe(*strategy, oracle, nullptr);
    if (!record.acquired) continue;
    ASSERT_TRUE(explicit_d.contains_quorum(record.quorum))
        << record.quorum.to_string();
  }
}

TEST_P(OptDProbeSweep, ExplicitStrategyAgreesWithImplicit) {
  if (n() > 9) GTEST_SKIP();
  const OptDFamily fam(n(), alpha());
  const ExplicitSqs explicit_d = opt_d_explicit(n(), alpha());
  auto implicit_strategy = fam.make_probe_strategy();
  auto explicit_strategy = explicit_d.make_probe_strategy();
  for (std::uint64_t mask = 0; mask < (1ull << n()); ++mask) {
    Configuration config(n(), mask);
    ConfigurationOracle o1(&config), o2(&config);
    const ProbeRecord r1 = run_probe(*implicit_strategy, o1, nullptr);
    const ProbeRecord r2 = run_probe(*explicit_strategy, o2, nullptr);
    ASSERT_EQ(r1.acquired, r2.acquired) << mask;
    ASSERT_EQ(r1.num_probes, r2.num_probes) << mask;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, OptDProbeSweep,
                         ::testing::Values(std::make_tuple(5, 1),
                                           std::make_tuple(6, 1),
                                           std::make_tuple(5, 2),
                                           std::make_tuple(7, 2),
                                           std::make_tuple(8, 2),
                                           std::make_tuple(8, 3),
                                           std::make_tuple(11, 3)));

// ---- OPT_a strategy ----

TEST(OptAProbe, ProbesEverythingOnSuccess) {
  const OptAFamily fam(8, 2);
  auto strategy = fam.make_probe_strategy();
  Configuration all_up(8, 0xFF);
  ConfigurationOracle oracle(&all_up);
  const ProbeRecord record = run_probe(*strategy, oracle, nullptr);
  EXPECT_TRUE(record.acquired);
  EXPECT_EQ(record.num_probes, 8);
  EXPECT_EQ(record.quorum.size(), 8u);
}

TEST(OptAProbe, FailsEarlyWhenAlphaImpossible) {
  const OptAFamily fam(8, 3);
  auto strategy = fam.make_probe_strategy();
  Configuration all_down(8, 0x0);
  ConfigurationOracle oracle(&all_down);
  const ProbeRecord record = run_probe(*strategy, oracle, nullptr);
  EXPECT_FALSE(record.acquired);
  // After n+1-alpha = 6 failures, no alpha live servers remain possible.
  EXPECT_EQ(record.num_probes, 6);
}

// ---- engine invariants ----

TEST(ProbeEngine, RecordsProbedSignedSet) {
  const OptDFamily fam(6, 1);
  auto strategy = fam.make_probe_strategy();
  Configuration config(6, 0b000110);  // servers 2,3 up
  ConfigurationOracle oracle(&config);
  const ProbeRecord record = run_probe(*strategy, oracle, nullptr);
  EXPECT_TRUE(record.acquired);
  // Probes 1 (down), 2 (up), 3 (up) -> stops at 2 alpha = 2 positives.
  EXPECT_EQ(record.num_probes, 3);
  EXPECT_EQ(record.probed.to_string(), "{-1,2,3}");
  EXPECT_TRUE(record.quorum.is_subset_of(record.probed));
}

TEST(ProbeEngine, RotatedOrderProbesDifferentServers) {
  OptDFamily fam(6, 1);
  fam.set_probe_order({5, 4, 3, 2, 1, 0});
  auto strategy = fam.make_probe_strategy();
  Configuration config(6, 0b110000);  // servers 5,6 up
  ConfigurationOracle oracle(&config);
  const ProbeRecord record = run_probe(*strategy, oracle, nullptr);
  EXPECT_TRUE(record.acquired);
  EXPECT_EQ(record.num_probes, 2);
  EXPECT_EQ(record.probed.to_string(), "{5,6}");
}

// ---- Monte Carlo measurement machinery ----

TEST(Measurements, AcquireRateMatchesAvailability) {
  const OptDFamily fam(12, 2);
  const double p = 0.4;
  const ProbeMeasurement m = measure_probes(fam, p, 40000, Rng(99));
  const double expect = fam.availability(p);
  EXPECT_GT(m.acquired.wilson_high(), expect - 0.01);
  EXPECT_LT(m.acquired.wilson_low(), expect + 0.01);
}

TEST(Measurements, DeterministicSequentialLoadIsOneAtFirstServer) {
  const OptDFamily fam(10, 1);
  const ProbeMeasurement m = measure_probes(fam, 0.2, 5000, Rng(7));
  EXPECT_DOUBLE_EQ(m.server_probe_frequency[0], 1.0);
  EXPECT_DOUBLE_EQ(m.load(), 1.0);
  // Later servers are probed much less often.
  EXPECT_LT(m.server_probe_frequency[9], 0.1);
}

TEST(Measurements, WorstCaseProbesOfOptimalAvailabilitySqsIsN) {
  // Lemma 29: PC_w = n for any SQS with optimal availability.
  EXPECT_EQ(worst_case_probes(OptDFamily(8, 2), 1, Rng(1)), 8);
  EXPECT_EQ(worst_case_probes(OptAFamily(8, 2), 1, Rng(1)), 8);
}

TEST(Measurements, MaxProbesNeverExceedsUniverse) {
  const OptDFamily fam(9, 2);
  const ProbeMeasurement m = measure_probes(fam, 0.5, 2000, Rng(3));
  EXPECT_LE(m.max_probes_seen, 9);
}

// ---- golden walks of the counting families ----

void fnv_fold(std::uint64_t& h, std::uint64_t v) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (v >> (8 * byte)) & 0xFFu;
    h *= 0x100000001B3ull;
  }
}

// Drives one reused strategy over every configuration of its universe,
// each with no rng and with seeds 1-4, and folds every probe, the final
// status and the acquired quorum's positive and negative words into one
// FNV-1a value. Any change to an order, a stop rule or a quorum moves the
// pinned constants below.
std::uint64_t walk_fingerprint(const QuorumFamily& family) {
  const int n = family.universe_size();
  const std::unique_ptr<ProbeStrategy> strategy = family.make_probe_strategy();
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (std::uint64_t mask = 0; mask < (1ull << n); ++mask) {
    const Configuration config(n, mask);
    for (std::uint64_t seed = 0; seed <= 4; ++seed) {
      Rng rng(seed);
      strategy->reset(seed == 0 ? nullptr : &rng);
      while (strategy->status() == ProbeStatus::kInProgress) {
        const int s = strategy->next_server();
        fnv_fold(h, static_cast<std::uint64_t>(s));
        strategy->observe(s, config.is_up(s));
      }
      fnv_fold(h, static_cast<std::uint64_t>(strategy->status()));
      if (strategy->status() != ProbeStatus::kAcquired) continue;
      const SignedSet quorum = strategy->acquired_quorum();
      for (std::size_t w = 0; w < quorum.positive().num_words(); ++w) {
        fnv_fold(h, quorum.positive().word(w));
        fnv_fold(h, quorum.negative().word(w));
      }
    }
  }
  return h;
}

TEST(ProbeWalkGolden, CountingFamiliesWalkAsPinned) {
  OptDFamily rotated(10, 2);
  std::vector<int> order(10);
  std::iota(order.begin(), order.end(), 0);
  std::rotate(order.begin(), order.begin() + 3, order.end());
  rotated.set_probe_order(order);
  struct Case {
    const char* label;
    std::unique_ptr<QuorumFamily> family;
    std::uint64_t expected;
  };
  std::vector<Case> cases;
  cases.push_back(
      {"majority", std::make_unique<MajorityFamily>(9), 0xE7D9853D26FFCE01ull});
  cases.push_back({"threshold", std::make_unique<ThresholdFamily>(10, 4),
                   0xA2BC0FA0A5434971ull});
  cases.push_back(
      {"pqs", std::make_unique<PqsFamily>(10, 1.0), 0xA2BC0FA0A5434971ull});
  cases.push_back({"masking threshold",
                   std::make_unique<MaskingThresholdFamily>(9, 1),
                   0xF4B866AAE2138401ull});
  cases.push_back({"skewed weights",
                   std::make_unique<WeightedVotingFamily>(
                       std::vector<int>{3, 1, 1, 2, 1, 1, 2}, 6),
                   0x7730BFD8A5262D7Eull});
  cases.push_back(
      {"equal weights",
       std::make_unique<WeightedVotingFamily>(std::vector<int>(7, 2), 8),
       0x97F26D9A5BC43D25ull});
  cases.push_back(
      {"opt_a", std::make_unique<OptAFamily>(10, 2), 0xAB3457D340DF2C94ull});
  cases.push_back({"masking opt_a",
                   std::make_unique<MaskingOptAFamily>(10, 2, 1),
                   0x5649C6F6DC9E6D91ull});
  cases.push_back({"default witnesses",
                   std::make_unique<WitnessFamily>(10, 4, 2),
                   0xC30D510AA2C70325ull});
  cases.push_back({"custom witnesses",
                   std::make_unique<WitnessFamily>(
                       10, std::vector<int>{7, 2, 9, 4, 0}, 2),
                   0x3B8B1E7B36F868A5ull});
  cases.push_back(
      {"opt_d", std::make_unique<OptDFamily>(10, 2), 0x896F7C17F3206F68ull});
  cases.push_back({"rotated opt_d", std::make_unique<OptDFamily>(rotated),
                   0x2DE05F0BE9ED17B0ull});
  for (const Case& c : cases)
    EXPECT_EQ(walk_fingerprint(*c.family), c.expected) << c.label;
}

// ---- reset() draws from the rng alone ----

// Runs one acquisition where every third server is down; returns the probe
// order.
std::vector<int> probe_order(ProbeStrategy& strategy) {
  std::vector<int> order;
  while (strategy.status() == ProbeStatus::kInProgress) {
    const int s = strategy.next_server();
    order.push_back(s);
    strategy.observe(s, s % 3 != 0);
  }
  return order;
}

TEST(ProbeStrategyReset, ReusedStrategyMatchesAFreshOne) {
  // Drivers that keep one strategy per family (the simulator's client
  // slots, the served runner, the Monte Carlo loops) rely on reset(rng)
  // starting a run whose choices depend on `rng` only, not on the runs
  // before it.
  std::vector<std::unique_ptr<QuorumFamily>> families;
  families.push_back(std::make_unique<MajorityFamily>(9));
  families.push_back(std::make_unique<PqsFamily>(10, 1.0));
  families.push_back(std::make_unique<MaskingThresholdFamily>(9, 1));
  families.push_back(std::make_unique<ProjectivePlaneFamily>(2));
  families.push_back(std::make_unique<WeightedVotingFamily>(
      std::vector<int>{3, 1, 1, 2, 1, 1, 2}, 6));
  families.push_back(std::make_unique<GridFamily>(3, 3));
  families.push_back(std::make_unique<OptDFamily>(9, 2));
  families.push_back(std::make_unique<OptAFamily>(9, 2));
  families.push_back(std::make_unique<MaskingOptAFamily>(9, 2, 1));
  families.push_back(
      std::make_unique<WitnessFamily>(9, std::vector<int>{6, 1, 3, 8}, 2));
  for (const auto& family : families) {
    const std::unique_ptr<ProbeStrategy> used = family->make_probe_strategy();
    Rng history(5);
    for (int run = 0; run < 3; ++run) {
      used->reset(&history);
      probe_order(*used);
    }
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      const std::unique_ptr<ProbeStrategy> fresh =
          family->make_probe_strategy();
      Rng a(seed);
      Rng b(seed);
      used->reset(&a);
      fresh->reset(&b);
      ASSERT_EQ(probe_order(*used), probe_order(*fresh))
          << family->name() << " seed " << seed;
    }
  }
}

}  // namespace
}  // namespace sqs
