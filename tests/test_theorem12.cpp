// Theorem 12 and the same-order requirement of Sect. 6.3.
//
// Theorem 12 drops Theorem 9's "deterministic" requirement: two clients may
// draw different randomized *non-adaptive* orders and non-intersection stays
// <= epsilon^(2 alpha) — PROVIDED every order's acquirable quorums still
// belong to one common SQS (Lemma 10's proof needs T1 and T2 to come from
// the same system).
//
//   * OPT_a qualifies under ANY order: its quorums are full configurations,
//     and two configurations with disjoint positive parts automatically
//     have dual overlap |C1+| + |C2+| >= 2 alpha. Positive test.
//   * OPT_d does NOT: a prefix of one order and a prefix of another are in
//     general incompatible signed sets (e.g. {+1,+2} vs {+12,+11}), so
//     per-client shuffles leave the common-SQS hypothesis — and the
//     measured non-intersection blows far past the bound. This is exactly
//     why Sect. 6.3 says "it is necessary for all clients to use the same
//     order". Negative test.

#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "core/constructions.h"
#include "mismatch/model.h"

namespace sqs {
namespace {

// Sequential strategy over a freshly shuffled order per acquisition, with
// OPT_d's stop rules when `early_acquire` is set, or OPT_a's
// probe-everything behaviour otherwise. Randomized, non-adaptive.
class ShuffledFamily : public OptDFamily {
 public:
  ShuffledFamily(int n, int alpha, bool early_acquire)
      : OptDFamily(n, alpha), early_acquire_(early_acquire) {}

  std::string name() const override {
    return std::string(early_acquire_ ? "ShuffledOptD" : "ShuffledOptA") +
           "(n=" + std::to_string(universe_size()) +
           ",a=" + std::to_string(alpha()) + ")";
  }

  std::optional<CountingWalk> counting_walk() const override {
    return CountingWalk(identity_order(universe_size()), alpha(),
                        early_acquire_ ? CountingRule::Acquire::kServerProbe
                                       : CountingRule::Acquire::kAfterAll,
                        /*shuffled=*/true);
  }

 private:
  bool early_acquire_;
};

class Theorem12Sweep
    : public ::testing::TestWithParam<std::tuple<int, int, double>> {};

TEST_P(Theorem12Sweep, OptAUnderRandomOrdersRespectsTheBound) {
  // The positive side of Theorem 12: full-configuration quorums stay one
  // SQS under every order, so per-client shuffling keeps the guarantee.
  const auto [n, alpha, miss] = GetParam();
  const ShuffledFamily fam(n, alpha, /*early_acquire=*/false);
  MismatchModel model;
  model.p = 0.1;
  model.link_miss = miss;
  const NonintersectionStats stats =
      measure_nonintersection(fam, model, 300000, Rng(1212));
  EXPECT_LE(stats.nonintersection.wilson_low(), stats.bound)
      << "measured=" << stats.nonintersection.estimate()
      << " bound=" << stats.bound;
}

INSTANTIATE_TEST_SUITE_P(Sweep, Theorem12Sweep,
                         ::testing::Values(std::make_tuple(12, 1, 0.2),
                                           std::make_tuple(12, 2, 0.25),
                                           std::make_tuple(16, 2, 0.3)));

TEST(Theorem12, PerClientOrdersBreakOptDsGuarantee) {
  // The negative side: OPT_d prefixes from different orders are not one
  // SQS, and the measured non-intersection rate blows far past the bound
  // even though each client is individually randomized non-adaptive — the
  // operational content of Sect. 6.3's same-order requirement.
  const ShuffledFamily fam(12, 1, /*early_acquire=*/true);
  MismatchModel model;
  model.p = 0.1;
  model.link_miss = 0.2;
  const NonintersectionStats stats =
      measure_nonintersection(fam, model, 200000, Rng(77));
  EXPECT_GT(stats.nonintersection.estimate(), 3 * stats.bound)
      << "per-client orders should destroy the guarantee";
  // Two clients with ~2 positives each out of 12 rarely collide:
  EXPECT_GT(stats.nonintersection.estimate(), 0.3);
}

TEST(Theorem12, SameOrderOptDKeepsTheGuarantee) {
  // Control: identical setup but the canonical shared order (plain OPT_d).
  const OptDFamily fam(12, 1);
  MismatchModel model;
  model.p = 0.1;
  model.link_miss = 0.2;
  const NonintersectionStats stats =
      measure_nonintersection(fam, model, 200000, Rng(78));
  EXPECT_LE(stats.nonintersection.wilson_low(), stats.bound);
}

TEST(Theorem12, ShuffledStrategiesAreConclusive) {
  for (const bool early : {false, true}) {
    const ShuffledFamily fam(10, 2, early);
    auto strategy = fam.make_probe_strategy();
    Rng rng(7);
    for (std::uint64_t mask = 0; mask < (1u << 10); ++mask) {
      Configuration c(10, mask);
      ConfigurationOracle oracle(&c);
      Rng srng = rng.split(mask);
      const ProbeRecord record = run_probe(*strategy, oracle, &srng);
      ASSERT_EQ(record.acquired, c.num_up() >= 2) << mask;
    }
  }
}

TEST(Theorem12, ReusedShuffledStrategyMatchesAFreshOne) {
  // reset(rng) must draw the order from `rng` alone: a strategy reused
  // across acquisitions (as measure_nonintersection reuses it) walks the
  // same order as a fresh one given the same rng.
  const auto walk = [](ProbeStrategy& strategy, Rng& rng) {
    strategy.reset(&rng);
    std::vector<int> order;
    while (strategy.status() == ProbeStatus::kInProgress) {
      const int s = strategy.next_server();
      order.push_back(s);
      strategy.observe(s, s % 3 != 0);
    }
    return order;
  };
  for (const bool early : {false, true}) {
    const ShuffledFamily fam(10, 2, early);
    const std::unique_ptr<ProbeStrategy> used = fam.make_probe_strategy();
    Rng history(5);
    for (int run = 0; run < 3; ++run) walk(*used, history);
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      const std::unique_ptr<ProbeStrategy> fresh = fam.make_probe_strategy();
      Rng a(seed);
      Rng b(seed);
      ASSERT_EQ(walk(*used, a), walk(*fresh, b))
          << fam.name() << " seed " << seed;
    }
  }
}

TEST(Theorem12, CrossOrderOptDQuorumsViolateDefinition3) {
  // The root cause, stated set-theoretically: prefixes of different orders
  // can be incompatible signed sets.
  const SignedSet q1 = SignedSet::from_literals(12, {1, 2});     // order 1,2,...
  const SignedSet q2 = SignedSet::from_literals(12, {12, 11});   // order 12,11,...
  EXPECT_FALSE(SignedSet::compatible(q1, q2, /*alpha=*/1));
  // Whereas full configurations with disjoint positives always satisfy dual
  // overlap >= 2 alpha (OPT_a's saving grace).
  const SignedSet c1 = Configuration(12, 0b000000000011).as_signed_set();
  const SignedSet c2 = Configuration(12, 0b110000000000).as_signed_set();
  EXPECT_TRUE(SignedSet::compatible(c1, c2, /*alpha=*/2));
  EXPECT_EQ(SignedSet::dual_overlap(c1, c2), 4u);
}

}  // namespace
}  // namespace sqs
