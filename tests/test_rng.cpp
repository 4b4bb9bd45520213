#include "util/rng.h"
#include "util/rng_lanes.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>

namespace sqs {
namespace {

TEST(Rng, DeterministicFromSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next_u64() == b.next_u64()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(Rng, SplitByLabelIsDeterministicAndIndependent) {
  Rng base(7);
  Rng s1 = base.split("alpha");
  Rng s2 = base.split("alpha");
  Rng s3 = base.split("beta");
  EXPECT_EQ(s1.next_u64(), s2.next_u64());
  EXPECT_NE(s1.next_u64(), s3.next_u64());
}

TEST(Rng, SplitByIndexDiffers) {
  Rng base(7);
  std::set<std::uint64_t> firsts;
  for (std::uint64_t i = 0; i < 50; ++i) firsts.insert(base.split(i).next_u64());
  EXPECT_EQ(firsts.size(), 50u);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
  }
}

TEST(Rng, BernoulliMean) {
  Rng rng(11);
  int hits = 0;
  const int trials = 200000;
  for (int i = 0; i < trials; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.01);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) ASSERT_LT(rng.next_below(17), 17u);
  // All residues are reachable.
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, ExponentialMean) {
  Rng rng(9);
  double sum = 0.0;
  const int trials = 200000;
  for (int i = 0; i < trials; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / trials, 0.5, 0.02);
}

TEST(Rng, BinomialMean) {
  Rng rng(13);
  long sum = 0;
  const int trials = 50000;
  for (int i = 0; i < trials; ++i) sum += rng.binomial(20, 0.25);
  EXPECT_NEAR(static_cast<double>(sum) / trials, 5.0, 0.1);
}

TEST(Rng, NextBelowDegenerateAndHugeBounds) {
  Rng rng(21);
  // bound 1 has a single residue; bound 0 is documented to return 0.
  for (int i = 0; i < 100; ++i) ASSERT_EQ(rng.next_below(1), 0u);
  EXPECT_EQ(rng.next_below(0), 0u);
  // Bounds near 2^64 exercise the rejection threshold with almost the whole
  // range accepted; results must stay strictly below the bound.
  const std::uint64_t huge_bounds[] = {~0ull, ~0ull - 1, (1ull << 63) + 1,
                                       1ull << 63};
  for (const std::uint64_t bound : huge_bounds) {
    for (int i = 0; i < 1000; ++i) ASSERT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowIsDeterministic) {
  Rng a(33), b(33);
  for (int i = 0; i < 1000; ++i)
    ASSERT_EQ(a.next_below(~0ull - 7), b.next_below(~0ull - 7));
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(a.next_below(17), b.next_below(17));
}

TEST(Rng, BernoulliThresholdMatchesDoubleComparison) {
  // x < T  <=>  x * 2^-53 < p  for every 53-bit draw x; checked at the
  // boundary T-1, T, T+1 (where those are 53-bit values).
  const std::int64_t kLimit = std::int64_t{1} << 53;
  const double ps[] = {0.0,  1e-300, 0x1p-54, 0x1p-53, 1e-9,
                       0.1,  0.25,   0.3,     0.5,     std::nextafter(1.0, 0.0),
                       1.0,  1.5,    -0.1};
  for (const double p : ps) {
    const std::uint64_t threshold = bernoulli_threshold(p);
    ASSERT_LE(threshold, static_cast<std::uint64_t>(kLimit)) << "p=" << p;
    for (const std::int64_t d : {-1, 0, 1}) {
      const std::int64_t x = static_cast<std::int64_t>(threshold) + d;
      if (x < 0 || x >= kLimit) continue;
      EXPECT_EQ(static_cast<std::uint64_t>(x) < threshold,
                static_cast<double>(x) * 0x1p-53 < p)
          << "p=" << p << " x=" << x;
    }
  }
  EXPECT_EQ(bernoulli_threshold(0.0), 0u);
  EXPECT_EQ(bernoulli_threshold(-0.1), 0u);
  EXPECT_EQ(bernoulli_threshold(1e-300), 1u);
  EXPECT_EQ(bernoulli_threshold(0x1p-53), 1u);
  EXPECT_EQ(bernoulli_threshold(std::nextafter(1.0, 0.0)),
            static_cast<std::uint64_t>(kLimit) - 1);
  EXPECT_EQ(bernoulli_threshold(1.0), static_cast<std::uint64_t>(kLimit));
  EXPECT_EQ(bernoulli_threshold(1.5), static_cast<std::uint64_t>(kLimit));
}

TEST(Rng, ThresholdDrawsReproduceBernoulli) {
  // The integer draws must consume the stream and decide exactly like
  // bernoulli(p), on an Rng and on the one-lane RngLanes the lane
  // samplers use where no vector unit is available.
  const int kDraws = 100000;
  for (const double p : {0.0, 1e-9, 0.1, 0.3, 0.5, 1.0}) {
    const std::uint64_t threshold = bernoulli_threshold(p);
    Rng single(2024), reference(2024);
    for (int i = 0; i < kDraws; ++i)
      ASSERT_EQ(single.bernoulli_below(threshold), reference.bernoulli(p))
          << "p=" << p << " draw " << i;
    ASSERT_EQ(single.next_u64(), reference.next_u64());

    LaneStates states;
    states.set(0, Rng(2024));
    RngLanes<1> lane;
    lane.load(states);
    const LaneThreshold<1> lane_threshold(threshold);
    Rng scalar(2024);
    for (int i = 0; i < kDraws; ++i) {
      std::uint64_t up = 0;
      lane.next_up(lane_threshold, up);
      ASSERT_EQ(up, scalar.bernoulli(p) ? 0ull : ~0ull)
          << "p=" << p << " lane draw " << i;
    }
    lane.store(states);
    Rng end;
    states.get(0, end);
    ASSERT_EQ(end.next_u64(), scalar.next_u64()) << "p=" << p;
  }
}

}  // namespace
}  // namespace sqs
