#include "uqs/paths.h"

#include <gtest/gtest.h>

#include <set>

#include "core/batch.h"
#include "probe/engine.h"
#include "probe/measurements.h"

namespace sqs {
namespace {

TEST(Paths, GeometryEdgeIdsAreUniqueAndInRange) {
  for (int l : {1, 2, 3, 5}) {
    const PathsFamily ph(l);
    std::set<int> ids;
    for (int r = 0; r <= l; ++r)
      for (int c = 0; c < l; ++c) ids.insert(ph.horizontal_edge(r, c));
    for (int r = 0; r < l; ++r)
      for (int c = 0; c <= l; ++c) ids.insert(ph.vertical_edge(r, c));
    EXPECT_EQ(ids.size(), static_cast<std::size_t>(ph.universe_size())) << l;
    EXPECT_EQ(*ids.begin(), 0);
    EXPECT_EQ(*ids.rbegin(), ph.universe_size() - 1);
  }
}

TEST(Paths, UniverseSizeIsTwoLTimesLPlusOne) {
  EXPECT_EQ(PathsFamily(1).universe_size(), 4);
  EXPECT_EQ(PathsFamily(2).universe_size(), 12);
  EXPECT_EQ(PathsFamily(4).universe_size(), 40);
}

TEST(Paths, AllUpAccepts) {
  for (int l : {1, 2, 4}) {
    const PathsFamily ph(l);
    Configuration all_up(Bitset::all_set(static_cast<std::size_t>(ph.universe_size())));
    EXPECT_TRUE(ph.has_lr_path(all_up));
    EXPECT_TRUE(ph.has_tb_dual_path(all_up));
    EXPECT_TRUE(ph.accepts(all_up));
  }
}

TEST(Paths, AllDownRejects) {
  const PathsFamily ph(2);
  Configuration none(Bitset(static_cast<std::size_t>(ph.universe_size())));
  EXPECT_FALSE(ph.accepts(none));
}

TEST(Paths, StraightRowIsAnLrPath) {
  const PathsFamily ph(3);
  Configuration c(Bitset(static_cast<std::size_t>(ph.universe_size())));
  for (int col = 0; col < 3; ++col) c.set_up(ph.horizontal_edge(1, col), true);
  EXPECT_TRUE(ph.has_lr_path(c));
  EXPECT_FALSE(ph.has_tb_dual_path(c));  // one row of horizontals can't cut TB
}

TEST(Paths, StraightColumnOfHorizontalsIsATbDualPath) {
  // The TB dual path crossing H(0,c)..H(l,c) for a fixed c.
  const PathsFamily ph(3);
  Configuration c(Bitset(static_cast<std::size_t>(ph.universe_size())));
  for (int r = 0; r <= 3; ++r) c.set_up(ph.horizontal_edge(r, 1), true);
  EXPECT_TRUE(ph.has_tb_dual_path(c));
  EXPECT_FALSE(ph.has_lr_path(c));
}

class PathsExhaustiveSweep : public ::testing::TestWithParam<int> {};

TEST_P(PathsExhaustiveSweep, StrategyAgreesWithAcceptsOnAllConfigurations) {
  const int l = GetParam();
  const PathsFamily ph(l);
  const int n = ph.universe_size();
  ASSERT_LE(n, 12);
  auto strategy = ph.make_probe_strategy();
  Rng rng(3);
  for (std::uint64_t mask = 0; mask < (1ull << n); ++mask) {
    Configuration c(n, mask);
    ConfigurationOracle oracle(&c);
    Rng srng = rng.split(mask);
    const ProbeRecord record = run_probe(*strategy, oracle, &srng);
    ASSERT_EQ(record.acquired, ph.accepts(c)) << mask;
    if (record.acquired) {
      ASSERT_TRUE(c.accepts(record.quorum));
      // The returned edges must themselves contain both path types.
      Configuration quorum_only(record.quorum.positive());
      ASSERT_TRUE(ph.has_lr_path(quorum_only));
      ASSERT_TRUE(ph.has_tb_dual_path(quorum_only));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SmallGrids, PathsExhaustiveSweep, ::testing::Values(1, 2));

TEST(Paths, AcceptsBatchOnBuiltOnceMovesMatchesAPerCallBuild) {
  // accepts_batch relaxes move lists the constructor built once; one
  // long-lived family evaluating many 64-trial blocks must give the bits
  // of a family built for that one call, and of the scalar BFS.
  WorkerScratch& scratch = WorkerScratch::for_thread();
  for (int l = 1; l <= 10; ++l) {
    const PathsFamily shared(l);
    const int n = shared.universe_size();
    Rng rng(static_cast<std::uint64_t>(l));
    for (const double p : {0.2, 0.45}) {
      for (int block = 0; block < 8; ++block) {
        WorldBatch worlds;
        sample_worlds_into(n, p, 64, rng, scratch, worlds);
        Bitset reused;
        Bitset fresh;
        shared.accepts_batch(worlds, reused);
        PathsFamily(l).accepts_batch(worlds, fresh);
        ASSERT_TRUE(reused.word(0) == fresh.word(0))
            << "l=" << l << " p=" << p << " block " << block;
        Configuration config;
        for (std::uint64_t t = 0; t < 64; ++t) {
          worlds.extract_trial(t, config);
          ASSERT_EQ(reused.test(static_cast<std::size_t>(t)),
                    shared.accepts(config))
              << "l=" << l << " p=" << p << " block " << block << " trial "
              << t;
        }
      }
    }
  }
}

TEST(Paths, AcquiredQuorumsPairwiseIntersect) {
  // The planar crossing argument: every LR path crosses every TB dual path.
  const PathsFamily ph(4);
  Configuration all_up(Bitset::all_set(static_cast<std::size_t>(ph.universe_size())));
  Rng rng(11);
  std::vector<SignedSet> quorums;
  auto strategy = ph.make_probe_strategy();
  for (int t = 0; t < 60; ++t) {
    ConfigurationOracle oracle(&all_up);
    Rng srng = rng.split(t);
    quorums.push_back(run_probe(*strategy, oracle, &srng).quorum);
  }
  for (std::size_t i = 0; i < quorums.size(); ++i)
    for (std::size_t j = i + 1; j < quorums.size(); ++j)
      ASSERT_TRUE(SignedSet::positively_intersects(quorums[i], quorums[j]))
          << i << "," << j;
}

TEST(Paths, QuorumsIntersectUnderRandomFailures) {
  // Same property exercised on degraded configurations, where the paths
  // wiggle more.
  const PathsFamily ph(4);
  const int n = ph.universe_size();
  Rng rng(13);
  std::vector<SignedSet> quorums;
  auto strategy = ph.make_probe_strategy();
  for (int t = 0; t < 300; ++t) {
    Configuration c(Bitset(static_cast<std::size_t>(n)));
    for (int i = 0; i < n; ++i) c.set_up(i, !rng.bernoulli(0.2));
    ConfigurationOracle oracle(&c);
    Rng srng = rng.split(t);
    const ProbeRecord record = run_probe(*strategy, oracle, &srng);
    if (record.acquired) quorums.push_back(record.quorum);
  }
  ASSERT_GT(quorums.size(), 50u);
  for (std::size_t i = 0; i < quorums.size(); ++i)
    for (std::size_t j = i + 1; j < quorums.size(); ++j)
      ASSERT_TRUE(SignedSet::positively_intersects(quorums[i], quorums[j]));
}

TEST(Paths, AvailabilityImprovesWithLBelowCriticalP) {
  // Theorem 45: 1 - Avail = O(e^-l) for p < 1/2.
  const double p = 0.2;
  const double a2 = PathsFamily(2).availability(p);
  const double a5 = PathsFamily(5).availability(p);
  const double a8 = PathsFamily(8).availability(p);
  EXPECT_GT(a5, a2 - 0.02);
  EXPECT_GT(a8, 0.99);
  EXPECT_GT(a8, a2);
}

TEST(Paths, ProbeComplexityScalesLinearlyInL) {
  // PC_e* = O(l): doubling l should roughly double expected probes, far
  // from squaring it.
  const double p = 0.05;
  const ProbeMeasurement m4 = measure_probes(PathsFamily(4), p, 4000, Rng(7));
  const ProbeMeasurement m8 = measure_probes(PathsFamily(8), p, 4000, Rng(7));
  const double ratio = m8.probes_overall.mean() / m4.probes_overall.mean();
  EXPECT_GT(ratio, 1.3);
  EXPECT_LT(ratio, 3.5);
}

TEST(Paths, LoadDecreasesWithL) {
  // Load = O(1/l): measured max server probe frequency drops as l grows.
  const double p = 0.05;
  const ProbeMeasurement m3 = measure_probes(PathsFamily(3), p, 8000, Rng(9));
  const ProbeMeasurement m8 = measure_probes(PathsFamily(8), p, 8000, Rng(9));
  EXPECT_LT(m8.load(), m3.load());
  EXPECT_LT(m8.load(), 0.5);
}

}  // namespace
}  // namespace sqs
