#include "core/constructions.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <tuple>

#include "core/optimality.h"

namespace sqs {
namespace {

// ---- parameterized structural sweep over (n, alpha) ----

class ConstructionSweep : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  int n() const { return std::get<0>(GetParam()); }
  int alpha() const { return std::get<1>(GetParam()); }
};

TEST_P(ConstructionSweep, OptAIsValidSqs) {
  EXPECT_TRUE(opt_a_explicit(n(), alpha()).is_valid_sqs());
}

TEST_P(ConstructionSweep, OptAQuorumCountMatchesBinomialTail) {
  std::size_t expect = 0;
  for (int i = alpha(); i <= n(); ++i) {
    double c = 1;
    for (int j = 0; j < i; ++j) c = c * (n() - j) / (j + 1);
    expect += static_cast<std::size_t>(c + 0.5);
  }
  EXPECT_EQ(opt_a_explicit(n(), alpha()).num_quorums(), expect);
}

TEST_P(ConstructionSweep, OptBIsValidSqsWithOptAAvailability) {
  if (n() < 3 * alpha() - 1) GTEST_SKIP();
  const ExplicitSqs b = opt_b_explicit(n(), alpha());
  EXPECT_TRUE(b.is_valid_sqs());
  const ExplicitSqs a = opt_a_explicit(n(), alpha());
  for (double p : {0.1, 0.3, 0.45})
    EXPECT_NEAR(b.availability(p), a.availability(p), 1e-12) << p;
}

TEST_P(ConstructionSweep, OptCIsValidSqsWithOptAAvailability) {
  if (n() < 3 * alpha() - 1) GTEST_SKIP();
  const ExplicitSqs c = opt_c_explicit(n(), alpha());
  EXPECT_TRUE(c.is_valid_sqs());
  const ExplicitSqs a = opt_a_explicit(n(), alpha());
  for (double p : {0.1, 0.3, 0.45})
    EXPECT_NEAR(c.availability(p), a.availability(p), 1e-12) << p;
}

TEST_P(ConstructionSweep, OptDIsValidSqsWithOptAAvailability) {
  if (n() < 3 * alpha() - 1) GTEST_SKIP();
  const ExplicitSqs d = opt_d_explicit(n(), alpha());
  EXPECT_TRUE(d.is_valid_sqs());
  const ExplicitSqs a = opt_a_explicit(n(), alpha());
  for (double p : {0.1, 0.3, 0.45})
    EXPECT_NEAR(d.availability(p), a.availability(p), 1e-12) << p;
}

TEST_P(ConstructionSweep, OptimalConstructionsSatisfyTheorem20) {
  if (n() < 3 * alpha() - 1) GTEST_SKIP();
  EXPECT_EQ(theorem20_violation(opt_a_explicit(n(), alpha())), std::nullopt);
  EXPECT_EQ(theorem20_violation(opt_b_explicit(n(), alpha())), std::nullopt);
  EXPECT_EQ(theorem20_violation(opt_c_explicit(n(), alpha())), std::nullopt);
  EXPECT_EQ(theorem20_violation(opt_d_explicit(n(), alpha())), std::nullopt);
}

TEST_P(ConstructionSweep, AcceptanceSetsOfAllOptimalConstructionsAreOptA) {
  // Corollary 18: Avail(Q) = Avail(OPT_a) iff As(Q) = OPT_a.
  if (n() < 3 * alpha() - 1 || n() > 10) GTEST_SKIP();
  const ExplicitSqs a = opt_a_explicit(n(), alpha());
  for (const ExplicitSqs* q :
       {&a}) {  // OPT_a's acceptance set is itself (quorums are configs)
    const ExplicitSqs as = q->acceptance_set();
    EXPECT_EQ(as.num_quorums(), a.num_quorums());
  }
  const ExplicitSqs d = opt_d_explicit(n(), alpha());
  const ExplicitSqs as_d = d.acceptance_set();
  ASSERT_EQ(as_d.num_quorums(), a.num_quorums());
  for (const auto& quorum : a.quorums())
    EXPECT_TRUE(as_d.contains_quorum(quorum));
}

TEST_P(ConstructionSweep, ImplicitOptAMatchesExplicit) {
  const OptAFamily fam(n(), alpha());
  const ExplicitSqs exp = opt_a_explicit(n(), alpha());
  for (std::uint64_t mask = 0; mask < (1ull << n()); ++mask) {
    Configuration c(n(), mask);
    ASSERT_EQ(fam.accepts(c), exp.accepts(c)) << mask;
  }
  for (double p : {0.1, 0.3, 0.45})
    EXPECT_NEAR(fam.availability(p), exp.availability(p), 1e-10);
}

TEST_P(ConstructionSweep, ImplicitOptDAcceptanceEqualsOptA) {
  if (n() < 3 * alpha() - 1) GTEST_SKIP();
  const OptDFamily fam(n(), alpha());
  const OptAFamily a(n(), alpha());
  for (std::uint64_t mask = 0; mask < (1ull << n()); ++mask) {
    Configuration c(n(), mask);
    ASSERT_EQ(fam.accepts(c), a.accepts(c)) << mask;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SmallUniverses, ConstructionSweep,
    ::testing::Values(std::make_tuple(2, 1), std::make_tuple(3, 1),
                      std::make_tuple(4, 1), std::make_tuple(5, 1),
                      std::make_tuple(6, 1), std::make_tuple(5, 2),
                      std::make_tuple(6, 2), std::make_tuple(7, 2),
                      std::make_tuple(8, 2), std::make_tuple(9, 3),
                      std::make_tuple(10, 3)));

// ---- targeted structural facts ----

TEST(Constructions, OptAQuorumsAreFullConfigurations) {
  const ExplicitSqs a = opt_a_explicit(5, 2);
  for (const auto& q : a.quorums()) {
    EXPECT_EQ(q.size(), 5u);
    EXPECT_GE(q.positive_count(), 2u);
  }
}

TEST(Constructions, HoleQuorumsHaveOneMissingServer) {
  const int n = 6, alpha = 2;
  const ExplicitSqs hole = hole_explicit(n, alpha);
  for (const auto& q : hole.quorums()) {
    EXPECT_EQ(q.size(), static_cast<std::size_t>(n - 1));
    EXPECT_EQ(q.positive_count(), static_cast<std::size_t>(alpha + 1));
  }
  // |HOLE| = n * C(n-1, alpha+1).
  EXPECT_EQ(hole.num_quorums(), 6u * 10u);
}

TEST(Constructions, HoleIsPermutationInvariant) {
  // "An important property of HOLE is that it remains the same after any
  // permutation."
  const ExplicitSqs hole = hole_explicit(5, 1);
  const std::vector<int> perm{3, 0, 4, 1, 2};
  const ExplicitSqs permuted = hole.permuted(perm);
  ASSERT_EQ(hole.num_quorums(), permuted.num_quorums());
  for (const auto& q : permuted.quorums()) EXPECT_TRUE(hole.contains_quorum(q));
}

TEST(Constructions, Theorem24WitnessesAreIncompatible) {
  for (int alpha : {1, 2, 3}) {
    const int n = 3 * alpha + 1;
    const auto [qb, qc] = theorem24_witnesses(n, alpha);
    EXPECT_FALSE(SignedSet::positively_intersects(qb, qc));
    EXPECT_EQ(SignedSet::dual_overlap(qb, qc),
              static_cast<std::size_t>(2 * alpha - 1));
    EXPECT_FALSE(SignedSet::compatible(qb, qc, alpha));
    // And they are (contained in) quorums of OPT_b / OPT_c respectively.
    if (n <= 10) {
      EXPECT_TRUE(opt_b_explicit(n, alpha).contains_quorum(qb));
      const ExplicitSqs opt_c = opt_c_explicit(n, alpha);
      bool contained = false;
      for (const auto& q : opt_c.quorums()) contained = contained || q == qc;
      EXPECT_TRUE(contained);
    }
  }
}

TEST(Constructions, NoSqsCanContainSubsetsOfBothWitnesses) {
  // The heart of Theorem 24: any SQS holding Q1 ⊆ qb and Q2 ⊆ qc violates
  // Definition 3 — subsets only shrink dual overlap.
  const auto [qb, qc] = theorem24_witnesses(7, 2);
  EXPECT_LE(SignedSet::dual_overlap(qb, qc), 3u);
  // Exhaustively check a sample of subset pairs.
  for (std::uint64_t bm = 1; bm < 16; ++bm) {
    SignedSet q1(7);
    for (int i = 0; i < 4; ++i)
      if ((bm >> i) & 1u) q1.add_positive(i);
    if (q1.positive_count() == 0) continue;
    EXPECT_FALSE(SignedSet::compatible(q1, qc, 2) &&
                 SignedSet::dual_overlap(q1, qc) >= 4)
        << q1.to_string();
  }
}

TEST(Constructions, LadLayerSizes) {
  EXPECT_EQ(lad_explicit(6, 3).size(), 8u);  // 2^3 sign assignments
  // LADA_i keeps those with >= 2 alpha positives.
  const auto lada = lada_explicit(8, 4, 1);
  for (const auto& s : lada) {
    EXPECT_EQ(s.size(), 4u);
    EXPECT_GE(s.positive_count(), 2u);
  }
  EXPECT_EQ(lada.size(), 11u);  // C(4,2)+C(4,3)+C(4,4) = 6+4+1
  // LADB_i keeps those with >= n + alpha - i positives.
  const auto ladb = ladb_explicit(8, 8, 1);
  for (const auto& s : ladb) EXPECT_GE(s.positive_count(), 1u);
  EXPECT_EQ(ladb.size(), 255u);  // 2^8 - 1 (only the all-negative set fails)
}

TEST(Constructions, OptALocallyOptimal) {
  // "we cannot add another configuration into OPT_a while still keeping it
  // an SQS": any configuration with < alpha positives is incompatible.
  const int n = 6, alpha = 2;
  const ExplicitSqs a = opt_a_explicit(n, alpha);
  for (std::uint64_t mask = 0; mask < (1ull << n); ++mask) {
    if (__builtin_popcountll(mask) >= alpha) continue;
    const SignedSet candidate = Configuration(n, mask).as_signed_set();
    if (candidate.positive_count() == 0) continue;
    EXPECT_FALSE(a.can_add(candidate)) << candidate.to_string();
  }
}

TEST(Constructions, OptDProbeOrderRotation) {
  OptDFamily fam(9, 2);
  std::vector<int> order(9);
  std::iota(order.begin(), order.end(), 0);
  std::rotate(order.begin(), order.begin() + 3, order.end());
  fam.set_probe_order(order);
  EXPECT_EQ(fam.counting_walk()->order[0], 3);
  auto strategy = fam.make_probe_strategy();
  strategy->reset(nullptr);
  EXPECT_EQ(strategy->next_server(), 3);
}

TEST(Constructions, ImplicitFamilyMetadata) {
  const OptAFamily a(20, 3);
  EXPECT_EQ(a.universe_size(), 20);
  EXPECT_EQ(a.alpha(), 3);
  EXPECT_FALSE(a.is_strict());
  EXPECT_EQ(a.min_quorum_size(), 20);
  const OptDFamily d(20, 3);
  EXPECT_EQ(d.min_quorum_size(), 6);
  EXPECT_NE(a.name().find("OPT_a"), std::string::npos);
  EXPECT_NE(d.name().find("OPT_d"), std::string::npos);
}

TEST(Constructions, OptAAvailabilityClosedFormLargeN) {
  // At n=1000, alpha=2, p=0.9 the system is still nearly always available:
  // P[Bin(1000, 0.1) >= 2] ~ 1.
  const OptAFamily fam(1000, 2);
  EXPECT_GT(fam.availability(0.9), 0.999);
  // Majority at that p would be hopeless; OPT_a is the paper's headline.
}

}  // namespace
}  // namespace sqs
