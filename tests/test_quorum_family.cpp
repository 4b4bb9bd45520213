#include "core/quorum_family.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/composition.h"
#include "core/constructions.h"
#include "core/masking.h"
#include "core/witness.h"
#include "uqs/grid.h"
#include "uqs/majority.h"
#include "uqs/paths.h"
#include "uqs/projective_plane.h"
#include "uqs/tree.h"

namespace sqs {
namespace {

TEST(QuorumFamily, DefaultAvailabilityIsExactForSmallUniverses) {
  // Grid has no closed form, so it uses the QuorumFamily default; at n=16
  // that is exhaustive enumeration and must match a hand enumeration.
  const GridFamily grid(4, 4);
  for (double p : {0.15, 0.35}) {
    double expect = 0.0;
    for (std::uint64_t mask = 0; mask < (1u << 16); ++mask) {
      Configuration c(16, mask);
      if (grid.accepts(c)) expect += c.probability(p);
    }
    EXPECT_NEAR(grid.availability(p), expect, 1e-10) << p;
  }
}

// Reaches the protected QuorumFamily default (exact enumeration at these
// sizes) through a family that overrides availability() with a formula.
template <typename Family>
class DefaultAvailability : public Family {
 public:
  using Family::Family;
  double availability(double p) const override {
    return QuorumFamily::availability(p);
  }
};

TEST(QuorumFamily, ExactEnumerationEqualsTheOneMaskLoop) {
  // The enumeration evaluates 64 masks per accepts_batch call and weighs
  // them by popcount; its sum must equal the one-configuration-at-a-time
  // loop exactly, not just closely, for every representation.
  const std::vector<std::shared_ptr<const QuorumFamily>> families = {
      std::make_shared<DefaultAvailability<GridFamily>>(4, 4),
      std::make_shared<PathsFamily>(2),
      std::make_shared<ProjectivePlaneFamily>(3),
      std::make_shared<DefaultAvailability<OptDFamily>>(12, 2),
      std::make_shared<DefaultAvailability<OptAFamily>>(5, 2),
      std::make_shared<DefaultAvailability<MajorityFamily>>(9),
      std::make_shared<DefaultAvailability<TreeFamily>>(2),
      std::make_shared<DefaultAvailability<WitnessFamily>>(14, 6, 2),
      std::make_shared<DefaultAvailability<MaskingThresholdFamily>>(9, 1),
      std::make_shared<DefaultAvailability<CompositionFamily>>(
          std::make_shared<MajorityFamily>(5), 10, 1),
  };
  for (const auto& family : families) {
    const int n = family->universe_size();
    ASSERT_LE(n, 16) << family->name();
    for (const double p : {0.05, 0.2, 0.5, 0.77}) {
      double expect = 0.0;
      for (std::uint64_t mask = 0; mask < (1ull << n); ++mask) {
        const Configuration c(n, mask);
        if (family->accepts(c)) expect += c.probability(p);
      }
      EXPECT_EQ(family->availability(p), expect)
          << family->name() << " p=" << p;
    }
  }
}

TEST(QuorumFamily, DefaultAvailabilityIsDeterministicMonteCarloBeyond24) {
  // Paths(3) has 24 servers — still exact; Paths(4) has 40 — Monte Carlo
  // with a fixed internal seed, so repeated calls agree bit-for-bit.
  const PathsFamily big(4);
  const double a1 = big.availability(0.25);
  const double a2 = big.availability(0.25);
  EXPECT_DOUBLE_EQ(a1, a2);
  EXPECT_GT(a1, 0.8);
  EXPECT_LT(a1, 1.0);
}

TEST(QuorumFamily, MonteCarloTracksClosedFormWhereBothExist) {
  // OPT_a has a closed form; the generic Monte Carlo estimate (accessed via
  // the protected default through a thin subclass) must agree closely.
  class NoFormula : public OptAFamily {
   public:
    using OptAFamily::OptAFamily;
    double availability(double p) const override {
      return QuorumFamily::availability(p);  // force the default path
    }
  };
  const NoFormula generic(40, 2);
  const OptAFamily formula(40, 2);
  for (double p : {0.3, 0.6, 0.8})
    EXPECT_NEAR(generic.availability(p), formula.availability(p), 0.01) << p;
}

TEST(QuorumFamily, AvailabilityIsMonotoneInP) {
  // More failures can only hurt: availability is non-increasing in p for
  // every family (spot-check one of each representation).
  const OptDFamily opt_d(30, 2);
  const GridFamily grid(4, 4);
  double prev_d = 1.1, prev_g = 1.1;
  for (double p : {0.05, 0.2, 0.4, 0.6, 0.8}) {
    const double d = opt_d.availability(p);
    const double g = grid.availability(p);
    EXPECT_LE(d, prev_d + 1e-12) << p;
    EXPECT_LE(g, prev_g + 1e-12) << p;
    prev_d = d;
    prev_g = g;
  }
}

}  // namespace
}  // namespace sqs
