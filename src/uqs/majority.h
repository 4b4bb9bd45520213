// Threshold (voting) quorum systems: quorums are all server subsets of a
// fixed size. Majority (threshold = floor(n/2)+1, Thomas '79) is the
// availability-optimal strict quorum system for p < 1/2 — the baseline the
// paper's introduction compares against. PQS (Malkhi–Reiter–Wool) reuses the
// same family shape with a sub-majority threshold (see pqs.h).

#pragma once

#include <memory>
#include <string>

#include "core/quorum_family.h"

namespace sqs {

// All subsets of size `threshold` are quorums. Strict iff
// threshold > n/2 (any two quorums then intersect).
class ThresholdFamily : public QuorumFamily {
 public:
  ThresholdFamily(int n, int threshold, std::string name = "");

  int threshold() const { return threshold_; }

  std::string name() const override;
  int universe_size() const override { return n_; }
  int alpha() const override { return 0; }
  bool is_strict() const override { return 2 * threshold_ > n_; }
  bool accepts(const Configuration& config) const override;
  // Popcount ladder against `threshold` (see core/batch.h).
  void accepts_batch(const WorldBatch& worlds, Bitset& out) const override;
  int min_quorum_size() const override { return threshold_; }
  // Closed form: P[Bin(n, 1-p) >= threshold].
  double availability(double p) const override;
  // Randomized non-adaptive: probes a uniformly shuffled order, acquiring at
  // `threshold` successes (the reached servers form the quorum), failing as
  // soon as threshold successes are unreachable.
  std::optional<CountingWalk> counting_walk() const override;

 private:
  int n_;
  int threshold_;
  std::string name_;
};

// The majority quorum system over n servers (n odd recommended).
class MajorityFamily : public ThresholdFamily {
 public:
  explicit MajorityFamily(int n);
};

}  // namespace sqs
