// Weighted voting (Gifford 1979): each server carries a vote weight and a
// quorum is any server set whose weights sum to at least the quorum
// threshold. Strict iff the threshold exceeds half the total weight. With
// equal weights this degenerates to the threshold/majority system; with
// skewed weights it models heterogeneous deployments (a few well-connected
// replicas plus many weak ones), a useful composition input and baseline.

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/quorum_family.h"

namespace sqs {

class WeightedVotingFamily : public QuorumFamily {
 public:
  // `weights[i]` is server i's vote count (>= 1); `quorum_votes` is the
  // number of votes needed to form a quorum.
  WeightedVotingFamily(std::vector<int> weights, int quorum_votes);

  int total_votes() const { return total_votes_; }
  int quorum_votes() const { return quorum_votes_; }
  const std::vector<int>& weights() const { return weights_; }

  std::string name() const override;
  int universe_size() const override { return static_cast<int>(weights_.size()); }
  int alpha() const override { return 0; }
  bool is_strict() const override { return 2 * quorum_votes_ > total_votes_; }
  bool accepts(const Configuration& config) const override;
  // Fewest servers whose weights reach the threshold (heaviest first).
  int min_quorum_size() const override;
  // Randomized strategy: probes a shuffled order, weighted toward heavy
  // servers, accumulating votes; acquires at the threshold, fails once the
  // unprobed weight cannot close the gap.
  std::optional<CountingWalk> counting_walk() const override;

 private:
  std::vector<int> weights_;
  int quorum_votes_;
  int total_votes_;
};

}  // namespace sqs
