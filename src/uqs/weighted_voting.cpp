#include "uqs/weighted_voting.h"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace sqs {

WeightedVotingFamily::WeightedVotingFamily(std::vector<int> weights,
                                           int quorum_votes)
    : weights_(std::move(weights)),
      quorum_votes_(quorum_votes),
      total_votes_(std::accumulate(weights_.begin(), weights_.end(), 0)) {
  assert(!weights_.empty());
  for (int w : weights_) assert(w >= 1);
  assert(quorum_votes_ >= 1 && quorum_votes_ <= total_votes_);
}

std::string WeightedVotingFamily::name() const {
  return "WeightedVoting(n=" + std::to_string(universe_size()) +
         ",q=" + std::to_string(quorum_votes_) + "/" +
         std::to_string(total_votes_) + ")";
}

bool WeightedVotingFamily::accepts(const Configuration& config) const {
  int votes = 0;
  for (int i = 0; i < universe_size(); ++i)
    if (config.is_up(i)) votes += weights_[static_cast<std::size_t>(i)];
  return votes >= quorum_votes_;
}

int WeightedVotingFamily::min_quorum_size() const {
  std::vector<int> sorted = weights_;
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  int votes = 0;
  int count = 0;
  for (int w : sorted) {
    if (votes >= quorum_votes_) break;
    votes += w;
    ++count;
  }
  return count;
}

std::optional<CountingWalk> WeightedVotingFamily::counting_walk() const {
  return CountingWalk(identity_order(universe_size()), quorum_votes_,
                      CountingRule::Acquire::kAtNeed, /*shuffled=*/true,
                      weights_);
}

}  // namespace sqs
