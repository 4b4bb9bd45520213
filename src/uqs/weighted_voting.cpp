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

namespace {

class WeightedVotingStrategy : public ProbeStrategy {
 public:
  WeightedVotingStrategy(std::vector<int> weights, int quorum_votes, int total)
      : weights_(std::move(weights)),
        quorum_votes_(quorum_votes),
        total_votes_(total),
        n_(static_cast<int>(weights_.size())) {
    order_.resize(static_cast<std::size_t>(n_));
    reset(nullptr);
  }

  void reset(Rng* rng) override {
    // From the identity order every time, so a reused strategy draws the
    // same order from `rng` as a fresh one.
    std::iota(order_.begin(), order_.end(), 0);
    if (rng != nullptr) {
      // Shuffle, then stable-sort by weight descending: heavy servers come
      // first (fewer probes), equal weights stay uniformly ordered (load
      // spreads over them).
      std::shuffle(order_.begin(), order_.end(), *rng);
      std::stable_sort(order_.begin(), order_.end(), [&](int a, int b) {
        return weights_[static_cast<std::size_t>(a)] >
               weights_[static_cast<std::size_t>(b)];
      });
    }
    observed_ = SignedSet(n_);
    quorum_ = SignedSet(n_);
    step_ = 0;
    votes_ = 0;
    remaining_ = total_votes_;
    status_ = ProbeStatus::kInProgress;
  }

  int universe_size() const override { return n_; }
  ProbeStatus status() const override { return status_; }
  int next_server() const override { return order_[static_cast<std::size_t>(step_)]; }

  void observe(int server, bool reached) override {
    assert(status_ == ProbeStatus::kInProgress);
    remaining_ -= weights_[static_cast<std::size_t>(server)];
    if (reached) {
      observed_.add_positive(server);
      quorum_.add_positive(server);
      votes_ += weights_[static_cast<std::size_t>(server)];
    } else {
      observed_.add_negative(server);
    }
    ++step_;
    if (votes_ >= quorum_votes_) {
      status_ = ProbeStatus::kAcquired;
    } else if (votes_ + remaining_ < quorum_votes_) {
      status_ = ProbeStatus::kNoQuorum;
    }
  }

  SignedSet acquired_quorum() const override { return quorum_; }
  bool is_adaptive() const override { return false; }
  bool is_randomized() const override { return true; }

 private:
  std::vector<int> weights_;
  int quorum_votes_;
  int total_votes_;
  int n_;
  std::vector<int> order_;
  SignedSet observed_{0};
  SignedSet quorum_{0};
  int step_ = 0;
  int votes_ = 0;
  int remaining_ = 0;
  ProbeStatus status_ = ProbeStatus::kInProgress;
};

}  // namespace

std::unique_ptr<ProbeStrategy> WeightedVotingFamily::make_probe_strategy() const {
  return std::make_unique<WeightedVotingStrategy>(weights_, quorum_votes_,
                                                  total_votes_);
}

}  // namespace sqs
