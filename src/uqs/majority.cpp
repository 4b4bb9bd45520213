#include "uqs/majority.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "core/batch.h"

#include "util/binomial.h"

namespace sqs {

namespace {

class ThresholdStrategy : public ProbeStrategy {
 public:
  ThresholdStrategy(int n, int threshold) : n_(n), threshold_(threshold) {
    order_.resize(static_cast<std::size_t>(n_));
    reset(nullptr);
  }

  void reset(Rng* rng) override {
    // From the identity order every time, so a reused strategy draws the
    // same order from `rng` as a fresh one.
    std::iota(order_.begin(), order_.end(), 0);
    if (rng != nullptr) std::shuffle(order_.begin(), order_.end(), *rng);
    observed_.reshape(n_);
    quorum_.reshape(n_);
    step_ = 0;
    pos_ = 0;
    status_ = threshold_ <= 0 ? ProbeStatus::kAcquired : ProbeStatus::kInProgress;
  }

  int universe_size() const override { return n_; }
  ProbeStatus status() const override { return status_; }
  int next_server() const override { return order_[static_cast<std::size_t>(step_)]; }

  void observe(int server, bool reached) override {
    assert(status_ == ProbeStatus::kInProgress);
    if (reached) {
      observed_.add_positive(server);
      quorum_.add_positive(server);
      ++pos_;
    } else {
      observed_.add_negative(server);
    }
    ++step_;
    if (pos_ >= threshold_) {
      status_ = ProbeStatus::kAcquired;
    } else if (pos_ + (n_ - step_) < threshold_) {
      status_ = ProbeStatus::kNoQuorum;
    }
  }

  // The quorum is the set of reached servers only; failed probes are wasted
  // probes that still count toward load.
  SignedSet acquired_quorum() const override { return quorum_; }
  void acquired_quorum_into(SignedSet& out) const override { out = quorum_; }
  bool is_adaptive() const override { return false; }
  bool is_randomized() const override { return true; }

 private:
  int n_;
  int threshold_;
  std::vector<int> order_;
  SignedSet observed_{0};
  SignedSet quorum_{0};
  int step_ = 0;
  int pos_ = 0;
  ProbeStatus status_ = ProbeStatus::kInProgress;
};

}  // namespace

ThresholdFamily::ThresholdFamily(int n, int threshold, std::string name)
    : n_(n), threshold_(threshold), name_(std::move(name)) {
  assert(threshold >= 1 && threshold <= n);
}

std::string ThresholdFamily::name() const {
  if (!name_.empty()) return name_;
  return "Threshold(n=" + std::to_string(n_) + ",t=" + std::to_string(threshold_) + ")";
}

bool ThresholdFamily::accepts(const Configuration& config) const {
  return config.num_up() >= static_cast<std::size_t>(threshold_);
}

void ThresholdFamily::accepts_batch(const WorldBatch& worlds,
                                    Bitset& out) const {
  batch_count_at_least(worlds, threshold_, out);
}

double ThresholdFamily::availability(double p) const {
  return binom_tail_geq(n_, threshold_, 1.0 - p);
}

std::unique_ptr<ProbeStrategy> ThresholdFamily::make_probe_strategy() const {
  return std::make_unique<ThresholdStrategy>(n_, threshold_);
}

MajorityFamily::MajorityFamily(int n)
    : ThresholdFamily(n, n / 2 + 1, "Majority(n=" + std::to_string(n) + ")") {}

}  // namespace sqs
