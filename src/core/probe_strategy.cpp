#include "core/probe_strategy.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <utility>

namespace sqs {

std::vector<int> identity_order(int n) {
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  return order;
}

CountingStrategy::CountingStrategy(int n, std::vector<int> order, int need,
                                   Acquire acquire, bool shuffled,
                                   std::vector<int> weights)
    : n_(n),
      base_(std::move(order)),
      order_(base_),
      need_(need),
      acquire_(acquire),
      shuffled_(shuffled),
      weights_(std::move(weights)) {
  assert(weights_.empty() || static_cast<int>(weights_.size()) == n_);
  for (int s : base_) {
    assert(s >= 0 && s < n_);
    total_ += votes(s);
  }
  // So no walk ends before its first probe.
  assert(need_ >= 1 && need_ <= total_);
  reset(nullptr);
}

void CountingStrategy::reset(Rng* rng) {
  if (shuffled_) {
    // From the base order every time, so a reused strategy draws the same
    // order from `rng` as a fresh one.
    order_ = base_;
    if (rng != nullptr) {
      std::shuffle(order_.begin(), order_.end(), *rng);
      // Heavy servers first (fewer probes); equal weights keep their
      // shuffled order, so load spreads over them.
      if (!weights_.empty())
        std::stable_sort(order_.begin(), order_.end(),
                         [&](int a, int b) { return votes(a) > votes(b); });
    }
  }
  quorum_.reshape(n_);
  step_ = 0;
  pos_ = 0;
  remaining_ = total_;
  status_ = ProbeStatus::kInProgress;
}

void CountingStrategy::observe(int server, bool reached) {
  assert(status_ == ProbeStatus::kInProgress);
  assert(server == next_server());
  const int v = votes(server);
  remaining_ -= v;
  if (reached) {
    quorum_.add_positive(server);
    pos_ += v;
  } else if (acquire_ != Acquire::kAtNeed) {
    // Failed probes still count toward load, but only the observation
    // quorums carry them.
    quorum_.add_negative(server);
  }
  ++step_;
  if (pos_ + remaining_ < need_) {
    status_ = ProbeStatus::kNoQuorum;
    return;
  }
  bool acquired = false;
  switch (acquire_) {
    case Acquire::kAtNeed:
      acquired = pos_ >= need_;
      break;
    case Acquire::kServerProbe:
      acquired = pos_ >= std::min(2 * need_, need_ + remaining_);
      break;
    case Acquire::kAfterAll:
      acquired = remaining_ == 0;
      break;
  }
  if (acquired) status_ = ProbeStatus::kAcquired;
}

}  // namespace sqs
