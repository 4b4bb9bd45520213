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

CountingWalk::CountingWalk(std::vector<int> order_in, int need,
                           CountingRule::Acquire acquire, bool shuffled_in,
                           std::vector<int> weights_in)
    : order(std::move(order_in)),
      rule{0, need, acquire},
      shuffled(shuffled_in),
      weights(std::move(weights_in)) {
  for (int s : order) rule.total += votes(s);
}

CountingStrategy::CountingStrategy(int n, CountingWalk walk)
    : n_(n), walk_(std::move(walk)), order_(walk_.order) {
  assert(walk_.weights.empty() ||
         static_cast<int>(walk_.weights.size()) == n_);
  for (int s : walk_.order) assert(s >= 0 && s < n_);
  // So no walk ends before its first probe.
  assert(walk_.rule.need >= 1 && walk_.rule.need <= walk_.rule.total);
  reset(nullptr);
}

void CountingStrategy::reset(Rng* rng) {
  if (walk_.shuffled) {
    // From the base order every time, so a reused strategy draws the same
    // order from `rng` as a fresh one.
    order_ = walk_.order;
    if (rng != nullptr) {
      std::shuffle(order_.begin(), order_.end(), *rng);
      // Heavy servers first (fewer probes); equal weights keep their
      // shuffled order, so load spreads over them.
      if (!walk_.weights.empty())
        std::stable_sort(order_.begin(), order_.end(), [&](int a, int b) {
          return walk_.votes(a) > walk_.votes(b);
        });
    }
  }
  quorum_.reshape(n_);
  step_ = 0;
  pos_ = 0;
  remaining_ = walk_.rule.total;
  status_ = ProbeStatus::kInProgress;
}

void CountingStrategy::observe(int server, bool reached) {
  assert(status_ == ProbeStatus::kInProgress);
  assert(server == next_server());
  const int v = walk_.votes(server);
  remaining_ -= v;
  if (reached) {
    quorum_.add_positive(server);
    pos_ += v;
  } else if (walk_.rule.acquire != CountingRule::Acquire::kAtNeed) {
    // Failed probes still count toward load, but only the observation
    // quorums carry them.
    quorum_.add_negative(server);
  }
  ++step_;
  const StepDecision d = walk_.rule.decide(pos_, remaining_);
  if (d != StepDecision::kContinue)
    status_ = d == StepDecision::kAcquire ? ProbeStatus::kAcquired
                                          : ProbeStatus::kNoQuorum;
}

}  // namespace sqs
