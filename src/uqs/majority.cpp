#include "uqs/majority.h"

#include <cassert>

#include "core/batch.h"

#include "util/binomial.h"

namespace sqs {

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

std::optional<CountingWalk> ThresholdFamily::counting_walk() const {
  return CountingWalk(identity_order(n_), threshold_,
                      CountingRule::Acquire::kAtNeed, /*shuffled=*/true);
}

MajorityFamily::MajorityFamily(int n)
    : ThresholdFamily(n, n / 2 + 1, "Majority(n=" + std::to_string(n) + ")") {}

}  // namespace sqs
