#include "core/witness.h"

#include <cassert>
#include <set>

#include "util/binomial.h"

namespace sqs {

WitnessFamily::WitnessFamily(int n, std::vector<int> witnesses, int alpha)
    : n_(n), witnesses_(std::move(witnesses)), alpha_(alpha) {
  assert(alpha_ >= 1);
  assert(static_cast<int>(witnesses_.size()) >= 2 * alpha_ &&
         "need w >= 2 alpha witnesses for dual overlap to be satisfiable");
  std::set<int> unique(witnesses_.begin(), witnesses_.end());
  assert(unique.size() == witnesses_.size() && "witnesses must be distinct");
  for (int w : witnesses_) assert(w >= 0 && w < n_);
  (void)unique;
}

WitnessFamily::WitnessFamily(int n, int w, int alpha)
    : WitnessFamily(n, identity_order(w), alpha) {}

std::string WitnessFamily::name() const {
  return "Witness(n=" + std::to_string(n_) + ",w=" +
         std::to_string(num_witnesses()) + ",a=" + std::to_string(alpha_) + ")";
}

bool WitnessFamily::accepts(const Configuration& config) const {
  int up = 0;
  for (int w : witnesses_)
    if (config.is_up(w)) ++up;
  return up >= alpha_;
}

double WitnessFamily::availability(double p) const {
  return binom_tail_geq(num_witnesses(), alpha_, 1.0 - p);
}

// The quorum is the full signed observation of the witness set.
std::optional<CountingWalk> WitnessFamily::counting_walk() const {
  return CountingWalk(witnesses_, alpha_, CountingRule::Acquire::kAfterAll);
}

}  // namespace sqs
