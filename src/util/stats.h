// Small statistics helpers shared by the benches and the simulator.

#pragma once

#include <cstddef>

namespace sqs {

// Online mean/variance accumulator (Welford). Cheap enough to keep per-server
// in the load benches.
class RunningStat {
 public:
  void add(double x) {
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
  }

  // Folds another accumulator in (Chan et al.'s pairwise update). Used by
  // the parallel trial runtime to reduce per-chunk statistics in chunk
  // order, which keeps the combined value deterministic for any thread
  // count (though not bit-equal to one long sequence of add() calls).
  void merge(const RunningStat& other) {
    if (other.count_ == 0) return;
    if (count_ == 0) {
      *this = other;
      return;
    }
    const double na = static_cast<double>(count_);
    const double nb = static_cast<double>(other.count_);
    const double delta = other.mean_ - mean_;
    mean_ += delta * (nb / (na + nb));
    m2_ += other.m2_ + delta * delta * (na * nb / (na + nb));
    count_ += other.count_;
  }

  std::size_t count() const { return count_; }
  double mean() const { return mean_; }
  double variance() const {
    return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
  }
  double stddev() const;
  // Half-width of the normal-approximation 95% confidence interval.
  double ci95_half_width() const;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

// Bernoulli proportion estimate with a 95% Wilson interval; used for
// availability and non-intersection probabilities where counts can be tiny.
struct Proportion {
  std::size_t successes = 0;
  std::size_t trials = 0;

  void add(bool success) {
    ++trials;
    if (success) ++successes;
  }
  void merge(const Proportion& other) {
    successes += other.successes;
    trials += other.trials;
  }
  double estimate() const {
    return trials == 0 ? 0.0
                       : static_cast<double>(successes) / static_cast<double>(trials);
  }
  double wilson_low() const;
  double wilson_high() const;
};

}  // namespace sqs
