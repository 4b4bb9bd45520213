// Engine stress: run_probe must uphold its contract for ANY legal strategy,
// including pathological adaptive ones — never probe twice, never exceed n
// probes, probed set mirrors oracle answers, acquired quorum ⊆ probed.
// A randomized adaptive "chaos" strategy exercises the engine with arbitrary
// probe orders and arbitrary (outcome-dependent) termination.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "core/probe_strategy.h"
#include "probe/engine.h"
#include "util/rng.h"

namespace sqs {
namespace {

// Probes a random subset of servers in a random, outcome-dependent order,
// then terminates with a verdict consistent with its observations: acquired
// iff it reached at least one server (quorum = reached probed servers).
class ChaosStrategy : public ProbeStrategy {
 public:
  explicit ChaosStrategy(int n) : n_(n) { reset(nullptr); }

  void reset(Rng* rng) override {
    rng_ = rng;
    remaining_.resize(static_cast<std::size_t>(n_));
    std::iota(remaining_.begin(), remaining_.end(), 0);
    if (rng_ != nullptr) std::shuffle(remaining_.begin(), remaining_.end(), *rng_);
    observed_ = SignedSet(n_);
    reached_any_ = false;
    status_ = ProbeStatus::kInProgress;
    maybe_stop();
  }

  int universe_size() const override { return n_; }
  ProbeStatus status() const override { return status_; }
  int next_server() const override { return remaining_.back(); }

  void observe(int server, bool reached) override {
    remaining_.pop_back();
    if (reached) {
      observed_.add_positive(server);
      reached_any_ = true;
    } else {
      observed_.add_negative(server);
    }
    // Adaptive chaos: the outcome feeds the continuation decision.
    if (rng_ != nullptr && rng_->bernoulli(reached ? 0.5 : 0.2)) {
      finish();
      return;
    }
    maybe_stop();
  }

  SignedSet acquired_quorum() const override {
    // The reached probed servers.
    SignedSet quorum(n_);
    observed_.positive().for_each(
        [&](std::size_t i) { quorum.add_positive(static_cast<int>(i)); });
    return quorum;
  }
  bool is_adaptive() const override { return true; }
  bool is_randomized() const override { return true; }

 private:
  void maybe_stop() {
    if (remaining_.empty()) finish();
  }
  void finish() {
    status_ = reached_any_ ? ProbeStatus::kAcquired : ProbeStatus::kNoQuorum;
  }

  int n_;
  Rng* rng_ = nullptr;
  std::vector<int> remaining_;
  SignedSet observed_{0};
  bool reached_any_ = false;
  ProbeStatus status_ = ProbeStatus::kInProgress;
};

TEST(EngineStress, ContractHoldsUnderChaosStrategies) {
  Rng rng(777);
  for (int t = 0; t < 2000; ++t) {
    const int n = 1 + static_cast<int>(rng.next_below(40));
    ChaosStrategy strategy(n);
    Configuration c(Bitset(static_cast<std::size_t>(n)));
    const double p = rng.next_double();
    for (int i = 0; i < n; ++i) c.set_up(i, !rng.bernoulli(p));
    ConfigurationOracle oracle(&c);
    Rng srng = rng.split(t);
    const ProbeRecord record = run_probe(strategy, oracle, &srng);

    ASSERT_LE(record.num_probes, n);
    ASSERT_EQ(record.probed.size(), static_cast<std::size_t>(record.num_probes));
    // Probed signs mirror the oracle.
    for (int i = 0; i < n; ++i) {
      if (record.probed.has_positive(i)) {
        ASSERT_TRUE(c.is_up(i));
      }
      if (record.probed.has_negative(i)) {
        ASSERT_FALSE(c.is_up(i));
      }
    }
    if (record.acquired) {
      ASSERT_TRUE(record.quorum.is_subset_of(record.probed));
      ASSERT_GE(record.quorum.positive_count(), 1u);
    } else {
      ASSERT_TRUE(record.quorum.empty());
    }
  }
}

TEST(EngineStress, ZeroProbeTermination) {
  // A strategy may terminate before its first probe (e.g. the partition
  // filter path); the engine must return an empty record.
  class Instant : public ProbeStrategy {
   public:
    void reset(Rng*) override {}
    int universe_size() const override { return 5; }
    ProbeStatus status() const override { return ProbeStatus::kNoQuorum; }
    int next_server() const override { return 0; }
    void observe(int, bool) override {}
    SignedSet acquired_quorum() const override { return SignedSet(5); }
    bool is_adaptive() const override { return false; }
    bool is_randomized() const override { return false; }
  };
  Instant strategy;
  Configuration c(5, 0b11111);
  ConfigurationOracle oracle(&c);
  const ProbeRecord record = run_probe(strategy, oracle, nullptr);
  EXPECT_FALSE(record.acquired);
  EXPECT_EQ(record.num_probes, 0);
  EXPECT_TRUE(record.probed.empty());
}

}  // namespace
}  // namespace sqs
