// Probe strategies (Definition 7).
//
// The paper models a probe strategy as a binary decision tree over probe
// outcomes. We expose the equivalent operational interface: the strategy is
// asked which server to probe next, observes success/failure, and eventually
// terminates declaring either an acquired quorum or that no live quorum
// exists. A *non-adaptive* strategy's probe order does not depend on observed
// outcomes (only on randomness drawn at reset) — this is the condition under
// which Theorem 9/12's non-intersection bound applies.
//
// Strategies are single-use state machines: reset() begins an acquisition.
// The probe engine (src/probe) enforces that no server is probed twice.

#pragma once

#include <algorithm>
#include <memory>
#include <vector>

#include "core/signed_set.h"
#include "util/rng.h"

namespace sqs {

enum class ProbeStatus {
  kInProgress,  // next_server() names the next probe
  kAcquired,    // acquired_quorum() holds a quorum of the family
  kNoQuorum,    // strategy has established that no live quorum exists
};

class ProbeStrategy {
 public:
  virtual ~ProbeStrategy() = default;

  // Starts a new acquisition. Randomized strategies draw all their choices
  // from `rng`; deterministic strategies ignore it (it may be null for them).
  virtual void reset(Rng* rng) = 0;

  // Size of the server universe the strategy probes over.
  virtual int universe_size() const = 0;

  virtual ProbeStatus status() const = 0;

  // The next server to probe; only meaningful while status()==kInProgress.
  virtual int next_server() const = 0;

  // Reports the outcome of the probe issued for `server`.
  virtual void observe(int server, bool reached) = 0;

  // The quorum acquired; only meaningful when status()==kAcquired. Always a
  // subset of the signed set of probed servers, per the paper's requirement
  // that clients coordinate with every reached probed server.
  virtual SignedSet acquired_quorum() const = 0;

  // Writes the acquired quorum into `out`, reusing its capacity. The
  // default copies acquired_quorum(); hot strategies override with a plain
  // member assignment so the scratch-arena probe loop
  // (run_probe_into, src/probe/engine.h) allocates nothing per trial.
  virtual void acquired_quorum_into(SignedSet& out) const {
    out = acquired_quorum();
  }

  // True if the probe order can depend on earlier outcomes.
  virtual bool is_adaptive() const = 0;

  // True if reset(rng) draws randomness (a distribution over deterministic
  // strategies, mu in the paper's notation).
  virtual bool is_randomized() const = 0;
};

// {0, 1, ..., n-1}: the probe order of every family without its own.
std::vector<int> identity_order(int n);

// What a sequential walk does after a probe. Also the input of the exact
// DPs (probe/sequential_analysis.h, mismatch/exact.h).
enum class StepDecision {
  kContinue,
  kAcquire,
  kFail,
};

// The stop rule of every counting walk: `pos` votes reached so far,
// `remaining` votes of servers not yet probed, `need` votes to collect.
// The walk fails as soon as pos + remaining < need; otherwise it acquires
// on the Acquire rule. One value serves all four evaluators: the scalar
// CountingStrategy, the bit-sliced CountingLaneWalk (probe/batch.h), and,
// through operator(), analyze_sequential and exact_nonintersection.
struct CountingRule {
  enum class Acquire {
    // pos >= need; the quorum is the reached servers only (threshold,
    // majority, PQS, masking threshold, weighted voting).
    kAtNeed,
    // pos >= min(2 need, need + remaining): Definition 26's ServerProbe
    // rules. The quorum is the whole signed observation (OPT_d).
    kServerProbe,
    // remaining == 0: every server of the order is probed. The quorum is
    // the whole signed observation (OPT_a, masking OPT_a, witness).
    kAfterAll,
  };

  int total;  // the votes of the whole order
  int need;
  Acquire acquire;

  StepDecision decide(int pos, int remaining) const {
    if (pos + remaining < need) return StepDecision::kFail;
    return pos >= acquire_pos(remaining) ? StepDecision::kAcquire
                                         : StepDecision::kContinue;
  }

  // Unit votes, after `step` probes with `pos` reached: the StopRule form.
  StepDecision operator()(int step, int pos) const {
    return decide(pos, total - step);
  }

  // Unit votes, the lane walk's two thresholds. After `step` probes a walk
  // fails iff its negatives reach fail_neg(), and otherwise acquires iff
  // its positives reach acquire_pos(total - step). The two never hold
  // together: every acquire threshold is at least `need`.
  int fail_neg() const { return total - need + 1; }
  int acquire_pos(int remaining) const {
    if (acquire == Acquire::kAtNeed) return need;
    if (acquire == Acquire::kServerProbe)
      return std::min(2 * need, need + remaining);
    return remaining == 0 ? need : total + 1;  // total + 1: out of reach
  }
};

// A counting walk, as a family states it (QuorumFamily::counting_walk()):
// probe the servers of `order` one at a time, add up the votes of the
// reached ones, stop on `rule`. A `shuffled` walk is randomized: each
// reset(rng) shuffles the order afresh (no shuffle when rng is null), then,
// with `weights`, stable-sorts it heaviest first. `weights` holds per-server
// votes indexed by server; empty means one vote each.
struct CountingWalk {
  // rule.total is the vote total of `order`.
  CountingWalk(std::vector<int> order, int need, CountingRule::Acquire acquire,
               bool shuffled = false, std::vector<int> weights = {});

  int votes(int server) const {
    return weights.empty() ? 1 : weights[static_cast<std::size_t>(server)];
  }

  std::vector<int> order;
  CountingRule rule;
  bool shuffled;
  std::vector<int> weights;
};

// The sequential counting walk of OPT_a, OPT_d, the witness model and the
// threshold, masking and weighted-voting families: a CountingWalk run one
// probe at a time.
class CountingStrategy final : public ProbeStrategy {
 public:
  CountingStrategy(int n, CountingWalk walk);

  void reset(Rng* rng) override;
  int universe_size() const override { return n_; }
  ProbeStatus status() const override { return status_; }
  int next_server() const override {
    return order_[static_cast<std::size_t>(step_)];
  }
  void observe(int server, bool reached) override;
  SignedSet acquired_quorum() const override { return quorum_; }
  void acquired_quorum_into(SignedSet& out) const override { out = quorum_; }
  bool is_adaptive() const override { return false; }
  bool is_randomized() const override { return walk_.shuffled; }

 private:
  int n_;
  CountingWalk walk_;
  std::vector<int> order_;
  SignedSet quorum_{0};
  int step_ = 0;
  int pos_ = 0;
  int remaining_ = 0;
  ProbeStatus status_ = ProbeStatus::kInProgress;
};

}  // namespace sqs
