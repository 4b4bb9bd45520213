// Bit-sliced counting walks: 64 trials per word pass.
//
// An unshuffled, unit-vote counting walk (QuorumFamily::counting_walk():
// OPT_d in any probe order, OPT_a, masking OPT_a, the witness model) is
// deterministic, and its CountingRule is a pair of threshold tests on the
// positive and negative counts. So a whole lane word of trials can run the
// walk at once: per-lane pos/neg counters live in bit planes
// (core/batch.h), a step observes the probed server's column word, and the
// rule's thresholds become bit-sliced compares. The scalar run_probe_into
// loop is the bit-identity oracle; BatchPolicy::kDifferential replays it
// per trial and throws on the first disagreement.

#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <optional>

#include "core/batch.h"
#include "probe/measurements.h"
#include "runtime/run_trials.h"

namespace sqs {

// The lane-word replica of CountingStrategy for a unit-vote rule: one
// instance walks 64 trials of one probe sequence. Callers feed column
// words in probe order; `active()` before an observe() is exactly "this
// lane's scalar strategy is still kInProgress", so probed-set bookkeeping
// (probe counts, positive intersections) masks with it.
class CountingLaneWalk {
 public:
  static constexpr int kMaxPlanes = 32;

  CountingLaneWalk(const CountingRule& rule, std::uint64_t live_mask)
      : rule_(rule), planes_(lane_counter_planes(rule.total)),
        active_(live_mask) {
    assert(planes_ <= kMaxPlanes);
    std::fill(pos_, pos_ + planes_, 0);
    std::fill(neg_, neg_ + planes_, 0);
  }

  std::uint64_t active() const { return active_; }
  std::uint64_t acquired() const { return acquired_; }

  // The batched CountingStrategy::observe: reached = the probed
  // server's column word. Inactive lanes are masked throughout, so calling
  // past a lane's stop step cannot change its outcome.
  void observe(std::uint64_t reached) {
    lane_counter_add(pos_, planes_, active_ & reached);
    lane_counter_add(neg_, planes_, active_ & ~reached);
    ++step_;
    // Active lanes whose count reaches c; a count never exceeds the step.
    auto reach = [&](const std::uint64_t* count, int c) -> std::uint64_t {
      if (c > step_) return 0;
      return active_ & lane_counter_at_least(count, planes_,
                                             static_cast<std::uint64_t>(c));
    };
    const std::uint64_t fail_now = reach(neg_, rule_.fail_neg());
    const std::uint64_t acq_now =
        reach(pos_, rule_.acquire_pos(rule_.total - step_));
    acquired_ |= acq_now;
    active_ &= ~(acq_now | fail_now);
  }

 private:
  CountingRule rule_;
  int planes_;
  int step_ = 0;
  std::uint64_t active_;
  std::uint64_t acquired_ = 0;
  std::uint64_t pos_[kMaxPlanes];
  std::uint64_t neg_[kMaxPlanes];
};

// The family's counting walk when CountingLaneWalk can run it: unshuffled,
// with unit votes. nullopt otherwise.
std::optional<CountingWalk> lane_counting_walk(const QuorumFamily& family);

// Batched body of probe_measurement_group for families with a
// lane_counting_walk(): samples the group's streams side by side
// (rng_lanes_for(group.size) lanes) and walks each chunk's 64-trial blocks
// into acc[i]. Returns false — rngs and accs untouched — when the family
// has none, so the caller falls back to the scalar loop. Per-trial
// statistics are extracted in trial order, which keeps the Welford
// aggregates bit-identical to the scalar kernel's.
bool probe_measurement_chunk_batched(const QuorumFamily& family, double p,
                                     TrialGroup& group, ProbeAccumulator* acc);

}  // namespace sqs
