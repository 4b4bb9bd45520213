// Bit-sliced counting walks: 64 trials per word pass.
//
// An unshuffled, unit-vote counting walk (QuorumFamily::counting_walk():
// OPT_d in any probe order, OPT_a, masking OPT_a, the witness model) is
// deterministic, and its CountingRule is a pair of threshold tests on the
// positive and negative counts. So a whole lane word of trials can run the
// walk at once: per-lane pos/neg counters live in bit planes
// (core/batch.h), a step observes the probed server's column word, and the
// rule's thresholds become bit-sliced compares. CountingLaneWalks<G> widens
// every word to G lane words, so one instance walks the G blocks of a lane
// group (the two-client kernel of mismatch/batch.h runs it at the host
// width); CountingLaneWalk is its one-word case. The scalar run_probe_into
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
// instance walks 64 trials of one probe sequence per lane word, G lane
// words at once (G blocks of a lane group, LaneWords<G>::U; G = 1 is one
// plain word). Callers feed column words in probe order; `active()` before
// an observe() is exactly "this lane's scalar strategy is still
// kInProgress", so probed-set bookkeeping (probe counts, positive
// intersections) masks with it.
template <int G>
class CountingLaneWalks {
 public:
  using U = typename LaneWords<G>::U;
  static constexpr int kMaxPlanes = 32;

  // live_mask: the trials to walk; every other lane is inactive from the
  // start and never acquires.
  [[gnu::always_inline]] CountingLaneWalks(const CountingRule& rule,
                                           const U& live_mask)
      : rule_(rule), planes_(lane_counter_planes(rule.total)),
        active_(live_mask) {
    assert(planes_ <= kMaxPlanes);
    std::fill(pos_, pos_ + planes_, U{});
    std::fill(neg_, neg_ + planes_, U{});
  }

  const U& active() const { return active_; }
  const U& acquired() const { return acquired_; }

  // The batched CountingStrategy::observe: reached = the probed
  // server's column word. Inactive lanes are masked throughout, so calling
  // past a lane's stop step cannot change its outcome.
  [[gnu::always_inline]] void observe(const U& reached) {
    lane_counter_add<G>(pos_, planes_, active_ & reached);
    lane_counter_add<G>(neg_, planes_, active_ & ~reached);
    ++step_;
    // Active lanes whose count reaches c; a count never exceeds the step.
    U fail_now = U{};
    U acq_now = U{};
    const int fail_neg = rule_.fail_neg();
    const int acquire_pos = rule_.acquire_pos(rule_.total - step_);
    if (fail_neg <= step_)
      lane_counter_at_least<G>(neg_, planes_,
                               static_cast<std::uint64_t>(fail_neg), fail_now);
    if (acquire_pos <= step_)
      lane_counter_at_least<G>(pos_, planes_,
                               static_cast<std::uint64_t>(acquire_pos), acq_now);
    acq_now &= active_;
    acquired_ |= acq_now;
    active_ &= ~(acq_now | fail_now);
  }

 private:
  CountingRule rule_;
  int planes_;
  int step_ = 0;
  U active_;
  U acquired_ = U{};
  U pos_[kMaxPlanes];
  U neg_[kMaxPlanes];
};

using CountingLaneWalk = CountingLaneWalks<1>;

// The family's counting walk when CountingLaneWalk can run it: unshuffled,
// with unit votes. nullopt otherwise.
std::optional<CountingWalk> lane_counting_walk(const QuorumFamily& family);

// Batched body of probe_measurement_group for families with a
// lane_counting_walk(): samples the group's streams side by side
// (rng_lanes_for(group.size) lanes), transposes each drawn group at once
// into LaneColumns and walks each chunk's 64-trial block into acc[i] (one
// lane at a time: the per-trial statistics are read out lane by lane).
// Returns false — rngs and accs untouched — when the family has none, so
// the caller falls back to the scalar loop. Per-trial statistics are
// extracted in trial order, which keeps the Welford aggregates
// bit-identical to the scalar kernel's. With telemetry on it records the
// probe.* counters and histograms run_probe_into would (ProbeMetrics,
// probe/engine.h), but no per-probe spans or instants.
bool probe_measurement_chunk_batched(const QuorumFamily& family, double p,
                                     TrialGroup& group, ProbeAccumulator* acc);

}  // namespace sqs
