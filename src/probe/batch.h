// Bit-sliced OPT_d sequential probing: 64 trials per word pass.
//
// OPT_d's CountingStrategy is deterministic (fixed probe order, rng ignored)
// and its stop rules are pure threshold tests on the positive/negative
// counts, so a whole lane word of trials can run the walk simultaneously:
// per-lane pos/neg counters live in bit planes (core/batch.h), a step
// observes the probed server's column word, and the acquire/fail rules of
// Definition 26 become bit-sliced threshold compares. The scalar
// run_probe_into loop is the bit-identity oracle; BatchPolicy::kDifferential
// replays it per trial and throws on the first disagreement.

#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>

#include "core/batch.h"
#include "probe/measurements.h"
#include "runtime/run_trials.h"

namespace sqs {

// The lane-word replica of OPT_d's CountingStrategy: one instance walks 64
// trials of one probe sequence. Callers feed column words in probe order;
// `active()` before an observe() is exactly "this lane's scalar strategy is
// still kInProgress", so probed-set bookkeeping (probe counts, positive
// intersections) masks with it.
class OptDLaneWalk {
 public:
  static constexpr int kMaxPlanes = 32;

  OptDLaneWalk(int n, int alpha, std::uint64_t live_mask)
      : n_(n), alpha_(alpha), planes_(lane_counter_planes(n)),
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
    // acquired when pos >= 2 alpha (LADA) or pos >= n + alpha - step (LADB);
    // the scalar OR of the two thresholds is a single >= min(...) test.
    const int acq_at = std::min(2 * alpha_, n_ + alpha_ - step_);
    const std::uint64_t acq_now =
        active_ & lane_counter_at_least(
                      pos_, planes_, static_cast<std::uint64_t>(acq_at));
    const std::uint64_t fail_now =
        active_ & ~acq_now &
        lane_counter_at_least(neg_, planes_,
                              static_cast<std::uint64_t>(n_ + 1 - alpha_));
    acquired_ |= acq_now;
    active_ &= ~(acq_now | fail_now);
  }

 private:
  int n_;
  int alpha_;
  int planes_;
  int step_ = 0;
  std::uint64_t active_;
  std::uint64_t acquired_ = 0;
  std::uint64_t pos_[kMaxPlanes];
  std::uint64_t neg_[kMaxPlanes];
};

// Batched body of probe_measurement_chunk for families with a bit-sliced
// walk (OPT_d, any probe order). Returns false — rng and acc untouched —
// when the family has none, so the caller falls back to the scalar loop.
// Per-trial statistics are extracted in trial order, which keeps the
// Welford aggregates bit-identical to the scalar kernel's.
bool probe_measurement_chunk_batched(const QuorumFamily& family, double p,
                                     const TrialContext& ctx, Rng& rng,
                                     ProbeAccumulator& acc);

}  // namespace sqs
