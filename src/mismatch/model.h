// The two-client mismatch model of Section 4.
//
// A server probed by two clients is in one of four joint states:
// (-,-), (+,-), (-,+), (+,+); the middle two are *mismatches*. The paper's
// assumptions: mismatches are independent across servers, and
// P[mismatch | state != (-,-)] <= epsilon. We realize the model
// mechanistically: a server is down with probability p (state (-,-)); if up,
// each client independently fails to reach it with link-miss probability m.
// That yields epsilon = 2m(1-m) / (1 - m^2) = 2m / (1+m).
//
// A correlation knob deliberately *violates* the independence assumption
// (a "partition event" makes one client miss a whole random subset of
// servers at once) so benches can show where the epsilon^(2 alpha) guarantee
// degrades — mirroring the paper's discussion of "hard" partitions and the
// filtering step of [17].

#pragma once

#include "core/quorum_family.h"
#include "probe/engine.h"
#include "runtime/run_trials.h"
#include "util/bitset.h"
#include "util/rng.h"
#include "util/stats.h"

namespace sqs {

struct MismatchModel {
  double p = 0.1;           // server crash probability -> state (-,-)
  double link_miss = 0.05;  // per-client miss probability m given the server is up

  // Correlated failure injection: with probability partition_rate (per
  // acquisition pair), client 2 additionally loses a uniformly random
  // fraction partition_fraction of all servers.
  double partition_rate = 0.0;
  double partition_fraction = 0.0;

  // epsilon = P[mismatch | state != (-,-)] = 2m / (1 + m) under
  // independence (partitions excluded).
  double epsilon() const { return 2.0 * link_miss / (1.0 + link_miss); }
};

// One sampled joint world: which servers each client would reach.
struct TwoClientWorld {
  Bitset reach1;
  Bitset reach2;
  bool partitioned = false;  // whether the correlated event fired

  std::size_t num_mismatches() const {
    return (reach1.minus(reach2) | reach2.minus(reach1)).count();
  }
};

TwoClientWorld sample_world(int n, const MismatchModel& model, Rng& rng);

// In-place variant: reshape()s `world`'s bitsets (reusing capacity) and
// redraws it with exactly the same rng consumption as sample_world — the
// scratch-arena form used by the non-intersection hot loop.
void sample_world_into(int n, const MismatchModel& model, Rng& rng,
                       TwoClientWorld& world);

// Probe oracle giving one client's view of a sampled world.
class WorldOracle : public ProbeOracle {
 public:
  WorldOracle(const Bitset* reach) : reach_(reach) {}
  bool reaches(int server) override { return reach_->test(static_cast<std::size_t>(server)); }

 private:
  const Bitset* reach_;
};

struct NonintersectionStats {
  Proportion both_acquired;    // P[both clients acquire some quorum]
  Proportion nonintersection;  // P[both acquire AND S1+ ∩ S2+ = ∅] (Thm 9's event)
  double epsilon = 0.0;        // the model's epsilon
  double bound = 0.0;          // the theorem's bound on the event
};

// Raw counts of the two-client experiment; the per-shard accumulator of
// measure_nonintersection, merged in chunk order by the trial runtime.
struct NonintersectionCounts {
  Proportion both_acquired;
  Proportion nonintersection;

  void merge(NonintersectionCounts&& other) {
    both_acquired.merge(other.both_acquired);
    nonintersection.merge(other.nonintersection);
  }
};

// The Monte Carlo kernel of measure_nonintersection over a run_sweep
// TrialGroup, shared with the sweep engine (src/sweep) so a flattened grid
// cell reduces to exactly the same bits as the per-cell estimate: chunk i
// of the group runs the two-client trials [ctx[i].chunk.begin,
// ctx[i].chunk.end) with rng[i] and counts into acc[i]. Batched policies
// run nonintersection_chunk_batched where the family has a lane walk;
// otherwise each chunk runs the scalar two-client loop, with the sampled
// world and both probe records borrowed from the chunk's scratch arena.
void nonintersection_group(const QuorumFamily& family,
                           const MismatchModel& model, TrialGroup& group,
                           NonintersectionCounts* acc);

// Runs `trials` independent two-client acquisitions against `family` (both
// clients use family->make_probe_strategy(); for deterministic non-adaptive
// strategies this matches Theorem 9's hypothesis, and intersection is
// checked on the *probed* sets per Definition 8). `bound_factor` is 1 for
// Theorem 9/12 and 2 for Theorem 44 (composition). Trials execute on the
// shared parallel runtime; results are identical for any thread count.
NonintersectionStats measure_nonintersection(const QuorumFamily& family,
                                             const MismatchModel& model,
                                             int trials, Rng rng,
                                             double bound_factor = 1.0,
                                             const TrialOptions& opts = {});

}  // namespace sqs
