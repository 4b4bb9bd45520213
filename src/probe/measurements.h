// Monte Carlo measurement of a family's probe behaviour: expected and
// worst-case probe counts, acquisition rate, and the paper's pessimistic load
// (per-server probe probability, Sect. 3.4) under the family's own probe
// strategy. These empirical values are compared against exact DP numbers and
// the paper's bounds by the benches and tests.

#pragma once

#include <vector>

#include "core/quorum_family.h"
#include "runtime/run_trials.h"
#include "util/rng.h"
#include "util/stats.h"

namespace sqs {

struct ProbeMeasurement {
  Proportion acquired;
  RunningStat probes_overall;
  RunningStat probes_acquired;
  RunningStat probes_failed;
  int max_probes_seen = 0;
  // server_probe_frequency[i] = fraction of acquisitions that probed server
  // i; its maximum over i is the (empirical) load of the strategy.
  std::vector<double> server_probe_frequency;

  double load() const;
};

// Per-shard accumulator for measure_probes; merged in chunk order by the
// trial runtime so every aggregate is thread-count-invariant.
struct ProbeAccumulator {
  Proportion acquired;
  RunningStat probes_overall;
  RunningStat probes_acquired;
  RunningStat probes_failed;
  int max_probes_seen = 0;
  std::vector<long> probe_counts;

  // Folds `other` in and returns its count buffer to the calling thread's
  // scratch arena (the buffer was taken from a worker's arena by
  // probe_measurement_group; the two-level counts pool routes it back).
  void merge(ProbeAccumulator&& other);
};

// The Monte Carlo kernel of measure_probes over a run_sweep TrialGroup,
// shared with the sweep engine (src/sweep) so a flattened grid cell reduces
// to exactly the same bits as the per-cell measurement: chunk i of the
// group runs acquisitions [ctx[i].chunk.begin, ctx[i].chunk.end) with
// rng[i] and accumulates into acc[i]. Batched policies run
// probe_measurement_chunk_batched where the family has a lane walk;
// otherwise each chunk runs the scalar run_probe loop, with the sampled
// configuration, probe record and count buffer borrowed from the chunk's
// scratch arena.
void probe_measurement_group(const QuorumFamily& family, double p,
                             TrialGroup& group, ProbeAccumulator* acc);

// Folds a fully merged accumulator into the published measurement
// (normalizing per-server probe counts by `trials`).
ProbeMeasurement finalize_probe_measurement(const ProbeAccumulator& acc, int n,
                                            std::uint64_t trials);

// Runs `trials` acquisitions, each against a fresh configuration sampled
// with i.i.d. failure probability p, using the family's probe strategy.
// Trials run sharded on the parallel runtime; all statistics (including the
// Welford aggregates, merged in chunk order) are identical for any thread
// count.
ProbeMeasurement measure_probes(const QuorumFamily& family, double p, int trials,
                                Rng rng, const TrialOptions& opts = {});

// Exhaustive worst-case probe count over all 2^n configurations (n <= 20)
// for the family's strategy; for randomized strategies the strategy's random
// choices are still drawn (pass repeats > 1 to approximate the expectation
// per configuration, matching PC_w^*'s inner expectation). The 2^n
// configuration space is sharded across the parallel runtime.
int worst_case_probes(const QuorumFamily& family, int repeats, Rng rng,
                      const TrialOptions& opts = {});

}  // namespace sqs
