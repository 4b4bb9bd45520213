// Sharded parameter sweeps.
//
// run_sweep (runtime/run_trials.h) flattens a whole grid of Monte Carlo
// workloads — cells × trial-chunks — into ONE submission on the shared
// thread pool, so a bench program or a parameter search saturates the
// machine across cells instead of only within one estimate.
//
// Determinism contract, enforced by tests/test_sweep.cpp at 1/2/8 threads:
//
//   * cell i's chunk c covers the cell's trials
//     [c*chunk_size, min(n_trials_i, (c+1)*chunk_size)) and draws all of
//     its randomness from cells[i].base.split(c) — exactly what a
//     standalone run_trial_chunks call over cell i would do (that call is
//     a one-cell run_sweep);
//   * per-chunk accumulators merge strictly in (cell, ascending chunk)
//     order after every chunk of the sweep completed;
//   * under a batched policy one task may run several consecutive chunks of
//     a cell side by side (TrialGroup), each still on its own stream and
//     accumulator.
//
// Hence each cell's result is bit-identical to the pre-existing per-cell
// loop, at any thread count: the flattening is purely a scheduling change.
// The typed sweeps below (availability, non-intersection, probe
// measurements) share their chunk kernels with the single-cell estimators
// they replace, so the equivalence is structural, not incidental.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/quorum_family.h"
#include "mismatch/model.h"
#include "probe/measurements.h"
#include "runtime/run_trials.h"
#include "util/rng.h"

namespace sqs {

// ---------------------------------------------------------------------------
// Typed sweeps over (family, parameter) grids. Each reuses the per-chunk
// kernel of the single-cell estimator it parallelizes across cells, so for
// equal trials/seeds the sweep output is bit-identical to the loop
//
//     for (cell : cells) results.push_back(single_cell_estimate(cell));
//
// at any thread count.

// Monte Carlo availability: cell result is bit-identical to
// family->availability_monte_carlo(p, samples, seed).
struct AvailabilityCell {
  std::shared_ptr<const QuorumFamily> family;
  double p = 0.3;
  std::uint64_t samples = kAvailabilityMcSamples;
  std::uint64_t seed = kAvailabilityMcSeed;
};

struct AvailabilityEstimate {
  std::int64_t live = 0;
  std::uint64_t samples = 0;

  double estimate() const {
    return samples == 0 ? 0.0
                        : static_cast<double>(live) /
                              static_cast<double>(samples);
  }
};

std::vector<AvailabilityEstimate> sweep_availability(
    const std::vector<AvailabilityCell>& cells, const TrialOptions& opts = {});

// Two-client non-intersection: cell result is bit-identical to
// measure_nonintersection(*family, model, trials, base, bound_factor).
struct NonintersectionCell {
  std::shared_ptr<const QuorumFamily> family;
  MismatchModel model;
  std::uint64_t trials = 100000;
  Rng base;
  double bound_factor = 1.0;  // 1 for Theorem 9/12, 2 for Theorem 44
};

std::vector<NonintersectionStats> sweep_nonintersection(
    const std::vector<NonintersectionCell>& cells,
    const TrialOptions& opts = {});

// Probe-behaviour measurement: cell result is bit-identical to
// measure_probes(*family, p, trials, base).
struct ProbeCell {
  std::shared_ptr<const QuorumFamily> family;
  double p = 0.3;
  std::uint64_t trials = 20000;
  Rng base;
};

std::vector<ProbeMeasurement> sweep_probes(const std::vector<ProbeCell>& cells,
                                           const TrialOptions& opts = {});

}  // namespace sqs
