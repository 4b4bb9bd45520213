#include "sweep/sweep.h"

#include <cmath>
#include <utility>

namespace sqs {

std::vector<AvailabilityEstimate> sweep_availability(
    const std::vector<AvailabilityCell>& cells, const TrialOptions& opts) {
  std::vector<SweepCell> grid(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i)
    grid[i] = {cells[i].samples, Rng(cells[i].seed)};
  const std::vector<std::int64_t> live = run_sweep(
      grid, std::int64_t{0},
      [&](std::size_t cell, std::int64_t* acc, TrialGroup& group) {
        availability_mc_group(*cells[cell].family, cells[cell].p, group, acc);
      },
      [](std::int64_t& total, std::int64_t part) { total += part; }, opts);

  std::vector<AvailabilityEstimate> out(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i)
    out[i] = {live[i], cells[i].samples};
  return out;
}

std::vector<NonintersectionStats> sweep_nonintersection(
    const std::vector<NonintersectionCell>& cells, const TrialOptions& opts) {
  std::vector<SweepCell> grid(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i)
    grid[i] = {cells[i].trials, cells[i].base};
  const std::vector<NonintersectionCounts> counts = run_sweep(
      grid, NonintersectionCounts{},
      [&](std::size_t cell, NonintersectionCounts* acc, TrialGroup& group) {
        nonintersection_group(*cells[cell].family, cells[cell].model, group,
                              acc);
      },
      [](NonintersectionCounts& total, NonintersectionCounts&& part) {
        total.merge(std::move(part));
      },
      opts);

  std::vector<NonintersectionStats> out(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    out[i].both_acquired = counts[i].both_acquired;
    out[i].nonintersection = counts[i].nonintersection;
    out[i].epsilon = cells[i].model.epsilon();
    out[i].bound = cells[i].bound_factor *
                   std::pow(out[i].epsilon, 2.0 * cells[i].family->alpha());
  }
  return out;
}

std::vector<ProbeMeasurement> sweep_probes(const std::vector<ProbeCell>& cells,
                                           const TrialOptions& opts) {
  std::vector<SweepCell> grid(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i)
    grid[i] = {cells[i].trials, cells[i].base};
  std::vector<ProbeAccumulator> accs = run_sweep(
      grid, ProbeAccumulator{},
      [&](std::size_t cell, ProbeAccumulator* acc, TrialGroup& group) {
        probe_measurement_group(*cells[cell].family, cells[cell].p, group,
                                acc);
      },
      [](ProbeAccumulator& total, ProbeAccumulator&& part) {
        total.merge(std::move(part));
      },
      opts);

  std::vector<ProbeMeasurement> out(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    out[i] = finalize_probe_measurement(
        accs[i], cells[i].family->universe_size(), cells[i].trials);
    // Each merged cell accumulator still owns the count buffer its first
    // fold stole; hand them back so the next sweep reuses them.
    WorkerScratch::for_thread().give_counts(std::move(accs[i].probe_counts));
  }
  return out;
}

}  // namespace sqs
