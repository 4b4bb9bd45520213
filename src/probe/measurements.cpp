#include "probe/measurements.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <utility>

#include "obs/recorder.h"
#include "probe/batch.h"
#include "probe/engine.h"

namespace sqs {

double ProbeMeasurement::load() const {
  double best = 0.0;
  for (double f : server_probe_frequency) best = std::max(best, f);
  return best;
}

void ProbeAccumulator::merge(ProbeAccumulator&& other) {
  acquired.merge(other.acquired);
  probes_overall.merge(other.probes_overall);
  probes_acquired.merge(other.probes_acquired);
  probes_failed.merge(other.probes_failed);
  max_probes_seen = std::max(max_probes_seen, other.max_probes_seen);
  if (probe_counts.empty()) {
    // First fold steals the buffer instead of resizing + adding zeros.
    probe_counts = std::move(other.probe_counts);
  } else {
    if (probe_counts.size() < other.probe_counts.size())
      probe_counts.resize(other.probe_counts.size(), 0);
    for (std::size_t i = 0; i < other.probe_counts.size(); ++i)
      probe_counts[i] += other.probe_counts[i];
    WorkerScratch::for_thread().give_counts(std::move(other.probe_counts));
  }
  other.probe_counts.clear();
}

namespace {

// The scalar oracle: one run_probe per trial, one chunk.
void probe_measurement_chunk_scalar(const QuorumFamily& family, double p,
                                    const TrialContext& ctx, Rng& rng,
                                    ProbeAccumulator& acc) {
  const int n = family.universe_size();
  WorkerScratch& scratch = ctx.scratch();
  acc.probe_counts = scratch.take_counts(static_cast<std::size_t>(n));
  // The strategy itself is built fresh per chunk, not pooled: stateful
  // shuffling strategies (e.g. threshold majority) carry probe-order state
  // across resets, so reusing an instance across chunks would change their
  // random streams and break the pre-arena bit-identity.
  auto strategy = family.make_probe_strategy();
  Borrowed<Configuration> config = scratch.borrow<Configuration>();
  Borrowed<ProbeRecord> record = scratch.borrow<ProbeRecord>();
  config->reshape(n);
  for (std::uint64_t t = ctx.chunk.begin; t < ctx.chunk.end; ++t) {
    // Tag the trial with a probe-stream op id so run_probe's span and
    // instants join the per-op timeline; skipped when tracing is off so the
    // hot loop stays untouched.
    std::optional<obs::ScopedOp> trial_op;
    if (obs::trace_enabled())
      trial_op.emplace(obs::make_op_id(obs::kProbeTrialStream, t));
    for (int i = 0; i < n; ++i) config->set_up(i, !rng.bernoulli(p));
    ConfigurationOracle oracle(config.get());
    Rng strategy_rng = rng.split(t - ctx.chunk.begin);
    run_probe_into(*strategy, oracle, &strategy_rng, *record);

    acc.acquired.add(record->acquired);
    acc.probes_overall.add(record->num_probes);
    (record->acquired ? acc.probes_acquired : acc.probes_failed)
        .add(record->num_probes);
    acc.max_probes_seen = std::max(acc.max_probes_seen, record->num_probes);
    record->probed.positive().for_each(
        [&](std::size_t i) { ++acc.probe_counts[i]; });
    record->probed.negative().for_each(
        [&](std::size_t i) { ++acc.probe_counts[i]; });
  }
}

}  // namespace

void probe_measurement_group(const QuorumFamily& family, double p,
                             TrialGroup& group, ProbeAccumulator* acc) {
  if (group.ctx[0].batch != BatchPolicy::kScalar &&
      probe_measurement_chunk_batched(family, p, group, acc))
    return;
  for (int i = 0; i < group.size; ++i)
    probe_measurement_chunk_scalar(family, p, group.ctx[i], group.rng[i],
                                   acc[i]);
}

ProbeMeasurement finalize_probe_measurement(const ProbeAccumulator& acc, int n,
                                            std::uint64_t trials) {
  ProbeMeasurement out;
  out.acquired = acc.acquired;
  out.probes_overall = acc.probes_overall;
  out.probes_acquired = acc.probes_acquired;
  out.probes_failed = acc.probes_failed;
  out.max_probes_seen = acc.max_probes_seen;
  out.server_probe_frequency.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    out.server_probe_frequency[static_cast<std::size_t>(i)] =
        acc.probe_counts.empty() || trials == 0
            ? 0.0
            : static_cast<double>(acc.probe_counts[static_cast<std::size_t>(i)]) /
                  static_cast<double>(trials);
  return out;
}

ProbeMeasurement measure_probes(const QuorumFamily& family, double p, int trials,
                                Rng rng, const TrialOptions& opts) {
  const int n = family.universe_size();

  ProbeAccumulator acc = run_trial_chunks(
      static_cast<std::uint64_t>(trials), rng, ProbeAccumulator{},
      [&](ProbeAccumulator* shards, TrialGroup& group) {
        probe_measurement_group(family, p, group, shards);
      },
      [](ProbeAccumulator& total, ProbeAccumulator&& part) {
        total.merge(std::move(part));
      },
      opts);

  const ProbeMeasurement out =
      finalize_probe_measurement(acc, n, static_cast<std::uint64_t>(trials));
  // The fully merged accumulator still owns the count buffer the first fold
  // stole; hand it back so the next measurement reuses it.
  WorkerScratch::for_thread().give_counts(std::move(acc.probe_counts));
  return out;
}

int worst_case_probes(const QuorumFamily& family, int repeats, Rng rng,
                      const TrialOptions& opts) {
  const int n = family.universe_size();
  assert(n <= 20 && "worst_case_probes enumerates all configurations");
  return run_trial_chunks(
      1ull << n, rng, 0,
      [&](int& worst, const TrialContext& ctx, Rng&) {
        auto strategy = family.make_probe_strategy();
        Borrowed<Configuration> config = ctx.scratch().borrow<Configuration>();
        Borrowed<ProbeRecord> record = ctx.scratch().borrow<ProbeRecord>();
        for (std::uint64_t mask = ctx.chunk.begin; mask < ctx.chunk.end;
             ++mask) {
          config->assign_mask(n, mask);
          ConfigurationOracle oracle(config.get());
          long total = 0;
          for (int r = 0; r < repeats; ++r) {
            // Per-configuration streams derive from the caller's rng (not
            // the chunk rng) exactly as the sequential code did, so the
            // chunk partition cannot influence any strategy's randomness.
            Rng strategy_rng =
                rng.split(mask * 131 + static_cast<std::uint64_t>(r));
            run_probe_into(*strategy, oracle, &strategy_rng, *record);
            total += record->num_probes;
          }
          worst = std::max(worst, static_cast<int>(total / repeats));
        }
      },
      [](int& total, int part) { total = std::max(total, part); }, opts);
}

}  // namespace sqs
