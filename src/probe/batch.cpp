#include "probe/batch.h"

#include <stdexcept>
#include <string>

#include "probe/engine.h"
#include "runtime/scratch.h"

namespace sqs {

namespace {

// Counter value of one lane, read across the bit planes.
int lane_value(const std::uint64_t* planes, int num_planes, int lane) {
  int v = 0;
  for (int j = 0; j < num_planes; ++j)
    v |= static_cast<int>((planes[j] >> lane) & 1u) << j;
  return v;
}

}  // namespace

std::optional<CountingWalk> lane_counting_walk(const QuorumFamily& family) {
  std::optional<CountingWalk> walk = family.counting_walk();
  if (walk && (walk->shuffled || !walk->weights.empty())) return std::nullopt;
  return walk;
}

bool probe_measurement_chunk_batched(const QuorumFamily& family, double p,
                                     const TrialContext& ctx, Rng& rng,
                                     ProbeAccumulator& acc) {
  const std::optional<CountingWalk> walk = lane_counting_walk(family);
  if (!walk) return false;
  const int n = family.universe_size();
  const std::vector<int>& order = walk->order;
  const int steps = static_cast<int>(order.size());
  WorkerScratch& scratch = ctx.scratch();
  const std::uint64_t trials = ctx.chunk.end - ctx.chunk.begin;

  acc.probe_counts = scratch.take_counts(static_cast<std::size_t>(n));
  Borrowed<WorldBatch> worlds = scratch.borrow<WorldBatch>();
  // Same chunk-rng draw order as the scalar loop (trial-major, server-
  // minor); the per-trial strategy_rng splits are const on the chunk rng
  // and an unshuffled walk ignores its rng, so skipping them changes no
  // stream.
  sample_worlds_into(n, p, trials, rng, scratch, *worlds);

  const bool differential = ctx.batch == BatchPolicy::kDifferential;
  std::unique_ptr<ProbeStrategy> oracle_strategy;
  Borrowed<Configuration> config = scratch.borrow<Configuration>();
  Borrowed<ProbeRecord> record = scratch.borrow<ProbeRecord>();
  if (differential) oracle_strategy = family.make_probe_strategy();

  const int planes_n = lane_counter_planes(steps);
  std::uint64_t probes_planes[CountingLaneWalk::kMaxPlanes];
  for (std::size_t w = 0; w < worlds->num_lane_words(); ++w) {
    const std::uint64_t mask = worlds->lane_mask(w);
    const std::uint64_t* up = worlds->lanes(w);
    CountingLaneWalk lanes(walk->rule, mask);
    std::fill(probes_planes, probes_planes + planes_n, 0);
    for (int i = 0; i < steps && lanes.active() != 0; ++i) {
      const int server = order[static_cast<std::size_t>(i)];
      const std::uint64_t probing = lanes.active();
      lane_counter_add(probes_planes, planes_n, probing);
      acc.probe_counts[static_cast<std::size_t>(server)] +=
          __builtin_popcountll(probing);
      lanes.observe(up[server]);
    }
    assert(lanes.active() == 0 && "a counting walk resolves within its order");

    const int live = __builtin_popcountll(mask);
    for (int b = 0; b < live; ++b) {
      const int probes = lane_value(probes_planes, planes_n, b);
      const bool acquired = (lanes.acquired() >> b) & 1u;
      if (differential) {
        const std::uint64_t t =
            static_cast<std::uint64_t>(w) * kBatchLaneBits +
            static_cast<std::uint64_t>(b);
        worlds->extract_trial(t, *config);
        ConfigurationOracle oracle(config.get());
        run_probe_into(*oracle_strategy, oracle, nullptr, *record);
        if (record->acquired != acquired || record->num_probes != probes)
          throw std::runtime_error(
              "BatchPolicy::differential: batched counting walk disagrees "
              "with run_probe for " + family.name() + " at trial " +
              std::to_string(ctx.chunk.begin + t) + " (scalar acquired=" +
              std::to_string(record->acquired) + " probes=" +
              std::to_string(record->num_probes) + ", batched acquired=" +
              std::to_string(acquired) + " probes=" + std::to_string(probes) +
              ")");
      }
      acc.acquired.add(acquired);
      acc.probes_overall.add(probes);
      (acquired ? acc.probes_acquired : acc.probes_failed).add(probes);
      acc.max_probes_seen = std::max(acc.max_probes_seen, probes);
    }
  }
  return true;
}

}  // namespace sqs
