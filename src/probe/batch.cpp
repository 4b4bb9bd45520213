#include "probe/batch.h"

#include <algorithm>
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
                                     TrialGroup& group, ProbeAccumulator* acc) {
  const std::optional<CountingWalk> walk = lane_counting_walk(family);
  if (!walk) return false;
  const int n = family.universe_size();
  const std::vector<int>& order = walk->order;
  const int steps = static_cast<int>(order.size());
  WorkerScratch& scratch = group.ctx[0].scratch();
  std::uint64_t trials[kMaxRngLanes];
  for (int g = 0; g < group.size; ++g) {
    trials[g] = group.ctx[g].chunk.end - group.ctx[g].chunk.begin;
    acc[g].probe_counts = scratch.take_counts(static_cast<std::size_t>(n));
  }
  // Same chunk-rng draw order as the scalar loop (trial-major, server-
  // minor); the per-trial strategy_rng splits are const on the chunk rng
  // and an unshuffled walk ignores its rng, so skipping them changes no
  // stream.
  LaneBlocks blocks(group.rng, trials, group.size, rng_lanes_for(group.size));
  Borrowed<std::vector<std::uint64_t>> staging =
      scratch.borrow<std::vector<std::uint64_t>>();
  staging->resize(lane_block_words(n, blocks.width()));
  Borrowed<WorldBatch> worlds = scratch.borrow<WorldBatch>();
  const std::uint64_t threshold = bernoulli_threshold(p);

  const bool differential = group.ctx[0].batch == BatchPolicy::kDifferential;
  std::unique_ptr<ProbeStrategy> oracle_strategy;
  Borrowed<Configuration> config = scratch.borrow<Configuration>();
  Borrowed<ProbeRecord> record = scratch.borrow<ProbeRecord>();
  if (differential) oracle_strategy = family.make_probe_strategy();

  const int planes_n = lane_counter_planes(steps);
  std::uint64_t probes_planes[CountingLaneWalk::kMaxPlanes];
  while (blocks.next([&](LaneStates& states, int r0, int r1) {
    draw_world_rows(blocks.width(), n, threshold, states, staging->data(), r0,
                    r1);
  })) {
    for (int g = 0; g < group.size; ++g) {
      const std::size_t rows = blocks.rows(g);
      if (rows == 0) continue;
      worlds->reshape(n, rows);
      worlds->load_rows(0, staging->data() + g, rows, blocks.width());
      const std::uint64_t* up = worlds->lanes(0);
      CountingLaneWalk lanes(walk->rule, worlds->lane_mask(0));
      std::fill(probes_planes, probes_planes + planes_n, 0);
      for (int i = 0; i < steps && lanes.active() != 0; ++i) {
        const int server = order[static_cast<std::size_t>(i)];
        const std::uint64_t probing = lanes.active();
        lane_counter_add(probes_planes, planes_n, probing);
        acc[g].probe_counts[static_cast<std::size_t>(server)] +=
            __builtin_popcountll(probing);
        lanes.observe(up[server]);
      }
      assert(lanes.active() == 0 &&
             "a counting walk resolves within its order");

      for (std::size_t b = 0; b < rows; ++b) {
        const int probes =
            lane_value(probes_planes, planes_n, static_cast<int>(b));
        const bool acquired = (lanes.acquired() >> b) & 1u;
        if (differential) {
          worlds->extract_trial(b, *config);
          ConfigurationOracle oracle(config.get());
          run_probe_into(*oracle_strategy, oracle, nullptr, *record);
          if (record->acquired != acquired || record->num_probes != probes)
            throw std::runtime_error(
                "BatchPolicy::differential: batched counting walk disagrees "
                "with run_probe for " + family.name() + " at trial " +
                std::to_string(group.ctx[g].chunk.begin +
                               blocks.block() * kBatchLaneBits + b) +
                " (scalar acquired=" + std::to_string(record->acquired) +
                " probes=" + std::to_string(record->num_probes) +
                ", batched acquired=" + std::to_string(acquired) +
                " probes=" + std::to_string(probes) + ")");
        }
        acc[g].acquired.add(acquired);
        acc[g].probes_overall.add(probes);
        (acquired ? acc[g].probes_acquired : acc[g].probes_failed).add(probes);
        acc[g].max_probes_seen = std::max(acc[g].max_probes_seen, probes);
      }
    }
  }
  return true;
}

}  // namespace sqs
