#include "mismatch/model.h"

#include <cmath>
#include <utility>

#include "mismatch/batch.h"

namespace sqs {

void sample_world_into(int n, const MismatchModel& model, Rng& rng,
                       TwoClientWorld& world) {
  world.reach1.reshape(static_cast<std::size_t>(n));
  world.reach2.reshape(static_cast<std::size_t>(n));
  world.partitioned = false;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(model.p)) continue;  // server down: (-,-)
    if (!rng.bernoulli(model.link_miss)) world.reach1.set(static_cast<std::size_t>(i));
    if (!rng.bernoulli(model.link_miss)) world.reach2.set(static_cast<std::size_t>(i));
  }
  if (model.partition_rate > 0.0 && rng.bernoulli(model.partition_rate)) {
    world.partitioned = true;
    for (int i = 0; i < n; ++i)
      if (rng.bernoulli(model.partition_fraction))
        world.reach2.reset(static_cast<std::size_t>(i));
  }
}

TwoClientWorld sample_world(int n, const MismatchModel& model, Rng& rng) {
  TwoClientWorld world;
  sample_world_into(n, model, rng, world);
  return world;
}

namespace {

// The scalar oracle: two run_probe calls per trial, one chunk.
void nonintersection_chunk_scalar(const QuorumFamily& family,
                                  const MismatchModel& model,
                                  const TrialContext& ctx, Rng& rng,
                                  NonintersectionCounts& acc) {
  const int n = family.universe_size();
  // Probe strategies are stateful between run_probe resets, so each shard
  // instantiates its own pair (fresh, not pooled — see
  // probe_measurement_chunk_scalar for why pooling them would change bits).
  auto strategy1 = family.make_probe_strategy();
  auto strategy2 = family.make_probe_strategy();
  WorkerScratch& scratch = ctx.scratch();
  Borrowed<TwoClientWorld> world = scratch.borrow<TwoClientWorld>();
  Borrowed<ProbeRecord> r1 = scratch.borrow<ProbeRecord>();
  Borrowed<ProbeRecord> r2 = scratch.borrow<ProbeRecord>();
  for (std::uint64_t t = ctx.chunk.begin; t < ctx.chunk.end; ++t) {
    sample_world_into(n, model, rng, *world);
    WorldOracle oracle1(&world->reach1);
    WorldOracle oracle2(&world->reach2);
    const std::uint64_t local = t - ctx.chunk.begin;
    Rng rng1 = rng.split(2 * local);
    Rng rng2 = rng.split(2 * local + 1);
    run_probe_into(*strategy1, oracle1, &rng1, *r1);
    run_probe_into(*strategy2, oracle2, &rng2, *r2);

    const bool both = r1->acquired && r2->acquired;
    acc.both_acquired.add(both);
    // Definition 8: clients intersect iff their *probed* positive sets
    // meet.
    const bool miss =
        both && !r1->probed.positive().intersects(r2->probed.positive());
    acc.nonintersection.add(miss);
  }
}

}  // namespace

void nonintersection_group(const QuorumFamily& family,
                           const MismatchModel& model, TrialGroup& group,
                           NonintersectionCounts* acc) {
  if (group.ctx[0].batch != BatchPolicy::kScalar &&
      nonintersection_chunk_batched(family, model, group, acc))
    return;
  for (int i = 0; i < group.size; ++i)
    nonintersection_chunk_scalar(family, model, group.ctx[i], group.rng[i],
                                 acc[i]);
}

NonintersectionStats measure_nonintersection(const QuorumFamily& family,
                                             const MismatchModel& model,
                                             int trials, Rng rng,
                                             double bound_factor,
                                             const TrialOptions& opts) {
  NonintersectionStats stats;
  stats.epsilon = model.epsilon();
  stats.bound =
      bound_factor * std::pow(stats.epsilon, 2.0 * family.alpha());

  const NonintersectionCounts counts = run_trial_chunks(
      static_cast<std::uint64_t>(trials), rng, NonintersectionCounts{},
      [&](NonintersectionCounts* acc, TrialGroup& group) {
        nonintersection_group(family, model, group, acc);
      },
      [](NonintersectionCounts& total, NonintersectionCounts&& part) {
        total.merge(std::move(part));
      },
      opts);
  stats.both_acquired = counts.both_acquired;
  stats.nonintersection = counts.nonintersection;
  return stats;
}

}  // namespace sqs
