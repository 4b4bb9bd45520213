#include "core/quorum_family.h"

#include "core/batch.h"
#include "runtime/run_trials.h"

namespace sqs {

double QuorumFamily::availability(double p) const {
  if (universe_size() <= 24) return availability_exact_enumeration(p);
  return availability_monte_carlo(p);
}

std::unique_ptr<ProbeStrategy> QuorumFamily::make_probe_strategy() const {
  return std::make_unique<CountingStrategy>(universe_size(),
                                            counting_walk().value());
}

double QuorumFamily::availability_exact_enumeration(double p) const {
  const int n = universe_size();
  double total = 0.0;
  for (std::uint64_t mask = 0; mask < (1ull << n); ++mask) {
    Configuration config(n, mask);
    if (accepts(config)) total += config.probability(p);
  }
  return total;
}

void availability_mc_chunk(const QuorumFamily& family, double p,
                           const TrialContext& ctx, Rng& rng,
                           std::int64_t& live) {
  if (ctx.batch != BatchPolicy::kScalar) {
    // Batched / differential: identical rng draw order (sample-then-
    // transpose), identical live count — see core/batch.h.
    availability_mc_chunk_batched(family, p, ctx, rng, live);
    return;
  }
  const int n = family.universe_size();
  // One pooled configuration per chunk; every trial assigns all n bits, so
  // no inter-trial clearing is needed and the draw order is unchanged.
  Borrowed<Configuration> config = ctx.scratch().borrow<Configuration>();
  config->reshape(n);
  for (std::uint64_t t = ctx.chunk.begin; t < ctx.chunk.end; ++t) {
    for (int i = 0; i < n; ++i) config->set_up(i, !rng.bernoulli(p));
    if (family.accepts(*config)) ++live;
  }
}

double QuorumFamily::availability_monte_carlo(double p, int samples,
                                              std::uint64_t seed) const {
  // Sharded over the trial runtime: chunk c draws its configurations from
  // Rng(seed).split(c) and the live counts are summed in chunk order, so
  // the estimate is identical for any SQS_THREADS value.
  const std::int64_t live = run_trial_chunks(
      static_cast<std::uint64_t>(samples), Rng(seed), std::int64_t{0},
      [&](std::int64_t& acc, const TrialContext& ctx, Rng& rng) {
        availability_mc_chunk(*this, p, ctx, rng, acc);
      },
      [](std::int64_t& total, std::int64_t part) { total += part; });
  return static_cast<double>(live) / static_cast<double>(samples);
}

}  // namespace sqs
