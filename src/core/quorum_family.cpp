#include "core/quorum_family.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <vector>

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
  // 64 consecutive up-masks per accepts_batch call. Each accepted mask adds
  // Configuration::probability's expression for its up count, summed in
  // mask order: the sum of the one-mask-at-a-time loop, bit for bit.
  const int n = universe_size();
  assert(n <= 24);
  std::vector<double> weight(static_cast<std::size_t>(n) + 1);
  for (int up = 0; up <= n; ++up)
    weight[static_cast<std::size_t>(up)] =
        std::pow(1.0 - p, static_cast<double>(up)) *
        std::pow(p, static_cast<double>(n - up));
  const std::uint64_t masks = 1ull << n;
  WorldBatch worlds;
  worlds.reshape(n, std::min(masks, kBatchLaneBits));
  Bitset accepted;
  std::uint64_t rows[kBatchLaneBits];
  double total = 0.0;
  for (std::uint64_t first = 0; first < masks; first += kBatchLaneBits) {
    const std::size_t count =
        static_cast<std::size_t>(std::min(masks - first, kBatchLaneBits));
    for (std::size_t r = 0; r < count; ++r) rows[r] = first + r;
    worlds.load_rows(0, rows, count);
    accepts_batch(worlds, accepted);
    for (std::uint64_t hits = accepted.word(0); hits != 0; hits &= hits - 1) {
      const std::uint64_t mask = first + static_cast<std::uint64_t>(
                                             std::countr_zero(hits));
      total += weight[static_cast<std::size_t>(std::popcount(mask))];
    }
  }
  return total;
}

namespace {

// The scalar oracle: one trial at a time, one chunk.
void availability_mc_chunk_scalar(const QuorumFamily& family, double p,
                                  const TrialContext& ctx, Rng& rng,
                                  std::int64_t& live) {
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

}  // namespace

void availability_mc_group(const QuorumFamily& family, double p,
                           TrialGroup& group, std::int64_t* live) {
  if (group.ctx[0].batch != BatchPolicy::kScalar) {
    // Batched / differential: identical rng draw order (sample-then-
    // transpose), identical live counts — see core/batch.h.
    availability_mc_chunk_batched(family, p, group, live);
    return;
  }
  for (int i = 0; i < group.size; ++i)
    availability_mc_chunk_scalar(family, p, group.ctx[i], group.rng[i],
                                 live[i]);
}

double QuorumFamily::availability_monte_carlo(double p, int samples,
                                              std::uint64_t seed) const {
  // Sharded over the trial runtime: chunk c draws its configurations from
  // Rng(seed).split(c) and the live counts are summed in chunk order, so
  // the estimate is identical for any SQS_THREADS value.
  const std::int64_t live = run_trial_chunks(
      static_cast<std::uint64_t>(samples), Rng(seed), std::int64_t{0},
      [&](std::int64_t* acc, TrialGroup& group) {
        availability_mc_group(*this, p, group, acc);
      },
      [](std::int64_t& total, std::int64_t part) { total += part; });
  return static_cast<double>(live) / static_cast<double>(samples);
}

}  // namespace sqs
