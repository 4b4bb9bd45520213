#include "mismatch/batch.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "probe/batch.h"
#include "probe/engine.h"
#include "runtime/scratch.h"

namespace sqs {

void sample_two_client_worlds_into(int n, const MismatchModel& model,
                                   std::uint64_t num_trials, Rng& rng,
                                   WorkerScratch& scratch,
                                   TwoClientWorldBatch& out) {
  out.reach1.reshape(n, num_trials);
  out.reach2.reshape(n, num_trials);
  const std::size_t row_words = batch_row_words(n);
  Borrowed<std::vector<std::uint64_t>> staging1 =
      scratch.borrow<std::vector<std::uint64_t>>();
  Borrowed<std::vector<std::uint64_t>> staging2 =
      scratch.borrow<std::vector<std::uint64_t>>();
  std::vector<std::uint64_t>& rows1 = *staging1;
  std::vector<std::uint64_t>& rows2 = *staging2;
  // Every word of a live row is written below; load_rows ignores the rest.
  rows1.resize(kBatchLaneBits * row_words);
  rows2.resize(kBatchLaneBits * row_words);
  // sample_world_into's draw order, verbatim: crash draw, then both link
  // draws (skipped when the server is down), then the optional
  // correlated-partition redraw pass over reach2. The draws run on a local
  // rng (state in registers), written back at exit.
  Rng local = rng;
  const std::uint64_t crash = bernoulli_threshold(model.p);
  const std::uint64_t link_miss = bernoulli_threshold(model.link_miss);
  const std::uint64_t partition = bernoulli_threshold(model.partition_rate);
  const std::uint64_t cut = bernoulli_threshold(model.partition_fraction);
  std::uint64_t t = 0;
  for (std::size_t w = 0; t < num_trials; ++w) {
    const std::uint64_t block =
        std::min<std::uint64_t>(kBatchLaneBits, num_trials - t);
    for (std::uint64_t r = 0; r < block; ++r) {
      std::uint64_t* row1 = rows1.data() + r * row_words;
      std::uint64_t* row2 = rows2.data() + r * row_words;
      for (std::size_t rw = 0; rw < row_words; ++rw) {
        const int bits = row_word_bits(n, rw);
        std::uint64_t reach1 = 0;
        std::uint64_t reach2 = 0;
        for (int i = 0; i < bits; ++i) {
          if (local.bernoulli_below(crash)) continue;  // server down: (-,-)
          reach1 |= local.miss_word(link_miss, 1) << i;
          reach2 |= local.miss_word(link_miss, 1) << i;
        }
        row1[rw] = reach1;
        row2[rw] = reach2;
      }
      if (model.partition_rate > 0.0 && local.bernoulli_below(partition)) {
        for (std::size_t rw = 0; rw < row_words; ++rw)
          row2[rw] &= local.miss_word(cut, row_word_bits(n, rw));
      }
    }
    out.reach1.load_rows(w, rows1.data(), static_cast<std::size_t>(block));
    out.reach2.load_rows(w, rows2.data(), static_cast<std::size_t>(block));
    t += block;
  }
  rng = local;
}

bool nonintersection_chunk_batched(const QuorumFamily& family,
                                   const MismatchModel& model,
                                   const TrialContext& ctx, Rng& rng,
                                   NonintersectionCounts& acc) {
  const std::optional<CountingWalk> walk = lane_counting_walk(family);
  if (!walk) return false;
  const int n = family.universe_size();
  const std::vector<int>& order = walk->order;
  const int steps = static_cast<int>(order.size());
  WorkerScratch& scratch = ctx.scratch();
  const std::uint64_t trials = ctx.chunk.end - ctx.chunk.begin;

  Borrowed<TwoClientWorldBatch> worlds = scratch.borrow<TwoClientWorldBatch>();
  sample_two_client_worlds_into(n, model, trials, rng, scratch, *worlds);

  const bool differential = ctx.batch == BatchPolicy::kDifferential;
  std::unique_ptr<ProbeStrategy> oracle1;
  std::unique_ptr<ProbeStrategy> oracle2;
  Borrowed<TwoClientWorld> world = scratch.borrow<TwoClientWorld>();
  Borrowed<ProbeRecord> r1 = scratch.borrow<ProbeRecord>();
  Borrowed<ProbeRecord> r2 = scratch.borrow<ProbeRecord>();
  if (differential) {
    oracle1 = family.make_probe_strategy();
    oracle2 = family.make_probe_strategy();
  }

  for (std::size_t w = 0; w < worlds->reach1.num_lane_words(); ++w) {
    const std::uint64_t mask = worlds->reach1.lane_mask(w);
    const std::uint64_t* up1 = worlds->reach1.lanes(w);
    const std::uint64_t* up2 = worlds->reach2.lanes(w);
    CountingLaneWalk walk1(walk->rule, mask);
    CountingLaneWalk walk2(walk->rule, mask);
    // Lanes where the clients' probed-positive sets meet (Definition 8).
    // Both clients probe the same order prefix, so server order[i] is in
    // client c's probed-positive set iff lane c was still active at step i
    // and reached it.
    std::uint64_t meet = 0;
    for (int i = 0; i < steps && (walk1.active() | walk2.active()) != 0; ++i) {
      const int server = order[static_cast<std::size_t>(i)];
      const std::uint64_t reach1 = up1[server];
      const std::uint64_t reach2 = up2[server];
      meet |= (walk1.active() & reach1) & (walk2.active() & reach2);
      walk1.observe(reach1);
      walk2.observe(reach2);
    }
    assert(walk1.active() == 0 && walk2.active() == 0 &&
           "a counting walk resolves within its order");

    const std::uint64_t both = walk1.acquired() & walk2.acquired();
    const std::uint64_t miss = both & ~meet;
    if (differential) {
      const int live = __builtin_popcountll(mask);
      for (int b = 0; b < live; ++b) {
        const std::uint64_t t =
            static_cast<std::uint64_t>(w) * kBatchLaneBits +
            static_cast<std::uint64_t>(b);
        world->reach1.reshape(static_cast<std::size_t>(n));
        world->reach2.reshape(static_cast<std::size_t>(n));
        for (int s = 0; s < n; ++s) {
          if (worlds->reach1.test(t, s))
            world->reach1.set(static_cast<std::size_t>(s));
          if (worlds->reach2.test(t, s))
            world->reach2.set(static_cast<std::size_t>(s));
        }
        WorldOracle o1(&world->reach1);
        WorldOracle o2(&world->reach2);
        run_probe_into(*oracle1, o1, nullptr, *r1);
        run_probe_into(*oracle2, o2, nullptr, *r2);
        const bool scalar_both = r1->acquired && r2->acquired;
        const bool scalar_miss =
            scalar_both &&
            !r1->probed.positive().intersects(r2->probed.positive());
        if (scalar_both != (((both >> b) & 1u) != 0) ||
            scalar_miss != (((miss >> b) & 1u) != 0))
          throw std::runtime_error(
              "BatchPolicy::differential: batched two-client counting walk "
              "disagrees with run_probe for " + family.name() + " at trial " +
              std::to_string(ctx.chunk.begin + t) + " (scalar both=" +
              std::to_string(scalar_both) + " nonintersect=" +
              std::to_string(scalar_miss) + ", batched both=" +
              std::to_string((both >> b) & 1u) + " nonintersect=" +
              std::to_string((miss >> b) & 1u) + ")");
      }
    }
    const std::size_t live = static_cast<std::size_t>(__builtin_popcountll(mask));
    acc.both_acquired.trials += live;
    acc.both_acquired.successes +=
        static_cast<std::size_t>(__builtin_popcountll(both));
    acc.nonintersection.trials += live;
    acc.nonintersection.successes +=
        static_cast<std::size_t>(__builtin_popcountll(miss));
  }
  return true;
}

}  // namespace sqs
