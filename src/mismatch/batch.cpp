#include "mismatch/batch.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

#include "probe/batch.h"
#include "probe/engine.h"
#include "runtime/scratch.h"

namespace sqs {

namespace {

template <int G>
[[gnu::always_inline]] inline void draw_two_client_rows_lanes(
    int n, const MismatchModel& model, LaneStates& states,
    std::uint64_t* rows1, std::uint64_t* rows2, int r0, int r1) {
  using U = typename LaneWords<G>::U;
  RngLanes<G> rng;
  rng.load(states);
  const U crash = U{} + bernoulli_threshold(model.p);
  const U link_miss = U{} + bernoulli_threshold(model.link_miss);
  const U partition = U{} + bernoulli_threshold(model.partition_rate);
  const U cut = U{} + bernoulli_threshold(model.partition_fraction);
  const bool partitions = model.partition_rate > 0.0;
  const std::size_t row_words = batch_row_words(n);
  for (int r = r0; r < r1; ++r) {
    const std::size_t row = static_cast<std::size_t>(r) * row_words;
    for (std::size_t rw = 0; rw < row_words; ++rw) {
      const int bits = row_word_bits(n, rw);
      U reach1 = U{};
      U reach2 = U{};
      U bit = U{} + 1;
      for (int i = 0; i < bits; ++i) {
        U down;
        rng.next_below(crash, down);
        // A down server skips both link draws. One lane branches (the
        // scalar loop); G lanes draw both and keep, where down, the state
        // after the crash draw.
        if constexpr (G == 1) {
          if (down != 0) {
            bit += bit;
            continue;
          }
        }
        const RngLanes<G> after_crash = rng;
        U miss1;
        U miss2;
        rng.next_below(link_miss, miss1);
        rng.next_below(link_miss, miss2);
        reach1 |= bit & ~(down | miss1);
        reach2 |= bit & ~(down | miss2);
        if constexpr (G > 1) rng.take_where(down, after_crash);
        bit += bit;
      }
      std::memcpy(rows1 + (row + rw) * G, &reach1, sizeof reach1);
      std::memcpy(rows2 + (row + rw) * G, &reach2, sizeof reach2);
    }
    if (!partitions) continue;
    U hit;
    rng.next_below(partition, hit);
    if (!lanes_any<G>(hit)) continue;
    // Lanes without a partition make no cut draws: they go on from here.
    const RngLanes<G> after_hit = rng;
    for (std::size_t rw = 0; rw < row_words; ++rw) {
      const int bits = row_word_bits(n, rw);
      U keep = U{};
      U bit = U{} + 1;
      for (int i = 0; i < bits; ++i) {
        U cut_off;
        rng.next_below(cut, cut_off);
        keep |= bit & ~cut_off;
        bit += bit;
      }
      U reach2;
      std::memcpy(&reach2, rows2 + (row + rw) * G, sizeof reach2);
      reach2 &= keep | ~hit;
      std::memcpy(rows2 + (row + rw) * G, &reach2, sizeof reach2);
    }
    rng.take_where(~hit, after_hit);
  }
  rng.store(states);
}

[[gnu::target("avx512f")]] void draw_two_client_rows_8(
    int n, const MismatchModel& model, LaneStates& states,
    std::uint64_t* rows1, std::uint64_t* rows2, int r0, int r1) {
  draw_two_client_rows_lanes<8>(n, model, states, rows1, rows2, r0, r1);
}

[[gnu::target("avx2")]] void draw_two_client_rows_4(
    int n, const MismatchModel& model, LaneStates& states,
    std::uint64_t* rows1, std::uint64_t* rows2, int r0, int r1) {
  draw_two_client_rows_lanes<4>(n, model, states, rows1, rows2, r0, r1);
}

// The two-client walk over G lane blocks at once: `both` = lanes where
// both clients acquire, `miss` = those of them whose probed-positive sets
// do not meet (Definition 8). up1 / up2 are LaneColumns data, live the G
// live masks.
template <int G>
[[gnu::always_inline]] inline void nonintersection_walk(
    const CountingWalk& walk, const std::uint64_t* up1,
    const std::uint64_t* up2, const std::uint64_t* live, std::uint64_t* both,
    std::uint64_t* miss) {
  using U = typename LaneWords<G>::U;
  U mask = U{};
  lanes_load<G>(live, mask);
  const int steps = static_cast<int>(walk.order.size());
  CountingLaneWalks<G> walk1(walk.rule, mask);
  CountingLaneWalks<G> walk2(walk.rule, mask);
  // Both clients probe the same order prefix, so server order[i] is in
  // client c's probed-positive set iff lane c was still active at step i
  // and reached it.
  U meet = U{};
  for (int i = 0;
       i < steps && lanes_any<G>(walk1.active() | walk2.active()); ++i) {
    const auto server =
        static_cast<std::size_t>(walk.order[static_cast<std::size_t>(i)]);
    U reach1 = U{};
    U reach2 = U{};
    lanes_load<G>(up1 + server * G, reach1);
    lanes_load<G>(up2 + server * G, reach2);
    meet |= (walk1.active() & reach1) & (walk2.active() & reach2);
    walk1.observe(reach1);
    walk2.observe(reach2);
  }
  assert(!lanes_any<G>(walk1.active() | walk2.active()) &&
         "a counting walk resolves within its order");
  const U acquired = walk1.acquired() & walk2.acquired();
  lanes_store<G>(both, acquired);
  const U missed = acquired & ~meet;
  lanes_store<G>(miss, missed);
}

[[gnu::target("avx512f")]] void nonintersection_walk_8(
    const CountingWalk& walk, const std::uint64_t* up1,
    const std::uint64_t* up2, const std::uint64_t* live, std::uint64_t* both,
    std::uint64_t* miss) {
  nonintersection_walk<8>(walk, up1, up2, live, both, miss);
}

[[gnu::target("avx2")]] void nonintersection_walk_4(
    const CountingWalk& walk, const std::uint64_t* up1,
    const std::uint64_t* up2, const std::uint64_t* live, std::uint64_t* both,
    std::uint64_t* miss) {
  nonintersection_walk<4>(walk, up1, up2, live, both, miss);
}

}  // namespace

void draw_two_client_rows(int width, int n, const MismatchModel& model,
                          LaneStates& rngs, std::uint64_t* rows1,
                          std::uint64_t* rows2, int r0, int r1) {
  assert(rng_lanes_supported(width));
  switch (width) {
    case 8: draw_two_client_rows_8(n, model, rngs, rows1, rows2, r0, r1); break;
    case 4: draw_two_client_rows_4(n, model, rngs, rows1, rows2, r0, r1); break;
    default:
      draw_two_client_rows_lanes<1>(n, model, rngs, rows1, rows2, r0, r1);
  }
}

void nonintersection_word(const CountingWalk& walk, const std::uint64_t* up1,
                          const std::uint64_t* up2, std::uint64_t mask,
                          std::uint64_t& both, std::uint64_t& miss) {
  nonintersection_walk<1>(walk, up1, up2, &mask, &both, &miss);
}

void nonintersection_lanes(const CountingWalk& walk, const LaneColumns& reach1,
                           const LaneColumns& reach2, std::uint64_t* both,
                           std::uint64_t* miss) {
  assert(reach1.width() == reach2.width());
  assert(rng_lanes_supported(reach1.width()));
  // Both clients' blocks hold the same trials.
  assert(std::equal(reach1.live_masks(), reach1.live_masks() + reach1.width(),
                    reach2.live_masks()));
  const std::uint64_t* up1 = reach1.data();
  const std::uint64_t* up2 = reach2.data();
  const std::uint64_t* live = reach1.live_masks();
  switch (reach1.width()) {
    case 8: nonintersection_walk_8(walk, up1, up2, live, both, miss); break;
    case 4: nonintersection_walk_4(walk, up1, up2, live, both, miss); break;
    default: nonintersection_walk<1>(walk, up1, up2, live, both, miss);
  }
}

void sample_two_client_worlds_into(int n, const MismatchModel& model,
                                   std::uint64_t num_trials, Rng& rng,
                                   WorkerScratch& scratch,
                                   TwoClientWorldBatch& out) {
  out.reach1.reshape(n, num_trials);
  out.reach2.reshape(n, num_trials);
  Borrowed<std::vector<std::uint64_t>> staging1 =
      scratch.borrow<std::vector<std::uint64_t>>();
  Borrowed<std::vector<std::uint64_t>> staging2 =
      scratch.borrow<std::vector<std::uint64_t>>();
  staging1->resize(lane_block_words(n, 1));
  staging2->resize(lane_block_words(n, 1));
  LaneBlocks blocks(&rng, &num_trials, 1, 1);
  while (blocks.next([&](LaneStates& states, int r0, int r1) {
    draw_two_client_rows(1, n, model, states, staging1->data(),
                         staging2->data(), r0, r1);
  })) {
    out.reach1.load_rows(blocks.block(), staging1->data(), blocks.rows(0));
    out.reach2.load_rows(blocks.block(), staging2->data(), blocks.rows(0));
  }
}

bool nonintersection_chunk_batched(const QuorumFamily& family,
                                   const MismatchModel& model,
                                   TrialGroup& group,
                                   NonintersectionCounts* acc) {
  const std::optional<CountingWalk> walk = lane_counting_walk(family);
  if (!walk) return false;
  const int n = family.universe_size();
  WorkerScratch& scratch = group.ctx[0].scratch();
  std::uint64_t trials[kMaxRngLanes];
  for (int g = 0; g < group.size; ++g)
    trials[g] = group.ctx[g].chunk.end - group.ctx[g].chunk.begin;
  LaneBlocks blocks(group.rng, trials, group.size, rng_lanes_for(group.size));
  const int width = blocks.width();
  Borrowed<std::vector<std::uint64_t>> staging1 =
      scratch.borrow<std::vector<std::uint64_t>>();
  Borrowed<std::vector<std::uint64_t>> staging2 =
      scratch.borrow<std::vector<std::uint64_t>>();
  staging1->resize(lane_block_words(n, width));
  staging2->resize(lane_block_words(n, width));
  Borrowed<LaneColumns> reach1 = scratch.borrow<LaneColumns>();
  Borrowed<LaneColumns> reach2 = scratch.borrow<LaneColumns>();
  reach1->reshape(n, width);
  reach2->reshape(n, width);

  const bool differential = group.ctx[0].batch == BatchPolicy::kDifferential;
  std::unique_ptr<ProbeStrategy> oracle1;
  std::unique_ptr<ProbeStrategy> oracle2;
  Borrowed<TwoClientWorld> world = scratch.borrow<TwoClientWorld>();
  Borrowed<ProbeRecord> r1 = scratch.borrow<ProbeRecord>();
  Borrowed<ProbeRecord> r2 = scratch.borrow<ProbeRecord>();
  if (differential) {
    oracle1 = family.make_probe_strategy();
    oracle2 = family.make_probe_strategy();
  }

  while (blocks.next([&](LaneStates& states, int r0, int r1) {
    draw_two_client_rows(width, n, model, states, staging1->data(),
                         staging2->data(), r0, r1);
  })) {
    reach1->load_rows(staging1->data(), blocks);
    reach2->load_rows(staging2->data(), blocks);
    std::uint64_t both[kMaxRngLanes] = {};
    std::uint64_t miss[kMaxRngLanes] = {};
    nonintersection_lanes(*walk, *reach1, *reach2, both, miss);
    for (int g = 0; g < group.size; ++g) {
      const std::size_t rows = blocks.rows(g);
      if (differential) {
        if ((both[g] & ~reach1->live(g)) != 0)
          throw std::runtime_error(
              "BatchPolicy::differential: batched two-client counting walk "
              "set a bit past the live trials for " + family.name());
        for (std::size_t b = 0; b < rows; ++b) {
          world->reach1.reshape(static_cast<std::size_t>(n));
          world->reach2.reshape(static_cast<std::size_t>(n));
          for (int s = 0; s < n; ++s) {
            if (reach1->test(g, b, s))
              world->reach1.set(static_cast<std::size_t>(s));
            if (reach2->test(g, b, s))
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
          if (scalar_both != (((both[g] >> b) & 1u) != 0) ||
              scalar_miss != (((miss[g] >> b) & 1u) != 0))
            throw std::runtime_error(
                "BatchPolicy::differential: batched two-client counting walk "
                "disagrees with run_probe for " + family.name() +
                " at trial " +
                std::to_string(group.ctx[g].chunk.begin +
                               blocks.block() * kBatchLaneBits + b) +
                " (scalar both=" + std::to_string(scalar_both) +
                " nonintersect=" + std::to_string(scalar_miss) +
                ", batched both=" + std::to_string((both[g] >> b) & 1u) +
                " nonintersect=" + std::to_string((miss[g] >> b) & 1u) + ")");
        }
      }
      acc[g].both_acquired.trials += rows;
      acc[g].both_acquired.successes +=
          static_cast<std::size_t>(__builtin_popcountll(both[g]));
      acc[g].nonintersection.trials += rows;
      acc[g].nonintersection.successes +=
          static_cast<std::size_t>(__builtin_popcountll(miss[g]));
    }
  }
  return true;
}

bool nonintersection_chunk_batched(const QuorumFamily& family,
                                   const MismatchModel& model,
                                   const TrialContext& ctx, Rng& rng,
                                   NonintersectionCounts& acc) {
  TrialGroup group = TrialGroup::single(ctx, rng);
  if (!nonintersection_chunk_batched(family, model, group, &acc)) return false;
  rng = group.rng[0];
  return true;
}

}  // namespace sqs
