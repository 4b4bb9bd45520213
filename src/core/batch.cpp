#include "core/batch.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

#include "core/quorum_family.h"
#include "runtime/run_trials.h"
#include "runtime/scratch.h"

namespace sqs {

namespace {

// The group transpose: each row word of all G lanes is one lane word, so
// one 64x64 transpose of lane words flips G blocks at once. Only the first
// `present` staging rows are read (the rest transpose as zero rows), and
// lane g's columns are ANDed with live[g].
template <int G>
[[gnu::always_inline]] inline void transpose_lane_rows(
    int n, const std::uint64_t* rows, std::size_t present,
    const std::uint64_t* live, std::uint64_t* cols) {
  using U = typename LaneWords<G>::U;
  U mask = U{};
  lanes_load<G>(live, mask);
  const std::size_t row_words = batch_row_words(n);
  U block[kBatchLaneBits];
  for (std::size_t rw = 0; rw < row_words; ++rw) {
    for (std::size_t r = 0; r < present; ++r)
      lanes_load<G>(rows + (r * row_words + rw) * G, block[r]);
    for (std::size_t r = present; r < kBatchLaneBits; ++r) block[r] = U{};
    transpose_64x64_words(block);
    const int bits = row_word_bits(n, rw);
    for (int c = 0; c < bits; ++c) {
      const U col = block[c] & mask;
      lanes_store<G>(cols + (rw * kBatchLaneBits + static_cast<std::size_t>(c)) * G,
                     col);
    }
  }
}

[[gnu::target("avx512f")]] void transpose_lane_rows_8(
    int n, const std::uint64_t* rows, const std::uint64_t* live,
    std::uint64_t* cols) {
  transpose_lane_rows<8>(n, rows, kBatchLaneBits, live, cols);
}

[[gnu::target("avx2")]] void transpose_lane_rows_4(
    int n, const std::uint64_t* rows, const std::uint64_t* live,
    std::uint64_t* cols) {
  transpose_lane_rows<4>(n, rows, kBatchLaneBits, live, cols);
}

}  // namespace

void WorldBatch::load_rows(std::size_t w, const std::uint64_t* rows,
                           std::size_t count) {
  assert(w < lane_words_);
  assert(count <= kBatchLaneBits);
  const std::uint64_t live =
      count >= kBatchLaneBits ? ~0ull : (1ull << count) - 1;
  transpose_lane_rows<1>(n_, rows, count, &live, lanes(w));
}

void WorldBatch::extract_trial(std::uint64_t t, Configuration& out) const {
  assert(t < trials_);
  out.reshape(n_);
  const std::uint64_t* col = lanes(static_cast<std::size_t>(t / kBatchLaneBits));
  const std::uint64_t bit = t % kBatchLaneBits;
  for (int s = 0; s < n_; ++s)
    if ((col[s] >> bit) & 1u) out.set_up(s, true);
}

void LaneColumns::extract_trial(int g, std::uint64_t t,
                                Configuration& out) const {
  assert(g < width_ && ((live_[g] >> t) & 1u));
  out.reshape(n_);
  for (int s = 0; s < n_; ++s)
    if (test(g, t, s)) out.set_up(s, true);
}

void LaneColumns::gather(const WorldBatch& worlds, std::size_t w, int width) {
  reshape(worlds.universe_size(), width);
  const std::size_t words = std::min<std::size_t>(
      static_cast<std::size_t>(width), worlds.num_lane_words() - w);
  for (std::size_t g = 0; g < words; ++g) {
    live_[g] = worlds.lane_mask(w + g);
    const std::uint64_t* col = worlds.lanes(w + g);
    for (int s = 0; s < n_; ++s)
      words_[static_cast<std::size_t>(s) * static_cast<std::size_t>(width) + g] =
          col[s];
  }
}


void LaneColumns::load_rows(const std::uint64_t* rows,
                            const LaneBlocks& blocks) {
  assert(blocks.width() == width_);
  for (int g = 0; g < width_; ++g) {
    const std::size_t r = blocks.rows(g);
    live_[g] = r >= kBatchLaneBits ? ~0ull : (1ull << r) - 1;
  }
  switch (width_) {
    case 8: transpose_lane_rows_8(n_, rows, live_, words_.data()); break;
    case 4: transpose_lane_rows_4(n_, rows, live_, words_.data()); break;
    default:
      transpose_lane_rows<1>(n_, rows, kBatchLaneBits, live_, words_.data());
  }
}

namespace {

template <int G>
[[gnu::always_inline]] inline void draw_world_rows_lanes(
    int n, std::uint64_t threshold, LaneStates& states, std::uint64_t* rows,
    int r0, int r1) {
  using U = typename LaneWords<G>::U;
  RngLanes<G> rng;
  rng.load(states);
  const U t = U{} + threshold;
  const std::size_t row_words = batch_row_words(n);
  for (int r = r0; r < r1; ++r) {
    for (std::size_t rw = 0; rw < row_words; ++rw) {
      const int bits = row_word_bits(n, rw);
      U word = U{};
      U bit = U{} + 1;
      for (int i = 0; i < bits; ++i) {
        U hit;
        rng.next_below(t, hit);
        word |= bit & ~hit;
        bit += bit;
      }
      std::memcpy(rows + (static_cast<std::size_t>(r) * row_words + rw) * G,
                  &word, sizeof word);
    }
  }
  rng.store(states);
}

[[gnu::target("avx512f")]] void draw_world_rows_8(
    int n, std::uint64_t threshold, LaneStates& states, std::uint64_t* rows,
    int r0, int r1) {
  draw_world_rows_lanes<8>(n, threshold, states, rows, r0, r1);
}

[[gnu::target("avx2")]] void draw_world_rows_4(
    int n, std::uint64_t threshold, LaneStates& states, std::uint64_t* rows,
    int r0, int r1) {
  draw_world_rows_lanes<4>(n, threshold, states, rows, r0, r1);
}

}  // namespace

void draw_world_rows(int width, int n, std::uint64_t threshold,
                     LaneStates& rngs, std::uint64_t* rows, int r0, int r1) {
  assert(rng_lanes_supported(width));
  switch (width) {
    case 8: draw_world_rows_8(n, threshold, rngs, rows, r0, r1); break;
    case 4: draw_world_rows_4(n, threshold, rngs, rows, r0, r1); break;
    default: draw_world_rows_lanes<1>(n, threshold, rngs, rows, r0, r1);
  }
}

void sample_worlds_into(int n, double p, std::uint64_t num_trials, Rng& rng,
                        WorkerScratch& scratch, WorldBatch& out) {
  out.reshape(n, num_trials);
  Borrowed<std::vector<std::uint64_t>> staging =
      scratch.borrow<std::vector<std::uint64_t>>();
  staging->resize(lane_block_words(n, 1));
  const std::uint64_t threshold = bernoulli_threshold(p);
  LaneBlocks blocks(&rng, &num_trials, 1, 1);
  while (blocks.next([&](LaneStates& states, int r0, int r1) {
    draw_world_rows(1, n, threshold, states, staging->data(), r0, r1);
  }))
    out.load_rows(blocks.block(), staging->data(), blocks.rows(0));
}

void batch_count_at_least(const WorldBatch& worlds, int k, Bitset& out) {
  const int n = worlds.universe_size();
  out.reshape(static_cast<std::size_t>(worlds.num_trials()));
  const int planes_n = lane_counter_planes(n);
  assert(planes_n <= 63);
  std::uint64_t planes[64];
  for (std::size_t w = 0; w < worlds.num_lane_words(); ++w) {
    const std::uint64_t mask = worlds.lane_mask(w);
    std::fill(planes, planes + planes_n, 0);
    const std::uint64_t* col = worlds.lanes(w);
    for (int s = 0; s < n; ++s) lane_counter_add(planes, planes_n, col[s]);
    const std::uint64_t accept =
        k <= 0 ? ~0ull
               : lane_counter_at_least(planes, planes_n,
                                       static_cast<std::uint64_t>(k));
    out.set_word(w, accept & mask);
  }
}

void QuorumFamily::accepts_batch(const WorldBatch& worlds, Bitset& out) const {
  // Fallback for families without a vectorized kernel: extract each trial
  // row and run the scalar predicate. Same bits, no speedup — it exists so
  // BatchPolicy::kBatched is well-defined for every family.
  out.reshape(static_cast<std::size_t>(worlds.num_trials()));
  Borrowed<Configuration> config =
      WorkerScratch::for_thread().borrow<Configuration>();
  config->reshape(worlds.universe_size());
  for (std::uint64_t t = 0; t < worlds.num_trials(); ++t) {
    worlds.extract_trial(t, *config);
    if (accepts(*config)) out.set(static_cast<std::size_t>(t));
  }
}

void QuorumFamily::accepts_lanes(const LaneColumns& cols,
                                 std::uint64_t* out) const {
  // Fallback for families without a group kernel: each lane's block goes
  // through accepts_batch as a one-word WorldBatch.
  WorkerScratch& scratch = WorkerScratch::for_thread();
  Borrowed<WorldBatch> block = scratch.borrow<WorldBatch>();
  Borrowed<Bitset> accepted = scratch.borrow<Bitset>();
  const int n = cols.universe_size();
  for (int g = 0; g < cols.width(); ++g) {
    out[g] = 0;
    if (cols.live(g) == 0) continue;
    block->reshape(n, static_cast<std::uint64_t>(__builtin_popcountll(cols.live(g))));
    std::uint64_t* col = block->lanes(0);
    for (int s = 0; s < n; ++s) col[s] = cols.column(s, g);
    accepts_batch(*block, *accepted);
    out[g] = accepted->word(0);
  }
}

void availability_mc_chunk_batched(const QuorumFamily& family, double p,
                                   TrialGroup& group, std::int64_t* live) {
  const int n = family.universe_size();
  WorkerScratch& scratch = group.ctx[0].scratch();
  std::uint64_t trials[kMaxRngLanes];
  for (int g = 0; g < group.size; ++g)
    trials[g] = group.ctx[g].chunk.end - group.ctx[g].chunk.begin;
  LaneBlocks blocks(group.rng, trials, group.size, rng_lanes_for(group.size));
  Borrowed<std::vector<std::uint64_t>> staging =
      scratch.borrow<std::vector<std::uint64_t>>();
  staging->resize(lane_block_words(n, blocks.width()));
  Borrowed<LaneColumns> cols = scratch.borrow<LaneColumns>();
  cols->reshape(n, blocks.width());
  Borrowed<Configuration> config = scratch.borrow<Configuration>();
  const std::uint64_t threshold = bernoulli_threshold(p);
  while (blocks.next([&](LaneStates& states, int r0, int r1) {
    draw_world_rows(blocks.width(), n, threshold, states, staging->data(), r0,
                    r1);
  })) {
    cols->load_rows(staging->data(), blocks);
    std::uint64_t accepted[kMaxRngLanes] = {};
    family.accepts_lanes(*cols, accepted);
    for (int g = 0; g < group.size; ++g) {
      const std::size_t rows = blocks.rows(g);
      if (group.ctx[g].batch == BatchPolicy::kDifferential) {
        if ((accepted[g] & ~cols->live(g)) != 0)
          throw std::runtime_error(
              "BatchPolicy::differential: accepts_lanes set a bit past the "
              "live trials for family " + family.name());
        for (std::uint64_t t = 0; t < rows; ++t) {
          cols->extract_trial(g, t, *config);
          const bool scalar = family.accepts(*config);
          if (scalar != (((accepted[g] >> t) & 1u) != 0))
            throw std::runtime_error(
                "BatchPolicy::differential: accepts_batch disagrees with the "
                "scalar oracle for family " + family.name() + " at trial " +
                std::to_string(group.ctx[g].chunk.begin +
                               blocks.block() * kBatchLaneBits + t) +
                " (scalar=" + (scalar ? "true" : "false") + ")");
        }
      }
      // 64-bit accumulation: lane popcounts are summed into a signed 64-bit
      // live count, so chunks far beyond 2^16 trials cannot wrap
      // (regression-tested with a 70k-trial single chunk in
      // tests/test_batch.cpp).
      static_assert(sizeof(*live) == 8, "live count must be 64-bit");
      live[g] += __builtin_popcountll(accepted[g]);
    }
  }
}

}  // namespace sqs
