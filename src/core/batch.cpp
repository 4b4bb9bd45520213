#include "core/batch.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/quorum_family.h"
#include "runtime/run_trials.h"
#include "runtime/scratch.h"

namespace sqs {

void WorldBatch::load_rows(std::size_t w, const std::uint64_t* rows,
                           std::size_t count) {
  assert(w < lane_words_);
  assert(count <= kBatchLaneBits);
  const std::size_t row_words = batch_row_words(n_);
  std::uint64_t* col = lanes(w);
  std::uint64_t block[64];
  for (std::size_t rw = 0; rw < row_words; ++rw) {
    for (std::size_t r = 0; r < kBatchLaneBits; ++r)
      block[r] = r < count ? rows[r * row_words + rw] : 0;
    transpose_64x64(block);
    const std::size_t base = rw * kBatchLaneBits;
    const std::size_t lim =
        std::min<std::size_t>(kBatchLaneBits, static_cast<std::size_t>(n_) - base);
    for (std::size_t c = 0; c < lim; ++c) col[base + c] = block[c];
  }
}

void WorldBatch::extract_trial(std::uint64_t t, Configuration& out) const {
  assert(t < trials_);
  out.reshape(n_);
  const std::uint64_t* col = lanes(static_cast<std::size_t>(t / kBatchLaneBits));
  const std::uint64_t bit = t % kBatchLaneBits;
  for (int s = 0; s < n_; ++s)
    if ((col[s] >> bit) & 1u) out.set_up(s, true);
}

void sample_worlds_into(int n, double p, std::uint64_t num_trials, Rng& rng,
                        WorkerScratch& scratch, WorldBatch& out) {
  out.reshape(n, num_trials);
  const std::size_t row_words = batch_row_words(n);
  Borrowed<std::vector<std::uint64_t>> staging =
      scratch.borrow<std::vector<std::uint64_t>>();
  std::vector<std::uint64_t>& rows = *staging;
  // Every word of a live row is written below; load_rows ignores the rest.
  rows.resize(kBatchLaneBits * row_words);
  // The scalar draw order, verbatim (up iff the failure draw missed), on a
  // local rng so its state stays in registers; written back at exit.
  Rng local = rng;
  const std::uint64_t threshold = bernoulli_threshold(p);
  std::uint64_t t = 0;
  for (std::size_t w = 0; t < num_trials; ++w) {
    const std::uint64_t block =
        std::min<std::uint64_t>(kBatchLaneBits, num_trials - t);
    for (std::uint64_t r = 0; r < block; ++r) {
      std::uint64_t* row = rows.data() + r * row_words;
      for (std::size_t rw = 0; rw < row_words; ++rw)
        row[rw] = local.miss_word(threshold, row_word_bits(n, rw));
    }
    out.load_rows(w, rows.data(), static_cast<std::size_t>(block));
    t += block;
  }
  rng = local;
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

void availability_mc_chunk_batched(const QuorumFamily& family, double p,
                                   const TrialContext& ctx, Rng& rng,
                                   std::int64_t& live) {
  const int n = family.universe_size();
  const std::uint64_t trials = ctx.chunk.end - ctx.chunk.begin;
  Borrowed<WorldBatch> worlds = ctx.scratch().borrow<WorldBatch>();
  sample_worlds_into(n, p, trials, rng, ctx.scratch(), *worlds);
  Borrowed<Bitset> accepted = ctx.scratch().borrow<Bitset>();
  family.accepts_batch(*worlds, *accepted);
  if (ctx.batch == BatchPolicy::kDifferential) {
    Borrowed<Configuration> config = ctx.scratch().borrow<Configuration>();
    config->reshape(n);
    for (std::uint64_t t = 0; t < trials; ++t) {
      worlds->extract_trial(t, *config);
      const bool scalar = family.accepts(*config);
      if (scalar != accepted->test(static_cast<std::size_t>(t)))
        throw std::runtime_error(
            "BatchPolicy::differential: accepts_batch disagrees with the "
            "scalar oracle for family " + family.name() + " at trial " +
            std::to_string(ctx.chunk.begin + t) + " (scalar=" +
            (scalar ? "true" : "false") + ")");
    }
  }
  // 64-bit accumulation: lane popcounts are summed into a signed 64-bit
  // live count, so batches far beyond 2^16 trials cannot wrap (regression-
  // tested with a 70k-trial single chunk in tests/test_batch.cpp).
  static_assert(sizeof(live) == 8, "live count must be 64-bit");
  live += static_cast<std::int64_t>(accepted->count());
}

}  // namespace sqs
