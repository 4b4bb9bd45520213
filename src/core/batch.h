// Structure-of-arrays batch evaluation (the "vectorized batch probe
// kernels" rung of ROADMAP.md; see DESIGN.md §3.12).
//
// A WorldBatch holds T Monte Carlo trials over an n-server universe in
// column-major bit-sliced form: trial t's up/down (or reachability) bit for
// server s lives in bit (t mod 64) of lane word (t/64, s). One pass over a
// lane word therefore evaluates 64 trials at once — population-count
// ladders for threshold-style acceptance, lane-word reachability for Paths.
//
// The batch kernels are bit-identity replacements for the scalar loops, not
// approximations. The contract that makes that hold:
//
//   * Sampling draws the chunk rng in EXACTLY the scalar order (trial-major,
//     server-minor) into per-trial row masks, then flips rows into columns
//     with a 64x64 bit transpose. The rng stream consumed by
//     BatchPolicy::kScalar, kBatched, and kDifferential is identical, so
//     estimates stay bit-identical at any thread count and batch width.
//   * Several chunks can be sampled at once, one chunk stream per vector
//     lane (LaneBlocks below, util/rng_lanes.h): each lane still draws its
//     own chunk's stream in that order.
//   * A drawn group is evaluated in vector lanes too: one transpose of
//     lane words flips every lane's block into LaneColumns, and the group
//     kernels (QuorumFamily::accepts_lanes, the two-client walk of
//     mismatch/batch.h) advance all G blocks with each instruction. Lane
//     g only ever reads and writes lane g, and each block is still its
//     chunk's own 64 trials counted into its own accumulator, so grouping
//     changes no bit. Every group kernel is one template on G, and G = 1
//     is the plain 64-bit kernel.
//   * accepts_batch(worlds, out) must satisfy out[t] == accepts(world t)
//     for every trial, and accepts_lanes the same for every live trial of
//     every lane (and 0 past it). BatchPolicy::kDifferential re-runs the
//     scalar oracle per trial and throws std::runtime_error on the first
//     disagreement.

#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "core/signed_set.h"
#include "util/bitset.h"
#include "util/rng.h"
#include "util/rng_lanes.h"

namespace sqs {

class QuorumFamily;
class WorkerScratch;
struct TrialContext;
struct TrialGroup;

// Number of trials packed per lane word.
inline constexpr std::uint64_t kBatchLaneBits = 64;

// Row words needed to hold one trial's n server bits.
inline std::size_t batch_row_words(int n) {
  return (static_cast<std::size_t>(n) + kBatchLaneBits - 1) / kBatchLaneBits;
}

// Servers held by row word rw of an n-server row: 64, or fewer in the last.
inline int row_word_bits(int n, std::size_t rw) {
  return std::min(n - static_cast<int>(rw * kBatchLaneBits),
                  static_cast<int>(kBatchLaneBits));
}

// T trials x n servers of one bit each, stored lane-word-major: the n
// column words of trial-word w are contiguous (`lanes(w)[s]`), which is the
// access pattern of every batch kernel (ladder adds, frontier BFS, and the
// row<->column transposes).
class WorldBatch {
 public:
  WorldBatch() = default;

  // Re-targets to n servers x num_trials trials, all bits clear, reusing
  // the word storage (the scratch-arena reuse idiom of Bitset::reshape).
  void reshape(int n, std::uint64_t num_trials) {
    assert(n >= 0);
    n_ = n;
    trials_ = num_trials;
    lane_words_ = static_cast<std::size_t>(
        (num_trials + kBatchLaneBits - 1) / kBatchLaneBits);
    words_.assign(lane_words_ * static_cast<std::size_t>(n), 0);
  }

  int universe_size() const { return n_; }
  std::uint64_t num_trials() const { return trials_; }
  std::size_t num_lane_words() const { return lane_words_; }

  // All-ones for full lane words; the ragged tail keeps only live trials.
  std::uint64_t lane_mask(std::size_t w) const {
    assert(w < lane_words_);
    const std::uint64_t live = trials_ - w * kBatchLaneBits;
    return live >= kBatchLaneBits ? ~0ull : (~0ull >> (kBatchLaneBits - live));
  }

  // The n column words of lane word w; lanes(w)[s] is server s's 64 trials.
  const std::uint64_t* lanes(std::size_t w) const {
    assert(w < lane_words_);
    return words_.data() + w * static_cast<std::size_t>(n_);
  }
  std::uint64_t* lanes(std::size_t w) {
    assert(w < lane_words_);
    return words_.data() + w * static_cast<std::size_t>(n_);
  }

  bool test(std::uint64_t trial, int server) const {
    assert(trial < trials_ && server >= 0 && server < n_);
    return (lanes(trial / kBatchLaneBits)[server] >>
            (trial % kBatchLaneBits)) & 1u;
  }

  void set(std::uint64_t trial, int server) {
    assert(trial < trials_ && server >= 0 && server < n_);
    lanes(trial / kBatchLaneBits)[server] |=
        1ull << (trial % kBatchLaneBits);
  }

  // Loads up to 64 trial rows into lane word `w` via 64x64 block
  // transposes (the one-lane instance of LaneColumns::load_rows's group
  // transpose). `rows` is row-major scalar-draw-order staging:
  // rows[r * batch_row_words(n) + rw] holds servers [rw*64, rw*64+64) of
  // trial w*64+r. Rows beyond `count` are not read and treated as absent
  // (their lanes stay clear) — the ragged-tail case.
  void load_rows(std::size_t w, const std::uint64_t* rows, std::size_t count);

  // Writes trial t's row back into a Configuration (up = bit set): the
  // inverse transpose the differential oracle and the default
  // accepts_batch fallback use.
  void extract_trial(std::uint64_t t, Configuration& out) const;

 private:
  int n_ = 0;
  std::uint64_t trials_ = 0;
  std::size_t lane_words_ = 0;
  std::vector<std::uint64_t> words_;
};

// --- bit-sliced lane counters -------------------------------------------
//
// planes[j] holds bit j of a 64-lane vertical counter; num_planes planes
// count up to 2^num_planes - 1 per lane. Used by the threshold ladders and
// the batched OPT_d probe walks. The G template parameter widens every
// plane to G lane words (LaneWords<G>::U, util/rng_lanes.h), so one
// instance counts G blocks of 64 trials; G = 1 is the plain-word counter.

// planes += w (per lane, ripple carry). The caller sizes num_planes so the
// counter cannot overflow (counts are bounded by the universe size);
// asserted for one word (the benchmark build keeps asserts, and a
// cross-lane test per add would slow the vector walks).
template <int G = 1>
[[gnu::always_inline]] inline void lane_counter_add(
    typename LaneWords<G>::U* planes, int num_planes,
    const typename LaneWords<G>::U& w) {
  using U = typename LaneWords<G>::U;
  U carry = w;
  for (int j = 0; j < num_planes; ++j) {
    // One word stops at its last carry; a vector runs every plane (a
    // cross-lane test costs more than the plane it would skip).
    if constexpr (G == 1)
      if (carry == 0) break;
    const U t = planes[j] & carry;
    planes[j] ^= carry;
    carry = t;
  }
  if constexpr (G == 1)
    assert(carry == 0 && "lane counter overflow: too few planes");
}

// out = lanes whose counter is >= c (bit-sliced borrow subtraction). Exact
// for counter values and c below 2^num_planes; a c beyond that range is
// simply unreachable and yields 0.
template <int G = 1>
[[gnu::always_inline]] inline void lane_counter_at_least(
    const typename LaneWords<G>::U* planes, int num_planes, std::uint64_t c,
    typename LaneWords<G>::U& out) {
  using U = typename LaneWords<G>::U;
  if (num_planes < 64 && (c >> num_planes) != 0) {
    out = U{};
    return;
  }
  U borrow = U{};
  for (int j = 0; j < num_planes; ++j)
    borrow = ((c >> j) & 1u) ? (~planes[j] | borrow) : (~planes[j] & borrow);
  out = ~borrow;
}

inline std::uint64_t lane_counter_at_least(const std::uint64_t* planes,
                                           int num_planes, std::uint64_t c) {
  std::uint64_t out;
  lane_counter_at_least<1>(planes, num_planes, c, out);
  return out;
}

// Planes needed to count to n without overflow (2^planes > n).
inline int lane_counter_planes(int n) {
  int planes = 1;
  while ((1ll << planes) <= n) ++planes;
  return planes;
}

// --- lane-parallel sampling -----------------------------------------------

// Staging words of one 64-trial block of n-server rows for `width` lane
// streams, lane-interleaved: row r, row word rw of lane g is word
// (r * batch_row_words(n) + rw) * width + g, so a G-lane sampler stores
// each row word of all lanes as one vector.
inline std::size_t lane_block_words(int n, int width) {
  return kBatchLaneBits * batch_row_words(n) * static_cast<std::size_t>(width);
}

// Steps `count` chunk streams (count <= width <= kMaxRngLanes) through
// their trials one 64-trial block at a time, all `width` lanes drawing
// together; lanes past `count` draw a copy of stream 0 and are ignored.
// Stream i is rngs[i] and draws trials[i] trials; the moment its last row
// is drawn, rngs[i] is left in that state, exactly where the scalar loop
// would leave it. Block staging is the caller's (lane_block_words words),
// so a sampler keeps one block per lane in memory, not whole chunks.
class LaneBlocks {
 public:
  LaneBlocks(Rng* rngs, const std::uint64_t* trials, int count, int width)
      : rngs_(rngs), count_(count), width_(width) {
    assert(count >= 1 && count <= width && width <= kMaxRngLanes);
    for (int g = 0; g < width; ++g) states_.set(g, rngs[g < count ? g : 0]);
    for (int g = 0; g < count; ++g) left_[g] = trials[g];
  }

  int width() const { return width_; }
  // Index of the current block: its rows are trials [64 * block, ...) of
  // every stream.
  std::size_t block() const { return block_; }
  // Rows stream g has in the current block (0 once its trials ran out).
  std::size_t rows(int g) const { return rows_[g]; }

  // Draws the next block through draw(LaneStates&, int r0, int r1), which
  // samples rows [r0, r1) of the block for all `width` lanes. A stream
  // whose trials end inside the block splits the draw at its last row, so
  // its state can be saved there. Returns false once every stream's
  // trials are drawn.
  template <typename DrawFn>
  bool next(DrawFn&& draw) {
    bool any = false;
    for (int g = 0; g < count_; ++g) {
      rows_[g] = static_cast<std::size_t>(
          std::min<std::uint64_t>(kBatchLaneBits, left_[g]));
      any |= rows_[g] != 0;
    }
    if (!any) return false;
    block_ = next_block_++;
    // Segments end at each distinct row count, shortest first.
    for (std::size_t begin = 0;;) {
      std::size_t end = kBatchLaneBits + 1;
      for (int g = 0; g < count_; ++g)
        if (rows_[g] > begin && rows_[g] < end) end = rows_[g];
      if (end > kBatchLaneBits) break;
      draw(states_, static_cast<int>(begin), static_cast<int>(end));
      for (int g = 0; g < count_; ++g)
        if (left_[g] == end) states_.get(g, rngs_[g]);
      begin = end;
    }
    for (int g = 0; g < count_; ++g) left_[g] -= rows_[g];
    return true;
  }

 private:
  Rng* rngs_;
  int count_;
  int width_;
  std::size_t block_ = 0;
  std::size_t next_block_ = 0;
  LaneStates states_;
  std::uint64_t left_[kMaxRngLanes] = {};
  std::size_t rows_[kMaxRngLanes] = {};
};

// --- lane-group evaluation -----------------------------------------------

// One 64-trial block per lane for `width` lanes (1, 4 or 8), side by side:
// word s * width + g is server s's column of block g, so the G lane words
// of one server load as one LaneWords<G>::U and a group kernel evaluates
// all G blocks with each instruction. live(g) holds block g's trials (its
// low rows(g) bits; 0 for an idle lane); kernels AND it in, so bits past a
// block's rows never reach a count.
class LaneColumns {
 public:
  // Re-targets to n servers x `width` blocks, all columns and live masks
  // clear, reusing the word storage.
  void reshape(int n, int width) {
    assert(n >= 0 && width >= 1 && width <= kMaxRngLanes);
    n_ = n;
    width_ = width;
    words_.assign(static_cast<std::size_t>(n) * static_cast<std::size_t>(width), 0);
    std::fill(live_, live_ + kMaxRngLanes, 0);
  }

  int universe_size() const { return n_; }
  int width() const { return width_; }
  std::uint64_t live(int g) const { return live_[g]; }
  // The width live masks as one lane word.
  const std::uint64_t* live_masks() const { return live_; }
  const std::uint64_t* data() const { return words_.data(); }

  std::uint64_t column(int server, int g) const {
    return words_[static_cast<std::size_t>(server) * static_cast<std::size_t>(width_) +
                  static_cast<std::size_t>(g)];
  }
  bool test(int g, std::uint64_t t, int server) const {
    return (column(server, g) >> t) & 1u;
  }
  // Block g's trial t as a Configuration (up = bit set), for the
  // differential replay.
  void extract_trial(int g, std::uint64_t t, Configuration& out) const;

  // Transposes one drawn block of every lane at once: `rows` is the
  // lane-interleaved staging of `blocks` (lane_block_words(n, width)
  // words), and lane g keeps its first blocks.rows(g) rows (stale staging
  // rows and lanes past the stream count are masked off).
  void load_rows(const std::uint64_t* rows, const LaneBlocks& blocks);

  // Re-targets to `width` lanes holding lane words [w, w + width) of
  // `worlds` (lanes past its last word idle), so a group kernel can
  // evaluate a whole-chunk WorldBatch.
  void gather(const WorldBatch& worlds, std::size_t w, int width);

 private:
  int n_ = 0;
  int width_ = 1;
  std::vector<std::uint64_t> words_;
  std::uint64_t live_[kMaxRngLanes] = {};
};

// Draws rows [r0, r1) of a block for `width` lane streams (1, 4 or 8; the
// CPU must run it, see rng_lanes_supported), each row in
// sample_worlds_into's order: bit i of row word rw is set iff server
// rw*64+i is up, i.e. its failure draw bernoulli_below(threshold) missed.
// `rows` is lane-interleaved block staging (lane_block_words).
void draw_world_rows(int width, int n, std::uint64_t threshold,
                     LaneStates& rngs, std::uint64_t* rows, int r0, int r1);

// --- batch kernels -------------------------------------------------------

// Fills `out` with num_trials configurations where each server is up with
// probability 1-p, drawing `rng` in exactly the scalar order of
// availability_mc_group's scalar loop (per trial, per server: up iff
// !rng.bernoulli(p)).
void sample_worlds_into(int n, double p, std::uint64_t num_trials, Rng& rng,
                        WorkerScratch& scratch, WorldBatch& out);

// bit t of out = [number of up servers in trial t >= k] — the popcount
// ladder shared by every threshold-style family (OPT_a, OPT_d acceptance,
// Threshold/Majority, compositions). out is reshaped to num_trials.
void batch_count_at_least(const WorldBatch& worlds, int k, Bitset& out);

// The batched/differential body of availability_mc_group: the group's
// streams are sampled side by side (rng_lanes_for(group.size) lanes), each
// drawn group of 64-trial blocks is evaluated by one accepts_lanes call and
// lane i's accept count added to live[i], and under kDifferential every
// trial is replayed through the scalar oracle, throwing
// std::runtime_error on the first mismatched trial.
void availability_mc_chunk_batched(const QuorumFamily& family, double p,
                                   TrialGroup& group, std::int64_t* live);

}  // namespace sqs
