// Batched two-client mismatch worlds and the bit-sliced non-intersection
// kernel (see core/batch.h and probe/batch.h for the SoA conventions).
//
// The two clients of one trial live in the same lane: bit t of
// reach1/reach2's column s says whether client 1/2 would reach server s in
// trial t. Sampling consumes the chunk rng in exactly sample_world_into's
// order (per server: crash draw, then both link draws; then the optional
// partition redraw pass), so scalar and batched estimates share one stream.
// The kernel runs each client's counting_walk() as a CountingLaneWalk on
// its CountingRule, for every family that probe/batch.h's lane walk covers.
//
// A group of chunks is sampled side by side, one chunk stream per vector
// lane (core/batch.h's LaneBlocks). The draw count of a trial depends on
// its outcomes (a down server skips its two link draws, a partition adds
// one cut draw per server), so every lane draws all candidates and then
// takes, per lane, the state after one draw or after three (after the
// redraw or before it): each lane still consumes exactly its chunk's
// scalar stream. The drawn group is evaluated in the same lanes: each
// client's blocks are transposed at once into LaneColumns, and one
// CountingLaneWalks<G> per client walks all G blocks together
// (nonintersection_lanes); idle lanes carry a zero live mask and never
// acquire.

#pragma once

#include <cstdint>

#include "core/batch.h"
#include "core/probe_strategy.h"
#include "mismatch/model.h"
#include "runtime/run_trials.h"

namespace sqs {

struct TwoClientWorldBatch {
  WorldBatch reach1;
  WorldBatch reach2;
};

// Draws rows [r0, r1) of a block for `width` lane streams (1, 4 or 8; see
// rng_lanes_supported), each trial in sample_world_into's order. rows1 /
// rows2 are the two clients' lane-interleaved block staging
// (lane_block_words).
void draw_two_client_rows(int width, int n, const MismatchModel& model,
                          LaneStates& rngs, std::uint64_t* rows1,
                          std::uint64_t* rows2, int r0, int r1);

// One 64-trial word of the two-client walk: up1 / up2 are the clients'
// column words (server s at index s), mask the live trials. `both` gets
// the trials where both clients acquire, `miss` those of them whose
// probed-positive sets do not meet (Definition 8). The one-lane case of
// nonintersection_lanes.
void nonintersection_word(const CountingWalk& walk, const std::uint64_t* up1,
                          const std::uint64_t* up2, std::uint64_t mask,
                          std::uint64_t& both, std::uint64_t& miss);

// The two-client walk over every block of a lane group at once: both
// clients of all reach1.width() blocks advance with each step (one vector
// pass at width 4 or 8). both[g] / miss[g] are nonintersection_word's
// outputs for block g, zero past its live trials.
void nonintersection_lanes(const CountingWalk& walk, const LaneColumns& reach1,
                           const LaneColumns& reach2, std::uint64_t* both,
                           std::uint64_t* miss);

// Fills `out` with num_trials joint worlds, drawing `rng` bit-for-bit like
// num_trials successive sample_world_into calls.
void sample_two_client_worlds_into(int n, const MismatchModel& model,
                                   std::uint64_t num_trials, Rng& rng,
                                   WorkerScratch& scratch,
                                   TwoClientWorldBatch& out);

// Batched body of nonintersection_group for families with a
// lane_counting_walk() (probe/batch.h): both clients' CountingLaneWalks and
// the Definition 8 probed-positive intersection advance 64 trials per word.
// Returns false — rng and acc untouched — when the family has none, so the
// caller falls back to the scalar two-client loop. Under
// BatchPolicy::kDifferential every trial is replayed through run_probe_into
// and a disagreement throws std::runtime_error.
// The group form samples the group's streams side by side
// (rng_lanes_for(group.size) lanes), walks each drawn group of blocks with
// one nonintersection_lanes call and counts lane i into acc[i]; the
// one-chunk form is the group of one.
bool nonintersection_chunk_batched(const QuorumFamily& family,
                                   const MismatchModel& model,
                                   TrialGroup& group,
                                   NonintersectionCounts* acc);
bool nonintersection_chunk_batched(const QuorumFamily& family,
                                   const MismatchModel& model,
                                   const TrialContext& ctx, Rng& rng,
                                   NonintersectionCounts& acc);

}  // namespace sqs
