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
// scalar stream.

#pragma once

#include <cstdint>

#include "core/batch.h"
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
// (rng_lanes_for(group.size) lanes) and evaluates each chunk's 64-trial
// blocks into acc[i]; the one-chunk form is the group of one.
bool nonintersection_chunk_batched(const QuorumFamily& family,
                                   const MismatchModel& model,
                                   TrialGroup& group,
                                   NonintersectionCounts* acc);
bool nonintersection_chunk_batched(const QuorumFamily& family,
                                   const MismatchModel& model,
                                   const TrialContext& ctx, Rng& rng,
                                   NonintersectionCounts& acc);

}  // namespace sqs
