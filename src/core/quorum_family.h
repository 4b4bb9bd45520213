// Implicit quorum families.
//
// Explicit quorum lists (ExplicitSqs) only scale to tiny universes; the
// paper's constructions (OPT_a, OPT_d, compositions, Paths) have
// exponentially many quorums but admit O(n) acceptance tests and dedicated
// probe strategies. QuorumFamily is the scalable interface all of them and
// all baseline strict systems implement; analyses and benches are written
// against it.

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "core/probe_strategy.h"
#include "core/signed_set.h"
#include "util/rng.h"

namespace sqs {

struct TrialContext;
struct TrialGroup;
class Bitset;
class WorldBatch;
class LaneColumns;

// Defaults of the Monte Carlo availability fallback. Exposed so the sweep
// engine (src/sweep) can schedule grid cells that reduce to exactly the
// same bits as a standalone availability() call.
inline constexpr int kAvailabilityMcSamples = 200000;
inline constexpr std::uint64_t kAvailabilityMcSeed = 0xa5a5a5a5ull;

class QuorumFamily {
 public:
  virtual ~QuorumFamily() = default;

  virtual std::string name() const = 0;

  virtual int universe_size() const = 0;

  // The dual-overlap parameter of Definition 3. Strict (unsigned) systems,
  // whose quorums always intersect positively, report 0.
  virtual int alpha() const = 0;

  // True for unsigned quorum systems: every quorum is all-positive and any
  // two quorums intersect.
  virtual bool is_strict() const = 0;

  // Does some quorum Q of the family satisfy Q ⊆ C? Availability and the
  // probe-complexity lower bounds are defined through this predicate.
  virtual bool accepts(const Configuration& config) const = 0;

  // Batched acceptance over a WorldBatch (src/core/batch.h): bit t of `out`
  // must equal accepts(trial t) — the scalar predicate is the oracle, and
  // BatchPolicy::kDifferential enforces the equality trial by trial.
  // Threshold-style families override this with a popcount ladder and Paths
  // with a frontier BFS (64 trials per word pass); the default extracts
  // each trial and runs accepts(), so every family is batch-callable.
  virtual void accepts_batch(const WorldBatch& worlds, Bitset& out) const;

  // Group acceptance over LaneColumns (src/core/batch.h): out[g] is block
  // g's accept word, bit t == accepts(block g's trial t) for every live
  // trial and 0 past cols.live(g). Paths overrides it with one vector pass
  // over all lanes; the default runs accepts_batch on each lane's block.
  virtual void accepts_lanes(const LaneColumns& cols, std::uint64_t* out) const;

  // Size of the smallest quorum; drives the load lower bound of Theorem 38
  // and the composition precondition of Definition 40 (>= 2 alpha).
  virtual int min_quorum_size() const = 0;

  // Byzantine masking degree b (Malkhi–Reiter–Wool): any two quorums of the
  // family share >= 2b+1 servers, so among the replies backing two
  // overlapping accesses the correct servers outvote b liars. Plain
  // families report 0 — the paper's machinery defends against silence, not
  // lies. Masking variants (src/core/masking.h) override; clients use this
  // as the vote threshold (b+1 matching replies) when reading.
  virtual int masking_b() const { return 0; }

  // Availability at i.i.d. failure probability p. Families with a closed
  // form override this; the default falls back to Monte Carlo over accepts()
  // with a fixed internal seed (reproducible), or exact enumeration when the
  // universe is small.
  virtual double availability(double p) const;

  // The family's counting walk (core/probe_strategy.h) when its probe
  // strategy is a CountingStrategy; nullopt (the default) when it is not.
  // The batch kernels (probe/batch.h, mismatch/batch.h) run an unshuffled,
  // unit-vote walk 64 trials per word. A family with a walk keeps the
  // default make_probe_strategy(); one that overrides it reports none.
  virtual std::optional<CountingWalk> counting_walk() const {
    return std::nullopt;
  }

  // A fresh probe strategy for acquiring a quorum of this family. The
  // default is the CountingStrategy of counting_walk(), which must exist.
  virtual std::unique_ptr<ProbeStrategy> make_probe_strategy() const;

  // Monte Carlo availability over `samples` sampled configurations. Runs
  // on the shared trial runtime (parallel across SQS_THREADS); the chunked
  // seeding makes the estimate bit-identical for any thread count. Public
  // so sweeps and tests can pin samples/seed explicitly; availability()
  // calls it with the kAvailabilityMc* defaults.
  double availability_monte_carlo(double p, int samples = kAvailabilityMcSamples,
                                  std::uint64_t seed = kAvailabilityMcSeed) const;

 protected:
  // Exact availability by enumerating all 2^n configurations (n <= 24).
  double availability_exact_enumeration(double p) const;
};

// The Monte Carlo kernel of availability_monte_carlo over a run_sweep
// TrialGroup, shared with the sweep engine (src/sweep) so a flattened grid
// cell reproduces the per-cell estimate bit for bit: chunk i of the group
// samples one configuration per trial in [ctx[i].chunk.begin,
// ctx[i].chunk.end) from rng[i] and adds the accepting ones to live[i].
// Batched policies (the default) sample the group's streams side by side
// (availability_mc_chunk_batched); kScalar runs the one-trial-at-a-time
// oracle loop per chunk with scratch from the chunk's arena.
void availability_mc_group(const QuorumFamily& family, double p,
                           TrialGroup& group, std::int64_t* live);

}  // namespace sqs
