// The SoA batch layer's bit-identity contract (DESIGN.md §3.12): for every
// family, accepts_batch must equal the scalar accepts() oracle trial by
// trial, the batched estimator kernels must publish the same bits as the
// scalar loops at any thread count and batch width, and
// BatchPolicy::kDifferential must catch any kernel that disagrees. The
// scalar path is always the oracle — these tests never trust two batched
// runs against each other.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/batch.h"
#include "core/composition.h"
#include "core/constructions.h"
#include "core/explicit_sqs.h"
#include "core/masking.h"
#include "core/quorum_family.h"
#include "core/witness.h"
#include "mismatch/batch.h"
#include "mismatch/model.h"
#include "probe/batch.h"
#include "probe/measurements.h"
#include "runtime/run_trials.h"
#include "sweep/sweep.h"
#include "uqs/majority.h"
#include "uqs/paths.h"
#include "uqs/pqs.h"
#include "uqs/weighted_voting.h"
#include "util/bitset.h"
#include "util/rng.h"
#include "util/rng_lanes.h"

namespace sqs {
namespace {

const int kThreadCounts[] = {1, 2, 8};
const std::uint64_t kRaggedTails[] = {1, 63, 64, 65, 1000};

// A deliberately non-monotone family with no vectorized kernel: accepts iff
// the number of up servers is even. Exercises the default accepts_batch
// fallback (per-trial extraction) under the differential harness.
class ParityFamily : public QuorumFamily {
 public:
  explicit ParityFamily(int n) : n_(n) {}
  std::string name() const override { return "parity"; }
  int universe_size() const override { return n_; }
  int alpha() const override { return 0; }
  bool is_strict() const override { return false; }
  bool accepts(const Configuration& config) const override {
    return config.up().count() % 2 == 0;
  }
  int min_quorum_size() const override { return 0; }
  std::unique_ptr<ProbeStrategy> make_probe_strategy() const override {
    return nullptr;
  }

 private:
  int n_;
};

// An intentionally wrong kernel: flips trial 0 of every lane word. The
// differential harness must reject it on the first chunk.
class BrokenBatchFamily : public OptAFamily {
 public:
  BrokenBatchFamily(int n, int alpha) : OptAFamily(n, alpha) {}
  void accepts_batch(const WorldBatch& worlds, Bitset& out) const override {
    OptAFamily::accepts_batch(worlds, out);
    for (std::size_t w = 0; w < out.num_words(); ++w)
      out.set_word(w, out.word(w) ^ 1u);
  }
};

// Every implicit family shape at one (n, alpha) grid point. n >= 3 alpha - 1
// (the OPT_d precondition); the composition's inner majority must have
// min quorum >= 2 alpha, i.e. inner size >= 4 alpha - 1.
std::vector<std::shared_ptr<QuorumFamily>> family_grid_cell(int n, int alpha) {
  std::vector<std::shared_ptr<QuorumFamily>> families;
  families.push_back(std::make_shared<OptAFamily>(n, alpha));
  families.push_back(std::make_shared<OptDFamily>(n, alpha));
  families.push_back(std::make_shared<MajorityFamily>(n));
  families.push_back(
      std::make_shared<ThresholdFamily>(n, alpha, "threshold-alpha"));
  if (4 * alpha - 1 <= n)
    families.push_back(std::make_shared<CompositionFamily>(
        std::make_shared<MajorityFamily>(4 * alpha - 1), n, alpha));
  if (n <= 8)
    families.push_back(std::make_shared<ExplicitSqs>(opt_d_explicit(n, alpha)));
  families.push_back(std::make_shared<ParityFamily>(n));
  return families;
}

std::vector<std::shared_ptr<QuorumFamily>> full_family_grid() {
  std::vector<std::shared_ptr<QuorumFamily>> families;
  for (const auto& [n, alpha] : {std::pair{5, 1}, {8, 2}, {11, 3}})
    for (auto& f : family_grid_cell(n, alpha)) families.push_back(std::move(f));
  // l = 6 and 8 (n = 84, 144) span several row words: the multi-word
  // transpose and the Paths kernel at the sizes the MC benchmark runs.
  for (const int l : {1, 2, 3, 6, 8})
    families.push_back(std::make_shared<PathsFamily>(l));
  return families;
}

// Availability live-count through the shared group kernel under an
// explicit policy — the exact code path availability_monte_carlo and
// sweep_availability dispatch, lane groups included.
std::int64_t count_live(const QuorumFamily& family, double p,
                        std::uint64_t trials, std::uint64_t seed,
                        BatchPolicy policy, int threads = 1,
                        std::uint64_t chunk_size = 256) {
  TrialOptions opts;
  opts.threads = threads;
  opts.chunk_size = chunk_size;
  opts.batch = policy;
  return run_trial_chunks(
      trials, Rng(seed), std::int64_t{0},
      [&](std::int64_t* acc, TrialGroup& group) {
        availability_mc_group(family, p, group, acc);
      },
      [](std::int64_t& total, std::int64_t part) { total += part; }, opts);
}

TEST(Batch, TransposeContractAndInvolution) {
  Rng rng(42);
  std::uint64_t m[64], orig[64];
  for (auto& w : m) w = rng.next_u64();
  std::copy(std::begin(m), std::end(m), std::begin(orig));
  transpose_64x64(m);
  for (int r = 0; r < 64; ++r)
    for (int c = 0; c < 64; ++c)
      ASSERT_EQ((m[c] >> r) & 1u, (orig[r] >> c) & 1u)
          << "bit (" << r << "," << c << ")";
  transpose_64x64(m);
  for (int r = 0; r < 64; ++r) ASSERT_EQ(m[r], orig[r]);
}

TEST(Batch, WorldBatchRoundTripAtWordBoundaryWidths) {
  // The widths where the row<->column transpose blocks go ragged: empty,
  // one short word, exactly one word, one word + 1 bit, two exact words.
  for (const int n : {0, 1, 63, 64, 65, 128}) {
    for (const std::uint64_t trials : kRaggedTails) {
      Rng rng(static_cast<std::uint64_t>(n) * 1000 + trials);
      const std::size_t row_words = batch_row_words(n);
      // Reference row staging across all trials, then load word by word.
      std::vector<std::uint64_t> rows(trials * row_words, 0);
      for (std::uint64_t t = 0; t < trials; ++t)
        for (int s = 0; s < n; ++s)
          if (rng.bernoulli(0.5))
            rows[t * row_words + static_cast<std::size_t>(s) / 64] |=
                1ull << (static_cast<std::size_t>(s) % 64);
      WorldBatch batch;
      batch.reshape(n, trials);
      for (std::size_t w = 0; w < batch.num_lane_words(); ++w) {
        const std::uint64_t begin = w * kBatchLaneBits;
        const std::uint64_t block =
            std::min<std::uint64_t>(kBatchLaneBits, trials - begin);
        batch.load_rows(w, rows.data() + begin * row_words,
                        static_cast<std::size_t>(block));
      }
      Configuration config(Bitset(static_cast<std::size_t>(n)));
      for (std::uint64_t t = 0; t < trials; ++t) {
        batch.extract_trial(t, config);
        for (int s = 0; s < n; ++s) {
          const bool expected =
              (rows[t * row_words + static_cast<std::size_t>(s) / 64] >>
               (static_cast<std::size_t>(s) % 64)) &
              1u;
          ASSERT_EQ(batch.test(t, s), expected)
              << "n=" << n << " trial " << t << " server " << s;
          ASSERT_EQ(config.is_up(s), expected);
        }
      }
    }
  }
}

TEST(Batch, SamplersMatchScalarDrawsAndLeaveRngInScalarState) {
  // The samplers draw on a local copy of the caller's rng and write it back:
  // every world must equal the scalar per-trial draws, and the caller's rng
  // must end in the scalar loop's state.
  WorkerScratch& scratch = WorkerScratch::for_thread();
  for (const int n : {1, 63, 64, 65, 144, 220}) {
    for (const std::uint64_t trials : kRaggedTails) {
      const std::uint64_t seed = static_cast<std::uint64_t>(n) * 1000 + trials;
      Rng batched(seed), scalar(seed);
      WorldBatch worlds;
      sample_worlds_into(n, 0.3, trials, batched, scratch, worlds);
      for (std::uint64_t t = 0; t < trials; ++t)
        for (int s = 0; s < n; ++s)
          ASSERT_EQ(worlds.test(t, s), !scalar.bernoulli(0.3))
              << "n=" << n << " trial " << t << " server " << s;
      ASSERT_EQ(batched.next_u64(), scalar.next_u64())
          << "n=" << n << " trials " << trials;

      for (const double partition_rate : {0.0, 0.3}) {
        MismatchModel model;
        model.p = 0.1;
        model.link_miss = 0.2;
        model.partition_rate = partition_rate;
        model.partition_fraction = 0.5;
        Rng pair_batched(seed), pair_scalar(seed);
        TwoClientWorldBatch pair;
        sample_two_client_worlds_into(n, model, trials, pair_batched, scratch,
                                      pair);
        TwoClientWorld world;
        for (std::uint64_t t = 0; t < trials; ++t) {
          sample_world_into(n, model, pair_scalar, world);
          for (int s = 0; s < n; ++s) {
            const auto i = static_cast<std::size_t>(s);
            ASSERT_EQ(pair.reach1.test(t, s), world.reach1.test(i))
                << "n=" << n << " partition " << partition_rate << " trial "
                << t << " server " << s;
            ASSERT_EQ(pair.reach2.test(t, s), world.reach2.test(i))
                << "n=" << n << " partition " << partition_rate << " trial "
                << t << " server " << s;
          }
        }
        ASSERT_EQ(pair_batched.next_u64(), pair_scalar.next_u64())
            << "n=" << n << " trials " << trials << " partition "
            << partition_rate;
      }
    }
  }
}

// --- lane-parallel samplers ---------------------------------------------

// Trials per stream of one lane group: streams ending before, on and after
// a block edge, a one-trial stream and an empty one.
const std::uint64_t kLaneTrials[kMaxRngLanes] = {130, 64, 1, 200, 0, 65, 128, 63};

class LaneSamplers : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    if (!rng_lanes_supported(GetParam()))
      GTEST_SKIP() << "this CPU lacks "
                   << (GetParam() == 8 ? "AVX-512F" : "AVX2") << " for "
                   << GetParam() << " lanes";
  }

  // Runs `count` streams through LaneBlocks at this width, handing each
  // drawn block to check(blocks), and then checks every stream's trial
  // count and final state against `scalar` (the per-stream oracle rngs,
  // advanced by check).
  template <typename DrawFn, typename CheckFn>
  void run_streams(int count, std::uint64_t seed, Rng* scalar, DrawFn&& draw,
                   CheckFn&& check) {
    const int width = GetParam();
    Rng lanes[kMaxRngLanes];
    for (int g = 0; g < count; ++g)
      lanes[g] = scalar[g] = Rng(seed).split(static_cast<std::uint64_t>(g));
    LaneBlocks blocks(lanes, kLaneTrials, count, width);
    std::uint64_t seen[kMaxRngLanes] = {};
    while (blocks.next([&](LaneStates& states, int r0, int r1) {
      draw(width, states, r0, r1);
    })) {
      check(blocks);
      for (int g = 0; g < count; ++g) seen[g] += blocks.rows(g);
    }
    for (int g = 0; g < count; ++g) {
      ASSERT_EQ(seen[g], kLaneTrials[g]) << "stream " << g;
      ASSERT_EQ(lanes[g].next_u64(), scalar[g].next_u64())
          << "stream " << g << " of " << count << " at width " << width
          << ": final state";
    }
  }
};

TEST_P(LaneSamplers, MatchScalarDrawsAndFinalStates) {
  // Every lane of a group must draw exactly its own stream in the scalar
  // order — the crash skip and the partition redraw included — and stop
  // in the scalar end state, whatever the other lanes do.
  const int width = GetParam();
  for (const int n : {1, 24, 64, 65, 144}) {
    const std::vector<int> counts =
        width == 1 ? std::vector<int>{1} : std::vector<int>{1, width - 1, width};
    for (const int count : counts) {
      const std::uint64_t seed =
          static_cast<std::uint64_t>(n) * 100 + static_cast<std::uint64_t>(count);
      std::vector<std::uint64_t> rows1(lane_block_words(n, width));
      std::vector<std::uint64_t> rows2(lane_block_words(n, width));
      LaneColumns cols1;
      LaneColumns cols2;
      cols1.reshape(n, width);
      cols2.reshape(n, width);
      Rng scalar[kMaxRngLanes];

      // p = 0 and 1 put the threshold at 0 and 2^53, the ends of the
      // signed compare's range (and of the 8-lane unsigned one).
      for (const double p : {0.0, 0.3, 1.0}) {
        const std::uint64_t threshold = bernoulli_threshold(p);
        run_streams(
            count, seed, scalar,
            [&](int w, LaneStates& states, int r0, int r1) {
              draw_world_rows(w, n, threshold, states, rows1.data(), r0, r1);
            },
            [&](const LaneBlocks& blocks) {
              cols1.load_rows(rows1.data(), blocks);
              for (int g = 0; g < count; ++g)
                for (std::uint64_t t = 0; t < blocks.rows(g); ++t)
                  for (int s = 0; s < n; ++s)
                    ASSERT_EQ(cols1.test(g, t, s), !scalar[g].bernoulli(p))
                        << "n=" << n << " p=" << p << " stream " << g
                        << " trial " << t << " server " << s;
            });
      }

      // Crash and link-miss probabilities at 0 and 1 as well (the ends of
      // the 8-lane unsigned compare against threshold << 11, where 2^53
      // wraps to 0), and the partition redraw with no cut, some cuts and
      // every server cut, and in every row.
      std::vector<MismatchModel> models;
      for (const double p : {0.0, 0.1, 1.0})
        for (const double link_miss : {0.0, 0.2, 1.0}) {
          MismatchModel model;
          model.p = p;
          model.link_miss = link_miss;
          models.push_back(model);
        }
      for (const double partition_fraction : {0.0, 0.5, 1.0}) {
        MismatchModel model;
        model.p = 0.1;
        model.link_miss = 0.2;
        model.partition_rate = 0.3;
        model.partition_fraction = partition_fraction;
        models.push_back(model);
      }
      models.push_back(models.back());
      models.back().partition_rate = 1.0;
      models.back().partition_fraction = 0.5;
      for (const MismatchModel& model : models) {
        TwoClientWorld world;
        run_streams(
            count, seed + 7, scalar,
            [&](int w, LaneStates& states, int r0, int r1) {
              draw_two_client_rows(w, n, model, states, rows1.data(),
                                   rows2.data(), r0, r1);
            },
            [&](const LaneBlocks& blocks) {
              cols1.load_rows(rows1.data(), blocks);
              cols2.load_rows(rows2.data(), blocks);
              for (int g = 0; g < count; ++g) {
                for (std::uint64_t t = 0; t < blocks.rows(g); ++t) {
                  sample_world_into(n, model, scalar[g], world);
                  for (int s = 0; s < n; ++s) {
                    const auto i = static_cast<std::size_t>(s);
                    ASSERT_EQ(cols1.test(g, t, s), world.reach1.test(i))
                        << "n=" << n << " p=" << model.p << " miss "
                        << model.link_miss << " partition "
                        << model.partition_rate << "/"
                        << model.partition_fraction << " stream " << g
                        << " trial " << t << " server " << s;
                    ASSERT_EQ(cols2.test(g, t, s), world.reach2.test(i))
                        << "n=" << n << " p=" << model.p << " miss "
                        << model.link_miss << " partition "
                        << model.partition_rate << "/"
                        << model.partition_fraction << " stream " << g
                        << " trial " << t << " server " << s;
                  }
                }
              }
            });
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, LaneSamplers, ::testing::Values(1, 4, 8));

TEST(Batch, LaneCountersMatchScalarCounts) {
  Rng rng(7);
  for (int n : {1, 2, 7, 31, 64, 200}) {
    const int planes_n = lane_counter_planes(n);
    ASSERT_GT(1ll << planes_n, n);
    std::vector<std::uint64_t> planes(static_cast<std::size_t>(planes_n), 0);
    std::vector<int> scalar(64, 0);
    for (int s = 0; s < n; ++s) {
      const std::uint64_t w = rng.next_u64();
      lane_counter_add(planes.data(), planes_n, w);
      for (int b = 0; b < 64; ++b) scalar[static_cast<std::size_t>(b)] +=
          static_cast<int>((w >> b) & 1u);
    }
    for (const int k : {0, 1, n / 2, n, n + 1}) {
      const std::uint64_t at_least = lane_counter_at_least(
          planes.data(), planes_n, static_cast<std::uint64_t>(k));
      for (int b = 0; b < 64; ++b)
        ASSERT_EQ((at_least >> b) & 1u,
                  scalar[static_cast<std::size_t>(b)] >= k ? 1u : 0u)
            << "n=" << n << " k=" << k << " lane " << b;
    }
  }
}

TEST(Batch, AcceptsBatchMatchesScalarOracleOnRaggedTails) {
  for (const auto& family : full_family_grid()) {
    const int n = family->universe_size();
    for (const std::uint64_t trials : kRaggedTails) {
      Rng rng(900 + trials);
      WorldBatch worlds;
      sample_worlds_into(n, 0.35, trials, rng, WorkerScratch::for_thread(),
                         worlds);
      Bitset out;
      family->accepts_batch(worlds, out);
      ASSERT_EQ(out.size(), trials);
      Configuration config(Bitset(static_cast<std::size_t>(n)));
      for (std::uint64_t t = 0; t < trials; ++t) {
        worlds.extract_trial(t, config);
        ASSERT_EQ(out.test(static_cast<std::size_t>(t)),
                  family->accepts(config))
            << family->name() << " trial " << t << " of " << trials;
      }
    }
  }
}

TEST(Batch, DifferentialAvailabilityPassesOverFamilyGrid) {
  // The acceptance gate: zero batched/scalar mismatches over the whole
  // family x miss-probability matrix, enforced by the throwing harness.
  for (const auto& family : full_family_grid()) {
    for (const double p : {0.05, 0.3, 0.6}) {
      const std::int64_t scalar =
          count_live(*family, p, 4097, 77, BatchPolicy::kScalar);
      std::int64_t differential = 0;
      ASSERT_NO_THROW(differential = count_live(*family, p, 4097, 77,
                                                BatchPolicy::kDifferential))
          << family->name() << " p=" << p;
      EXPECT_EQ(differential, scalar) << family->name() << " p=" << p;
      EXPECT_EQ(count_live(*family, p, 4097, 77, BatchPolicy::kBatched), scalar)
          << family->name() << " p=" << p;
    }
  }
}

TEST(Batch, BrokenKernelIsCaughtByDifferentialMode) {
  const BrokenBatchFamily broken(10, 2);
  EXPECT_THROW(count_live(broken, 0.3, 500, 5, BatchPolicy::kDifferential),
               std::runtime_error);
  // And silently accepted when nothing checks it — which is exactly why the
  // differential harness exists.
  EXPECT_NE(count_live(broken, 0.3, 500, 5, BatchPolicy::kBatched),
            count_live(broken, 0.3, 500, 5, BatchPolicy::kScalar));
}

TEST(Batch, AvailabilityBitIdenticalAcrossThreadCountsAndChunkSizes) {
  // OPT_d(40, 3) at p = 0.25 accepts almost every world; Paths(4) at
  // p = 0.5 accepts about a third, so a chunk drawn from the wrong stream
  // or lane changes its count. The chunk size fixes the streams, so each
  // is compared with the scalar count at that size. The chunk counts
  // (313, 20, 5) at 1, 2 and 8 threads give lane groups of every width,
  // partial groups included.
  const OptDFamily optd(40, 3);
  const PathsFamily paths(4);
  for (const auto& [family, p] :
       {std::pair<const QuorumFamily*, double>{&optd, 0.25}, {&paths, 0.5}})
    for (const std::uint64_t chunk : {64ull, 1000ull, 4096ull}) {
      const std::int64_t scalar = count_live(*family, p, 20000, 123,
                                             BatchPolicy::kScalar, 1, chunk);
      for (const int threads : kThreadCounts)
        EXPECT_EQ(count_live(*family, p, 20000, 123, BatchPolicy::kBatched,
                             threads, chunk),
                  scalar)
            << family->name() << ", " << threads << " threads, chunk "
            << chunk;
    }
}

// Every family whose counting walk the lane walk runs: OPT_d (identity
// and rotated), OPT_a, masking OPT_a and the witness model (a prefix and
// a scattered list).
std::vector<std::shared_ptr<QuorumFamily>> lane_walk_families(int n) {
  std::vector<std::shared_ptr<QuorumFamily>> families;
  families.push_back(std::make_shared<OptDFamily>(n, 2));
  auto rotated = std::make_shared<OptDFamily>(n, 2);
  std::vector<int> order(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    order[static_cast<std::size_t>(i)] = (i + 5) % n;
  rotated->set_probe_order(order);
  families.push_back(rotated);
  families.push_back(std::make_shared<OptAFamily>(n, 2));
  families.push_back(std::make_shared<MaskingOptAFamily>(n, 2, 1));
  families.push_back(std::make_shared<WitnessFamily>(n, 8, 2));
  families.push_back(std::make_shared<WitnessFamily>(
      n, std::vector<int>{7, 2, 9, 4, 0}, 2));
  return families;
}

TEST(Batch, ProbeKernelMatchesScalarBitForBit) {
  std::vector<std::shared_ptr<QuorumFamily>> families = lane_walk_families(24);
  families.insert(families.begin(), std::make_shared<OptDFamily>(48, 2));
  for (const auto& family : families) {
    ASSERT_TRUE(lane_counting_walk(*family).has_value()) << family->name();
    TrialOptions scalar_opts;
    const ProbeMeasurement scalar =
        measure_probes(*family, 0.25, 10000, Rng(91), scalar_opts);
    for (const BatchPolicy policy :
         {BatchPolicy::kBatched, BatchPolicy::kDifferential}) {
      TrialOptions opts;
      opts.batch = policy;
      const ProbeMeasurement batched =
          measure_probes(*family, 0.25, 10000, Rng(91), opts);
      // Bit-identical including the order-sensitive Welford aggregates.
      EXPECT_EQ(batched.acquired.successes, scalar.acquired.successes)
          << family->name();
      EXPECT_EQ(batched.acquired.trials, scalar.acquired.trials);
      EXPECT_EQ(batched.probes_overall.mean(), scalar.probes_overall.mean());
      EXPECT_EQ(batched.probes_overall.variance(),
                scalar.probes_overall.variance());
      EXPECT_EQ(batched.probes_acquired.mean(), scalar.probes_acquired.mean());
      EXPECT_EQ(batched.probes_failed.mean(), scalar.probes_failed.mean());
      EXPECT_EQ(batched.max_probes_seen, scalar.max_probes_seen);
      EXPECT_EQ(batched.server_probe_frequency, scalar.server_probe_frequency);
    }
  }
}

TEST(Batch, ProbeKernelRespectsRotatedProbeOrders) {
  // The OPT_d probe order is a construction parameter (Sect. 6.3 rotation);
  // the lane walk must consume it identically.
  OptDFamily family(20, 2);
  std::vector<int> order(20);
  for (int i = 0; i < 20; ++i) order[static_cast<std::size_t>(i)] = (i + 7) % 20;
  family.set_probe_order(order);
  TrialOptions opts;
  opts.batch = BatchPolicy::kDifferential;
  const ProbeMeasurement batched =
      measure_probes(family, 0.3, 6000, Rng(17), opts);
  const ProbeMeasurement scalar = measure_probes(family, 0.3, 6000, Rng(17));
  EXPECT_EQ(batched.server_probe_frequency, scalar.server_probe_frequency);
  EXPECT_EQ(batched.probes_overall.mean(), scalar.probes_overall.mean());
}

TEST(Batch, ProbeKernelFallsBackForRandomizedStrategies) {
  // Threshold, PQS and weighted-voting probing shuffle their order (and
  // weighted voting counts votes, not probes): no bit-sliced kernel
  // exists, so kBatched must quietly take the scalar path and change
  // nothing.
  std::vector<std::shared_ptr<QuorumFamily>> families;
  families.push_back(std::make_shared<MajorityFamily>(15));
  families.push_back(std::make_shared<PqsFamily>(16, 1.0));
  families.push_back(std::make_shared<WeightedVotingFamily>(
      std::vector<int>{3, 1, 1, 2, 1, 1, 2}, 6));
  for (const auto& family : families) {
    EXPECT_FALSE(lane_counting_walk(*family).has_value()) << family->name();
    TrialOptions opts;
    opts.batch = BatchPolicy::kBatched;
    const ProbeMeasurement batched =
        measure_probes(*family, 0.2, 5000, Rng(8), opts);
    const ProbeMeasurement scalar = measure_probes(*family, 0.2, 5000, Rng(8));
    EXPECT_EQ(batched.acquired.successes, scalar.acquired.successes)
        << family->name();
    EXPECT_EQ(batched.probes_overall.mean(), scalar.probes_overall.mean());
    EXPECT_EQ(batched.server_probe_frequency, scalar.server_probe_frequency);
  }
}

TEST(Batch, NonintersectionKernelMatchesScalarBitForBit) {
  std::vector<std::shared_ptr<QuorumFamily>> families = lane_walk_families(20);
  families.insert(families.begin(), std::make_shared<OptDFamily>(20, 1));
  for (const auto& family : families) {
    MismatchModel model;
    model.p = 0.1;
    model.link_miss = 0.25;
    const NonintersectionStats scalar =
        measure_nonintersection(*family, model, 20000, Rng(500));
    for (const BatchPolicy policy :
         {BatchPolicy::kBatched, BatchPolicy::kDifferential}) {
      TrialOptions opts;
      opts.batch = policy;
      const NonintersectionStats batched =
          measure_nonintersection(*family, model, 20000, Rng(500), 1.0, opts);
      EXPECT_EQ(batched.both_acquired.successes, scalar.both_acquired.successes)
          << family->name();
      EXPECT_EQ(batched.both_acquired.trials, scalar.both_acquired.trials);
      EXPECT_EQ(batched.nonintersection.successes,
                scalar.nonintersection.successes)
          << family->name();
      EXPECT_EQ(batched.nonintersection.trials, scalar.nonintersection.trials);
    }
  }
}

TEST(Batch, NonintersectionKernelHandlesCorrelatedPartitions) {
  // The partition knob adds a second rng pass over reach2; the batched
  // sampler must consume it in exactly the scalar order.
  const OptDFamily family(18, 2);
  MismatchModel model;
  model.p = 0.1;
  model.link_miss = 0.2;
  model.partition_rate = 0.3;
  model.partition_fraction = 0.5;
  const NonintersectionStats scalar =
      measure_nonintersection(family, model, 12000, Rng(31));
  TrialOptions opts;
  opts.batch = BatchPolicy::kDifferential;
  const NonintersectionStats batched =
      measure_nonintersection(family, model, 12000, Rng(31), 1.0, opts);
  EXPECT_EQ(batched.both_acquired.successes, scalar.both_acquired.successes);
  EXPECT_EQ(batched.nonintersection.successes,
            scalar.nonintersection.successes);
}

TEST(Batch, EstimatorsBitIdenticalAcrossThreadCountsWhenBatched) {
  const auto family = std::make_shared<OptDFamily>(24, 2);
  MismatchModel model;
  model.p = 0.15;
  model.link_miss = 0.2;
  std::vector<ProbeMeasurement> probe_runs;
  std::vector<NonintersectionStats> noni_runs;
  for (const int threads : kThreadCounts) {
    TrialOptions opts;
    opts.threads = threads;
    opts.chunk_size = 512;
    opts.batch = BatchPolicy::kBatched;
    probe_runs.push_back(measure_probes(*family, 0.2, 12000, Rng(64), opts));
    noni_runs.push_back(
        measure_nonintersection(*family, model, 12000, Rng(65), 1.0, opts));
  }
  for (std::size_t r = 1; r < probe_runs.size(); ++r) {
    EXPECT_EQ(probe_runs[r].probes_overall.mean(),
              probe_runs[0].probes_overall.mean())
        << kThreadCounts[r] << " threads";
    EXPECT_EQ(probe_runs[r].probes_overall.variance(),
              probe_runs[0].probes_overall.variance());
    EXPECT_EQ(probe_runs[r].acquired.successes,
              probe_runs[0].acquired.successes);
    EXPECT_EQ(probe_runs[r].server_probe_frequency,
              probe_runs[0].server_probe_frequency);
    EXPECT_EQ(noni_runs[r].both_acquired.successes,
              noni_runs[0].both_acquired.successes);
    EXPECT_EQ(noni_runs[r].nonintersection.successes,
              noni_runs[0].nonintersection.successes);
  }
}

TEST(Batch, SweepDispatchesBatchPolicyPerCell) {
  // run_sweep forwards opts.batch through TrialContext: a batched grid must
  // reduce to the scalar grid's bits (and differential must pass).
  std::vector<AvailabilityCell> cells;
  for (const int n : {30, 40})
    for (const double p : {0.2, 0.4})
      cells.push_back({std::make_shared<OptDFamily>(n, 2), p, 20000, 777});
  const std::vector<AvailabilityEstimate> scalar = sweep_availability(cells);
  for (const BatchPolicy policy :
       {BatchPolicy::kBatched, BatchPolicy::kDifferential}) {
    TrialOptions opts;
    opts.batch = policy;
    opts.threads = 4;
    const std::vector<AvailabilityEstimate> batched =
        sweep_availability(cells, opts);
    ASSERT_EQ(batched.size(), scalar.size());
    for (std::size_t i = 0; i < cells.size(); ++i)
      EXPECT_EQ(batched[i].live, scalar[i].live) << "cell " << i;
  }
}

TEST(Batch, PopcountAccumulationSurvivesBatchesBeyond64kTrials) {
  // Regression guard for 16-bit popcount accumulation: a single 70000-trial
  // chunk whose accept count exceeds 2^16 must not wrap.
  const OptAFamily family(10, 1);
  const std::int64_t scalar = count_live(family, 0.01, 70000, 99,
                                         BatchPolicy::kScalar, 1, 70000);
  const std::int64_t batched = count_live(family, 0.01, 70000, 99,
                                          BatchPolicy::kBatched, 1, 70000);
  EXPECT_EQ(batched, scalar);
  EXPECT_GT(batched, 1 << 16);
}

// --- randomized property tests ------------------------------------------

// Arbitrary signed systems: quorums with random positive/negative literals
// (not necessarily valid SQSs — accepts() is defined regardless).
ExplicitSqs random_signed_system(Rng& rng, int n, bool positive_only) {
  ExplicitSqs system(n, 1);
  const int num_quorums = 1 + static_cast<int>(rng.next_below(6));
  for (int q = 0; q < num_quorums; ++q) {
    SignedSet quorum(n);
    for (int s = 0; s < n; ++s) {
      if (rng.bernoulli(0.3)) {
        quorum.add_positive(s);
      } else if (!positive_only && rng.bernoulli(0.25)) {
        quorum.add_negative(s);
      }
    }
    quorum.add_positive(static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(n))));  // at least one positive
    system.add_quorum(quorum);
  }
  return system;
}

TEST(Batch, RandomizedExplicitSystemsAgreeWithScalarOracle) {
  // ~10k (system, world) cases: batched acceptance of arbitrary signed
  // systems must equal the scalar predicate on every sampled trial.
  Rng rng(2024);
  std::uint64_t cases = 0;
  Configuration config;
  for (int iter = 0; iter < 160; ++iter) {
    const int n = 1 + static_cast<int>(rng.next_below(16));
    const ExplicitSqs system = random_signed_system(rng, n, false);
    const std::uint64_t trials = 1 + rng.next_below(130);
    const double p = rng.next_double();
    Rng world_rng = rng.split(static_cast<std::uint64_t>(iter));
    WorldBatch worlds;
    sample_worlds_into(n, p, trials, world_rng, WorkerScratch::for_thread(),
                       worlds);
    Bitset out;
    system.accepts_batch(worlds, out);
    for (std::uint64_t t = 0; t < trials; ++t) {
      worlds.extract_trial(t, config);
      ASSERT_EQ(out.test(static_cast<std::size_t>(t)), system.accepts(config))
          << "iter " << iter << " trial " << t;
      ++cases;
    }
  }
  EXPECT_GE(cases, 10000u);
}

TEST(Batch, MonotoneSystemsStayMonotoneUnderBatchEvaluation) {
  // Monotonicity holds only without negative literals (a signed quorum can
  // reject a superset world): for positive-only systems and implicit
  // threshold families, turning servers up can never clear an accept lane.
  Rng rng(77);
  for (int iter = 0; iter < 60; ++iter) {
    const int n = 2 + static_cast<int>(rng.next_below(14));
    std::vector<std::shared_ptr<QuorumFamily>> families;
    families.push_back(std::make_shared<ExplicitSqs>(
        random_signed_system(rng, n, /*positive_only=*/true)));
    families.push_back(std::make_shared<ThresholdFamily>(
        n, 1 + static_cast<int>(rng.next_below(
                   static_cast<std::uint64_t>(n)))));
    const std::uint64_t trials = 1 + rng.next_below(100);
    Rng world_rng = rng.split(static_cast<std::uint64_t>(iter));
    WorldBatch worlds;
    sample_worlds_into(n, 0.5, trials, world_rng, WorkerScratch::for_thread(),
                       worlds);
    // A superset batch: every world with a few extra servers forced up.
    WorldBatch bigger = worlds;
    for (std::uint64_t t = 0; t < trials; ++t)
      for (int s = 0; s < n; ++s)
        if (rng.bernoulli(0.2) && !bigger.test(t, s)) bigger.set(t, s);
    Configuration config;
    for (const auto& family : families) {
      Bitset accept_small, accept_big;
      family->accepts_batch(worlds, accept_small);
      family->accepts_batch(bigger, accept_big);
      for (std::size_t w = 0; w < accept_small.num_words(); ++w)
        ASSERT_EQ(accept_small.word(w) & ~accept_big.word(w), 0u)
            << family->name() << " iter " << iter
            << ": accept lane lost under a superset world";
      for (std::uint64_t t = 0; t < trials; ++t) {
        bigger.extract_trial(t, config);
        ASSERT_EQ(accept_big.test(static_cast<std::size_t>(t)),
                  family->accepts(config));
      }
    }
  }
}

TEST(Batch, PolicyNamesRoundTrip) {
  for (const BatchPolicy policy : {BatchPolicy::kScalar, BatchPolicy::kBatched,
                                   BatchPolicy::kDifferential}) {
    BatchPolicy parsed = BatchPolicy::kScalar;
    EXPECT_TRUE(parse_batch_policy(batch_policy_name(policy), parsed));
    EXPECT_EQ(parsed, policy);
  }
  BatchPolicy parsed = BatchPolicy::kBatched;
  EXPECT_FALSE(parse_batch_policy("vectorized", parsed));
  EXPECT_EQ(parsed, BatchPolicy::kBatched);  // untouched on failure
}

// --- lane-group kernels ----------------------------------------------------
//
// Each group kernel (the transpose, Paths reach, the two-client walk) runs
// G blocks in one vector pass; lane g of its result must equal the same
// kernel run on block g alone (and, for Paths, the scalar accepts()).

class LaneGroupKernels : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    if (!rng_lanes_supported(GetParam()))
      GTEST_SKIP() << "this CPU lacks "
                   << (GetParam() == 8 ? "AVX-512F" : "AVX2") << " for "
                   << GetParam() << " lanes";
  }

  // Stream counts of a group at this width: full, and 3 chunks in 8 lanes
  // (idle lanes past the streams).
  std::vector<int> stream_counts() const {
    const int width = GetParam();
    return width == 8 ? std::vector<int>{8, 3} : std::vector<int>{width};
  }

  // Draws the ragged streams of kLaneTrials block by block through
  // LaneBlocks at this width and hands each drawn block to check().
  template <typename DrawFn, typename CheckFn>
  void for_each_block(int count, std::uint64_t seed, DrawFn&& draw,
                      CheckFn&& check) {
    Rng rngs[kMaxRngLanes];
    for (int g = 0; g < count; ++g)
      rngs[g] = Rng(seed).split(static_cast<std::uint64_t>(g));
    LaneBlocks blocks(rngs, kLaneTrials, count, GetParam());
    while (blocks.next([&](LaneStates& states, int r0, int r1) {
      draw(GetParam(), states, r0, r1);
    }))
      check(blocks);
  }
};

// Block g of `cols` as a one-word WorldBatch.
WorldBatch lane_block(const LaneColumns& cols, int g) {
  WorldBatch block;
  block.reshape(cols.universe_size(),
                static_cast<std::uint64_t>(__builtin_popcountll(cols.live(g))));
  for (int s = 0; s < cols.universe_size(); ++s)
    block.lanes(0)[s] = cols.column(s, g);
  return block;
}

TEST_P(LaneGroupKernels, TransposeMatchesOneLaneAtATime) {
  const int width = GetParam();
  for (const int n : {1, 24, 64, 65, 144}) {
    for (const int count : stream_counts()) {
      std::vector<std::uint64_t> rows(lane_block_words(n, width));
      LaneColumns cols;
      cols.reshape(n, width);
      for_each_block(
          count, 40 + static_cast<std::uint64_t>(n),
          [&](int w, LaneStates& states, int r0, int r1) {
            draw_world_rows(w, n, bernoulli_threshold(0.5), states,
                            rows.data(), r0, r1);
          },
          [&](const LaneBlocks& blocks) {
            cols.load_rows(rows.data(), blocks);
            const std::size_t row_words = batch_row_words(n);
            for (int g = 0; g < width; ++g) {
              const std::size_t live = blocks.rows(g);
              ASSERT_EQ(cols.live(g),
                        live == 64 ? ~0ull : (1ull << live) - 1)
                  << "lane " << g;
              for (std::size_t rw = 0; rw < row_words; ++rw) {
                std::uint64_t block[64];
                for (std::size_t r = 0; r < 64; ++r)
                  block[r] = r < live ? rows[(r * row_words + rw) * width +
                                             static_cast<std::size_t>(g)]
                                      : 0;
                transpose_64x64(block);
                for (int c = 0; c < row_word_bits(n, rw); ++c)
                  ASSERT_EQ(cols.column(static_cast<int>(rw * 64) + c, g),
                            block[c])
                      << "n=" << n << " streams " << count << " block "
                      << blocks.block() << " lane " << g << " server "
                      << rw * 64 + static_cast<std::size_t>(c);
              }
            }
          });
    }
  }
}

TEST_P(LaneGroupKernels, PathsReachMatchesOneLaneAndScalar) {
  const int width = GetParam();
  for (int l = 1; l <= 10; ++l) {
    const PathsFamily paths(l);
    const int n = paths.universe_size();
    Configuration config(Bitset(static_cast<std::size_t>(n)));
    for (const int count : stream_counts()) {
      for (const double p : {0.3, 0.5}) {
        std::vector<std::uint64_t> rows(lane_block_words(n, width));
        LaneColumns cols;
        cols.reshape(n, width);
        for_each_block(
            count, 700 + static_cast<std::uint64_t>(l),
            [&](int w, LaneStates& states, int r0, int r1) {
              draw_world_rows(w, n, bernoulli_threshold(p), states,
                              rows.data(), r0, r1);
            },
            [&](const LaneBlocks& blocks) {
              cols.load_rows(rows.data(), blocks);
              std::uint64_t group[kMaxRngLanes];
              paths.accepts_lanes(cols, group);
              for (int g = 0; g < width; ++g) {
                ASSERT_EQ(group[g] & ~cols.live(g), 0u) << "lane " << g;
                if (cols.live(g) == 0) continue;
                const WorldBatch block = lane_block(cols, g);
                Bitset one;
                paths.accepts_batch(block, one);
                ASSERT_EQ(group[g], one.word(0))
                    << paths.name() << " p=" << p << " streams " << count
                    << " block " << blocks.block() << " lane " << g;
                for (std::uint64_t t = 0; t < block.num_trials(); ++t) {
                  block.extract_trial(t, config);
                  ASSERT_EQ((group[g] >> t) & 1u, paths.accepts(config) ? 1u : 0u)
                      << paths.name() << " lane " << g << " trial " << t;
                }
              }
            });
      }
    }
  }
}

TEST_P(LaneGroupKernels, PathsSettledLaneLeavesTheOthersExact) {
  // Trial 0 of lane 0 has every server up: its straight row-0 path
  // settles it in the first sweep. Trial 1 of the last lane holds a snake
  // from vertex (0, 0) through every row (right along row 0, left along
  // row 1, ...) that stops one column short of the right side, so its
  // component takes about a sweep per row to fill and never reaches a
  // goal; trial 2 is the same snake with the last row's edge into column l
  // up. Both must come out as accepts() says while trial 0 no longer
  // spreads (at one lane, all three share the lane word).
  const int width = GetParam();
  const int l = 8;
  const PathsFamily paths(l);
  const int n = paths.universe_size();
  Configuration snake(Bitset(static_cast<std::size_t>(n)));
  for (int r = 0; r <= l; ++r) {
    for (int c = r == 0 ? 0 : 1; c < l - 1; ++c)
      snake.set_up(paths.horizontal_edge(r, c), true);
    if (r < l)
      snake.set_up(paths.vertical_edge(r, r % 2 == 0 ? l - 1 : 1), true);
  }
  Configuration reaching = snake;
  reaching.set_up(paths.horizontal_edge(l, l - 1), true);
  Configuration all_up(Bitset::all_set(static_cast<std::size_t>(n)));
  ASSERT_FALSE(paths.accepts(snake));
  ASSERT_TRUE(paths.accepts(all_up));

  LaneColumns cols;
  WorldBatch worlds;
  worlds.reshape(n, 64 * static_cast<std::uint64_t>(width));
  for (int s = 0; s < n; ++s) {
    if (all_up.is_up(s)) worlds.set(0, s);
    const std::uint64_t last = 64 * static_cast<std::uint64_t>(width - 1);
    if (snake.is_up(s)) worlds.set(last + 1, s);
    if (reaching.is_up(s)) worlds.set(last + 2, s);
  }
  ASSERT_TRUE(paths.accepts(reaching));
  std::uint64_t expected[kMaxRngLanes] = {1};
  expected[width - 1] |= 4;
  cols.gather(worlds, 0, width);
  std::uint64_t group[kMaxRngLanes];
  paths.accepts_lanes(cols, group);
  Bitset one;
  paths.accepts_batch(worlds, one);
  for (int g = 0; g < width; ++g) {
    EXPECT_EQ(group[g], expected[g]) << "lane " << g;
    EXPECT_EQ(one.word(static_cast<std::size_t>(g)), expected[g]) << "lane " << g;
  }
}

TEST_P(LaneGroupKernels, TwoClientWalkMatchesOneLaneAtATime) {
  const int width = GetParam();
  std::vector<std::pair<std::string, CountingWalk>> walks;
  std::vector<std::shared_ptr<QuorumFamily>> families = lane_walk_families(24);
  families.push_back(std::make_shared<OptDFamily>(24, 1));
  families.push_back(std::make_shared<OptDFamily>(70, 3));
  for (const auto& family : families) {
    std::optional<CountingWalk> walk = lane_counting_walk(*family);
    ASSERT_TRUE(walk.has_value()) << family->name();
    walks.emplace_back(family->name(), std::move(*walk));
  }
  // need = 0 acquires with no positive at all, so an all-down trial — and
  // the cleared columns past a block's rows — would acquire too: only the
  // live masks keep those lanes out.
  std::vector<int> order(24);
  for (int s = 0; s < 24; ++s) order[static_cast<std::size_t>(s)] = s;
  walks.emplace_back("need 0, at need",
                     CountingWalk(order, 0, CountingRule::Acquire::kAtNeed));
  walks.emplace_back("need 0, after all",
                     CountingWalk(order, 0, CountingRule::Acquire::kAfterAll));
  for (const auto& [name, walk_value] : walks) {
    const CountingWalk* walk = &walk_value;
    const int n = *std::max_element(walk->order.begin(), walk->order.end()) + 1;
    MismatchModel model;
    model.p = 0.1;
    model.link_miss = 0.3;
    model.partition_rate = 0.2;
    model.partition_fraction = 0.5;
    for (const int count : stream_counts()) {
      std::vector<std::uint64_t> rows1(lane_block_words(n, width));
      std::vector<std::uint64_t> rows2(lane_block_words(n, width));
      LaneColumns reach1;
      LaneColumns reach2;
      reach1.reshape(n, width);
      reach2.reshape(n, width);
      for_each_block(
          count, 90 + static_cast<std::uint64_t>(n),
          [&](int w, LaneStates& states, int r0, int r1) {
            draw_two_client_rows(w, n, model, states, rows1.data(),
                                 rows2.data(), r0, r1);
          },
          [&](const LaneBlocks& blocks) {
            reach1.load_rows(rows1.data(), blocks);
            reach2.load_rows(rows2.data(), blocks);
            std::uint64_t both[kMaxRngLanes];
            std::uint64_t miss[kMaxRngLanes];
            nonintersection_lanes(*walk, reach1, reach2, both, miss);
            for (int g = 0; g < width; ++g) {
              std::vector<std::uint64_t> up1(static_cast<std::size_t>(n));
              std::vector<std::uint64_t> up2(static_cast<std::size_t>(n));
              for (int s = 0; s < n; ++s) {
                up1[static_cast<std::size_t>(s)] = reach1.column(s, g);
                up2[static_cast<std::size_t>(s)] = reach2.column(s, g);
              }
              std::uint64_t one_both = 0;
              std::uint64_t one_miss = 0;
              nonintersection_word(*walk, up1.data(), up2.data(),
                                   reach1.live(g), one_both, one_miss);
              ASSERT_EQ(both[g], one_both)
                  << name << " streams " << count << " block "
                  << blocks.block() << " lane " << g;
              ASSERT_EQ(miss[g], one_miss)
                  << name << " streams " << count << " block "
                  << blocks.block() << " lane " << g;
              ASSERT_EQ(both[g] & ~reach1.live(g), 0u)
                  << name << " lane " << g;
              if (walk->rule.need == 0) {
                ASSERT_EQ(both[g], reach1.live(g)) << name << " lane " << g;
              }
            }
          });
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, LaneGroupKernels, ::testing::Values(1, 4, 8));

}  // namespace
}  // namespace sqs
