// The sweep engine's determinism contract (ISSUE: sharded sweeps): a grid
// of cells flattened into one pool submission must reduce each cell to
// exactly the bits of the standalone per-cell loop — for any thread count.
// The generic engine is checked against run_trial_chunks directly, and each
// typed sweep against the single-cell estimator whose kernel it shares.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/constructions.h"
#include "mismatch/model.h"
#include "probe/measurements.h"
#include "runtime/run_trials.h"
#include "sweep/sweep.h"
#include "uqs/majority.h"
#include "uqs/paths.h"
#include "util/rng_lanes.h"

namespace sqs {
namespace {

const int kThreadCounts[] = {1, 2, 8};

TEST(Sweep, CoversEveryTrialOfEveryCellExactlyOnce) {
  // Cells of deliberately ragged sizes, including empty and sub-chunk ones.
  const std::uint64_t sizes[] = {0, 1, 7, 64, 65, 200};
  std::vector<SweepCell> cells;
  for (std::size_t i = 0; i < std::size(sizes); ++i)
    cells.push_back({sizes[i], Rng(100 + i)});
  for (const int threads : kThreadCounts) {
    TrialOptions opts;
    opts.threads = threads;
    opts.chunk_size = 16;
    const std::vector<std::uint64_t> sums = run_sweep(
        cells, std::uint64_t{0},
        [](std::size_t, std::uint64_t& acc, const TrialContext& ctx, Rng&) {
          for (std::uint64_t t = ctx.chunk.begin; t < ctx.chunk.end; ++t) acc += t;
        },
        [](std::uint64_t& acc, std::uint64_t part) { acc += part; }, opts);
    ASSERT_EQ(sums.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const std::uint64_t n = sizes[i];
      EXPECT_EQ(sums[i], n == 0 ? 0 : n * (n - 1) / 2)
          << "cell " << i << ", " << threads << " threads";
    }
  }
}

TEST(Sweep, MergesChunksInAscendingOrderPerCell) {
  // The reduction order is part of the contract (floating-point merges are
  // deterministic only because of it): record which chunk indices arrive at
  // each cell's accumulator, in order.
  std::vector<SweepCell> cells = {{100, Rng(1)}, {50, Rng(2)}, {80, Rng(3)}};
  for (const int threads : kThreadCounts) {
    TrialOptions opts;
    opts.threads = threads;
    opts.chunk_size = 8;
    const auto orders = run_sweep(
        cells, std::vector<std::uint64_t>{},
        [](std::size_t, std::vector<std::uint64_t>& acc, const TrialContext& ctx,
           Rng&) { acc.push_back(ctx.chunk.index); },
        [](std::vector<std::uint64_t>& acc, std::vector<std::uint64_t>&& part) {
          acc.insert(acc.end(), part.begin(), part.end());
        },
        opts);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const std::uint64_t chunks = (cells[i].n_trials + 7) / 8;
      ASSERT_EQ(orders[i].size(), chunks) << threads << " threads";
      for (std::uint64_t c = 0; c < chunks; ++c)
        EXPECT_EQ(orders[i][c], c) << "cell " << i;
    }
  }
}

TEST(Sweep, MatchesStandaloneRunTrialChunksPerCell) {
  // The flattening must be a pure scheduling change: cell i's random stream
  // and reduction equal a standalone run_trial_chunks over cell i.
  std::vector<SweepCell> cells = {{300, Rng(11)}, {0, Rng(12)}, {130, Rng(13)}};
  TrialOptions opts;
  opts.threads = 8;
  opts.chunk_size = 32;
  auto chunk_fn = [](std::vector<std::uint64_t>& acc, const TrialContext& ctx,
                     Rng& rng) {
    for (std::uint64_t t = ctx.chunk.begin; t < ctx.chunk.end; ++t)
      acc.push_back(rng.next_u64());
  };
  auto merge = [](std::vector<std::uint64_t>& acc,
                  std::vector<std::uint64_t>&& part) {
    acc.insert(acc.end(), part.begin(), part.end());
  };
  const auto swept = run_sweep(
      cells, std::vector<std::uint64_t>{},
      [&](std::size_t, std::vector<std::uint64_t>& acc, const TrialContext& ctx,
          Rng& rng) { chunk_fn(acc, ctx, rng); },
      merge, opts);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto alone =
        run_trial_chunks(cells[i].n_trials, cells[i].base,
                         std::vector<std::uint64_t>{}, chunk_fn, merge, opts);
    EXPECT_EQ(swept[i], alone) << "cell " << i;
  }
}

TEST(Sweep, AvailabilityMatchesSingleCellEstimator) {
  std::vector<AvailabilityCell> cells;
  for (const int n : {30, 40})
    for (const double p : {0.2, 0.4})
      cells.push_back({std::make_shared<OptDFamily>(n, 2), p, 20000, 777});
  const std::vector<AvailabilityEstimate> swept = sweep_availability(cells);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const double alone = cells[i].family->availability_monte_carlo(
        cells[i].p, static_cast<int>(cells[i].samples), cells[i].seed);
    EXPECT_EQ(swept[i].estimate(), alone) << "cell " << i;  // bit-identical
    EXPECT_EQ(swept[i].samples, cells[i].samples);
  }
}

TEST(Sweep, NonintersectionMatchesSingleCellEstimator) {
  std::vector<NonintersectionCell> cells;
  for (const int alpha : {1, 2}) {
    NonintersectionCell cell;
    cell.family = std::make_shared<OptDFamily>(20, alpha);
    cell.model.p = 0.1;
    cell.model.link_miss = 0.25;
    cell.trials = 20000;
    cell.base = Rng(500 + alpha);
    cell.bound_factor = alpha == 2 ? 2.0 : 1.0;
    cells.push_back(std::move(cell));
  }
  const std::vector<NonintersectionStats> swept = sweep_nonintersection(cells);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const NonintersectionStats alone =
        measure_nonintersection(*cells[i].family, cells[i].model,
                                cells[i].trials, cells[i].base,
                                cells[i].bound_factor);
    EXPECT_EQ(swept[i].both_acquired.successes, alone.both_acquired.successes);
    EXPECT_EQ(swept[i].both_acquired.trials, alone.both_acquired.trials);
    EXPECT_EQ(swept[i].nonintersection.successes,
              alone.nonintersection.successes);
    EXPECT_EQ(swept[i].epsilon, alone.epsilon);
    EXPECT_EQ(swept[i].bound, alone.bound);
  }
}

TEST(Sweep, ProbesMatchesSingleCellEstimator) {
  std::vector<ProbeCell> cells;
  {
    ProbeCell cell;
    cell.family = std::make_shared<OptDFamily>(48, 2);
    cell.p = 0.25;
    cell.trials = 10000;
    cell.base = Rng(91);
    cells.push_back(std::move(cell));
  }
  {
    ProbeCell cell;
    cell.family = std::make_shared<MajorityFamily>(15);
    cell.p = 0.2;
    cell.trials = 8000;
    cell.base = Rng(92);
    cells.push_back(std::move(cell));
  }
  const std::vector<ProbeMeasurement> swept = sweep_probes(cells);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const ProbeMeasurement alone = measure_probes(
        *cells[i].family, cells[i].p, cells[i].trials, cells[i].base);
    // Bit-identical, including the chunk-order-merged Welford aggregates.
    EXPECT_EQ(swept[i].probes_overall.mean(), alone.probes_overall.mean());
    EXPECT_EQ(swept[i].probes_overall.variance(),
              alone.probes_overall.variance());
    EXPECT_EQ(swept[i].probes_acquired.mean(), alone.probes_acquired.mean());
    EXPECT_EQ(swept[i].acquired.successes, alone.acquired.successes);
    EXPECT_EQ(swept[i].max_probes_seen, alone.max_probes_seen);
    EXPECT_EQ(swept[i].server_probe_frequency, alone.server_probe_frequency);
  }
}

TEST(Sweep, BitIdenticalAcrossThreadCounts) {
  // The acceptance gate of the ISSUE: one mixed grid, identical output at
  // 1, 2, and 8 threads.
  std::vector<NonintersectionCell> cells;
  for (const int alpha : {1, 2, 3})
    for (const double m : {0.1, 0.3}) {
      NonintersectionCell cell;
      cell.family = std::make_shared<OptDFamily>(18, alpha);
      cell.model.p = 0.1;
      cell.model.link_miss = m;
      cell.trials = 6000;
      cell.base = Rng(3000 + alpha * 10 + static_cast<int>(m * 10));
      cells.push_back(std::move(cell));
    }
  std::vector<std::vector<NonintersectionStats>> runs;
  for (const int threads : kThreadCounts) {
    TrialOptions opts;
    opts.threads = threads;
    opts.chunk_size = 256;  // several chunks per cell
    runs.push_back(sweep_nonintersection(cells, opts));
  }
  for (std::size_t r = 1; r < runs.size(); ++r)
    for (std::size_t i = 0; i < cells.size(); ++i) {
      EXPECT_EQ(runs[r][i].nonintersection.successes,
                runs[0][i].nonintersection.successes)
          << "cell " << i << ", " << kThreadCounts[r] << " threads";
      EXPECT_EQ(runs[r][i].both_acquired.successes,
                runs[0][i].both_acquired.successes);
    }
}

TEST(Sweep, GroupedKernelsMatchOneChunkAtATime) {
  // Under a batched policy a task samples up to host_rng_lanes()
  // consecutive chunks of a cell side by side, fewer when the run has under
  // that many chunks per thread. Nine full chunks and a partial tenth leave
  // a partial last chunk and a partial last group (8 + 2 chunks, drawn at
  // widths 8 and 4 on an AVX-512F host); every grouping must reproduce the
  // one-chunk-per-task bits of kScalar at every thread count.
  const std::uint64_t trials = 9 * kDefaultTrialChunk + 300;
  std::vector<AvailabilityCell> avail = {
      {std::make_shared<PathsFamily>(4), 0.3, trials, 11},
      {std::make_shared<OptDFamily>(24, 2), 0.2, trials, 12},
      {std::make_shared<MajorityFamily>(15), 0.4, trials, 13}};
  std::vector<NonintersectionCell> nonint;
  for (const double partition_rate : {0.0, 0.3}) {
    NonintersectionCell cell;
    cell.family = std::make_shared<OptDFamily>(24, 2);
    cell.model.p = 0.1;
    cell.model.link_miss = 0.2;
    cell.model.partition_rate = partition_rate;
    cell.trials = trials;
    cell.base = Rng(20 + nonint.size());
    nonint.push_back(std::move(cell));
  }
  {
    NonintersectionCell cell;  // no lane walk: one chunk at a time inside
    cell.family = std::make_shared<MajorityFamily>(9);
    cell.model.link_miss = 0.1;
    cell.trials = 3000;
    cell.base = Rng(23);
    nonint.push_back(std::move(cell));
  }
  std::vector<ProbeCell> probes(2);
  probes[0].family = std::make_shared<OptDFamily>(24, 2);
  probes[0].p = 0.25;
  probes[0].trials = trials;
  probes[0].base = Rng(31);
  probes[1].family = std::make_shared<OptAFamily>(20, 2);
  probes[1].p = 0.2;
  probes[1].trials = trials;
  probes[1].base = Rng(32);

  struct Run {
    std::vector<AvailabilityEstimate> avail;
    std::vector<NonintersectionStats> nonint;
    std::vector<ProbeMeasurement> probes;
  };
  auto run = [&](int threads, BatchPolicy batch) {
    TrialOptions opts;
    opts.threads = threads;
    opts.batch = batch;
    return Run{sweep_availability(avail, opts),
               sweep_nonintersection(nonint, opts),
               sweep_probes(probes, opts)};
  };
  const Run one = run(1, BatchPolicy::kScalar);
  for (const int threads : kThreadCounts) {
    const Run grouped = run(threads, BatchPolicy::kBatched);
    const std::string where = std::to_string(threads) + " threads";
    for (std::size_t i = 0; i < avail.size(); ++i)
      EXPECT_EQ(grouped.avail[i].live, one.avail[i].live)
          << "avail cell " << i << ", " << where;
    for (std::size_t i = 0; i < nonint.size(); ++i) {
      EXPECT_EQ(grouped.nonint[i].both_acquired.successes,
                one.nonint[i].both_acquired.successes)
          << "nonint cell " << i << ", " << where;
      EXPECT_EQ(grouped.nonint[i].nonintersection.successes,
                one.nonint[i].nonintersection.successes)
          << "nonint cell " << i << ", " << where;
      EXPECT_EQ(grouped.nonint[i].nonintersection.trials,
                one.nonint[i].nonintersection.trials);
    }
    for (std::size_t i = 0; i < probes.size(); ++i) {
      EXPECT_EQ(grouped.probes[i].probes_overall.mean(),
                one.probes[i].probes_overall.mean())
          << "probe cell " << i << ", " << where;
      EXPECT_EQ(grouped.probes[i].probes_overall.variance(),
                one.probes[i].probes_overall.variance());
      EXPECT_EQ(grouped.probes[i].acquired.successes,
                one.probes[i].acquired.successes);
      EXPECT_EQ(grouped.probes[i].max_probes_seen,
                one.probes[i].max_probes_seen);
      EXPECT_EQ(grouped.probes[i].server_probe_frequency,
                one.probes[i].server_probe_frequency);
    }
  }
}

TEST(Sweep, EmptyGridAndZeroTrialCells) {
  EXPECT_TRUE(sweep_availability({}).empty());
  std::vector<ProbeCell> cells(1);
  cells[0].family = std::make_shared<OptDFamily>(10, 1);
  cells[0].trials = 0;
  const std::vector<ProbeMeasurement> swept = sweep_probes(cells);
  ASSERT_EQ(swept.size(), 1u);
  EXPECT_EQ(swept[0].acquired.trials, 0u);
  EXPECT_EQ(swept[0].probes_overall.count(), 0u);
}

TEST(Sweep, NestedInsideWorkerRunsInlineAndMatches) {
  // A sweep launched from inside a pool worker (e.g. a search evaluating
  // candidates in parallel) must degrade to inline execution, not deadlock,
  // and still produce the same bits.
  auto run_nested = [](int threads) {
    TrialOptions outer;
    outer.threads = threads;
    outer.chunk_size = 1;
    return run_trials(
        4, Rng(8), std::uint64_t{0},
        [](std::uint64_t& acc, std::uint64_t t, Rng&) {
          std::vector<SweepCell> cells = {{64, Rng(t)}, {32, Rng(t + 1)}};
          TrialOptions inner;
          inner.threads = 8;
          inner.chunk_size = 16;
          const auto sums = run_sweep(
              cells, std::uint64_t{0},
              [](std::size_t, std::uint64_t& acc2, const TrialContext& ctx,
                 Rng& rng) {
                for (std::uint64_t i = ctx.chunk.begin; i < ctx.chunk.end; ++i)
                  acc2 += rng.next_u64() >> 60;
              },
              [](std::uint64_t& acc2, std::uint64_t part) { acc2 += part; },
              inner);
          acc += sums[0] + 3 * sums[1];
        },
        [](std::uint64_t& acc, std::uint64_t part) { acc += part; }, outer);
  };
  const std::uint64_t sequential = run_nested(1);
  for (const int threads : {2, 8})
    EXPECT_EQ(run_nested(threads), sequential) << threads << " threads";
}

}  // namespace
}  // namespace sqs
