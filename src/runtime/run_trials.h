// Deterministic sharded trial execution.
//
// run_trials / run_trial_chunks split `n_trials` into fixed-size chunks.
// Chunk c covers trials [c*chunk_size, min(n_trials, (c+1)*chunk_size)) and
// draws all of its randomness from Rng base.split(c); partial accumulators
// are merged strictly in ascending chunk order after every chunk completed.
// Which thread executed which chunk therefore never influences the result:
// for a fixed chunk_size the output is bit-identical for 1 thread, N
// threads, and the inline sequential fallback. This is the determinism
// contract every Monte Carlo entry point in the repo is written against
// (see DESIGN.md, "Parallel trial runtime").
//
// Accumulator requirements: copy-constructible (the `zero` argument is the
// per-chunk identity), and merged via a caller-supplied
// merge(Acc& into, Acc&& part). Floating-point merges are deterministic
// because the merge order is fixed — but note they need not equal a single
// unchunked sequential loop, which is why the refactored estimators define
// their published output as the chunked reduction.

#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/telemetry.h"
#include "obs/trace.h"
#include "runtime/scratch.h"
#include "runtime/thread_pool.h"
#include "util/rng.h"
#include "util/rng_lanes.h"

namespace sqs {

inline constexpr std::uint64_t kDefaultTrialChunk = 1024;

// How a chunk kernel evaluates its trials (see DESIGN.md §3.12):
//   kBatched      — the default: structure-of-arrays kernels, 64 trials per
//                   word pass, lane groups of chunks side by side.
//   kScalar       — the one-trial-at-a-time loop, kept as the oracle that
//                   tests and kDifferential compare against.
//   kDifferential — run both and throw std::runtime_error on the first trial
//                   whose batched bit differs from the scalar oracle's.
// Batched kernels draw the chunk rng in exactly the scalar order, so all
// three policies consume identical rng streams and kScalar/kBatched publish
// bit-identical estimates; kDifferential is the proof harness. Families
// without a batched kernel take the scalar loop under every policy.
enum class BatchPolicy { kScalar, kBatched, kDifferential };

const char* batch_policy_name(BatchPolicy policy);
// Parses "scalar" / "batched" / "differential"; returns false on any other
// spelling and leaves `out` untouched.
bool parse_batch_policy(const std::string& text, BatchPolicy& out);

struct TrialOptions {
  // Total participating threads (caller included); 0 means default_threads().
  int threads = 0;
  // Trials per shard; also the granularity of rng splitting and reduction.
  std::uint64_t chunk_size = kDefaultTrialChunk;
  // Trial evaluation policy, forwarded to every chunk via TrialContext.
  BatchPolicy batch = BatchPolicy::kBatched;
};

struct TrialChunk {
  std::uint64_t index = 0;  // chunk number, the Rng::split argument
  std::uint64_t begin = 0;  // first trial (global index, inclusive)
  std::uint64_t end = 0;    // last trial (global index, exclusive)
};

// What a chunk callback receives: the trial range plus the executing
// thread's scratch arena (always non-null inside the runtime). The arena is
// resolved per chunk on the thread that runs it, never captured from the
// submitting caller.
struct TrialContext {
  TrialChunk chunk;
  WorkerScratch* arena = nullptr;
  // Policy the submitting caller selected (TrialOptions::batch, batched
  // unless the caller asked for the scalar oracle); kernels that have no
  // batched implementation ignore it and stay scalar.
  BatchPolicy batch = BatchPolicy::kBatched;

  WorkerScratch& scratch() const {
    assert(arena != nullptr);
    return *arena;
  }
};

// A task's run of consecutive chunks of one cell: what a group-aware chunk
// callback receives. Chunk i of the group is ctx[i], drawing from rng[i]
// (base.split(ctx[i].chunk.index)); a callback leaves each rng where its
// chunk's draws end. Every chunk of a group runs on the same thread.
struct TrialGroup {
  int size = 0;
  TrialContext ctx[kMaxRngLanes];
  Rng rng[kMaxRngLanes];

  // The group of one chunk, `ctx` drawing from `rng`.
  static TrialGroup single(const TrialContext& ctx, const Rng& rng) {
    TrialGroup group;
    group.size = 1;
    group.ctx[0] = ctx;
    group.rng[0] = rng;
    return group;
  }
};

// One cell of a run_sweep grid: `n_trials` trials, all randomness derived
// from `base` by per-chunk splitting.
struct SweepCell {
  std::uint64_t n_trials = 0;
  Rng base;
};

namespace runtime_detail {
// Telemetry handles of one entry point (run_trial_chunks records runtime.*,
// run_sweep records sweep.*), resolved once; the per-chunk cost is the
// recording itself (one branch on a relaxed atomic when telemetry is off).
struct ChunkMetrics {
  const char* category;
  obs::Counter chunks;
  obs::Histogram wall_ns;

  explicit ChunkMetrics(const char* prefix)
      : category(prefix),
        chunks(obs::Registry::instance().counter(std::string(prefix) +
                                                 ".chunks_executed")),
        wall_ns(obs::Registry::instance().histogram(
            std::string(prefix) + ".chunk_wall_ns", obs::pow2_bounds(10, 34))) {}

  static const ChunkMetrics& runtime() {
    static const ChunkMetrics metrics("runtime");
    return metrics;
  }
  static const ChunkMetrics& sweep() {
    static const ChunkMetrics metrics("sweep");
    return metrics;
  }
};

struct SweepMetrics {
  obs::Counter sweeps = obs::Registry::instance().counter("sweep.runs");
  obs::Counter cells = obs::Registry::instance().counter("sweep.cells");

  static const SweepMetrics& get() {
    static const SweepMetrics metrics;
    return metrics;
  }
};

// Chunk callbacks come in two shapes: the group-aware
// fn(cell, Acc* accs, TrialGroup&), which takes a task's whole run of
// chunks, and the one-chunk fn(cell, Acc&, const TrialContext&, Rng&).
template <typename Acc, typename ChunkFn>
inline constexpr bool kGroupAware =
    std::is_invocable_v<ChunkFn&, std::size_t, Acc*, TrialGroup&>;

// The one claim loop behind run_sweep and run_trial_chunks: runs every
// chunk of `num_cells` cells and merges cell i's chunk accumulators into
// results[i] in ascending chunk order.
//
// A task is one chunk, or for a group-aware callback under a batched
// policy a run of up to host_rng_lanes() consecutive chunks of one cell,
// which the lane samplers draw side by side. Each chunk of a group still
// draws from its own base.split(c) into its own accumulator, so the group
// size changes no bits; it is capped so that a run has at least one task
// per thread, keeping small batched runs parallel.
template <typename Acc, typename ChunkFn, typename MergeFn>
void run_cells(const SweepCell* cells, std::size_t num_cells, const Acc& zero,
               ChunkFn& chunk_fn, MergeFn& merge, const TrialOptions& opts,
               const ChunkMetrics& metrics, Acc* results) {
  constexpr bool group_aware = kGroupAware<Acc, ChunkFn>;
  const std::uint64_t chunk_size =
      opts.chunk_size > 0 ? opts.chunk_size : kDefaultTrialChunk;
  const int requested = opts.threads > 0 ? opts.threads : default_threads();
  const int threads = ThreadPool::inside_worker() ? 1 : requested;
  // first_chunk[i] / first_task[i] = flat index of cell i's first chunk /
  // task (prefix sums). Borrowed from the caller's scratch so repeated
  // runs reuse their capacity.
  WorkerScratch& caller = WorkerScratch::for_thread();
  Borrowed<std::vector<std::uint64_t>> first_chunk_loan =
      caller.borrow<std::vector<std::uint64_t>>();
  Borrowed<std::vector<std::uint64_t>> first_task_loan =
      caller.borrow<std::vector<std::uint64_t>>();
  std::vector<std::uint64_t>& first_chunk = *first_chunk_loan;
  std::vector<std::uint64_t>& first_task = *first_task_loan;
  first_chunk.assign(num_cells + 1, 0);
  first_task.assign(num_cells + 1, 0);
  for (std::size_t i = 0; i < num_cells; ++i)
    first_chunk[i + 1] = first_chunk[i] +
                         (cells[i].n_trials + chunk_size - 1) / chunk_size;
  const std::uint64_t total_chunks = first_chunk.back();
  if (total_chunks == 0) return;
  const std::uint64_t width =
      group_aware && opts.batch != BatchPolicy::kScalar
          ? std::clamp<std::uint64_t>(
                total_chunks / static_cast<std::uint64_t>(threads), 1,
                static_cast<std::uint64_t>(host_rng_lanes()))
          : 1;
  for (std::size_t i = 0; i < num_cells; ++i)
    first_task[i + 1] =
        first_task[i] +
        (first_chunk[i + 1] - first_chunk[i] + width - 1) / width;
  const std::uint64_t total_tasks = first_task.back();

  // Chunk accumulators live in the caller's bump arena (released LIFO on
  // return), so repeated runs stop allocating once the arena warmed up.
  // A cell's chunks are contiguous, so a group's accumulators are too.
  ArenaArray<Acc> parts(caller, static_cast<std::size_t>(total_chunks), zero);
  auto process = [&](std::uint64_t task) {
    const std::size_t cell = static_cast<std::size_t>(
        std::upper_bound(first_task.begin(), first_task.end(), task) -
        first_task.begin() - 1);
    const std::uint64_t first = (task - first_task[cell]) * width;
    const std::uint64_t count =
        std::min(width, first_chunk[cell + 1] - first_chunk[cell] - first);
    Acc* accs = &parts[static_cast<std::size_t>(first_chunk[cell] + first)];
    auto context = [&](std::uint64_t c) {
      TrialContext ctx;
      ctx.chunk.index = c;
      ctx.chunk.begin = c * chunk_size;
      ctx.chunk.end = std::min(cells[cell].n_trials, ctx.chunk.begin + chunk_size);
      ctx.arena = &WorkerScratch::for_thread();
      ctx.batch = opts.batch;
      return ctx;
    };
    auto run = [&] {
      if constexpr (group_aware) {
        TrialGroup group;
        group.size = static_cast<int>(count);
        for (int i = 0; i < group.size; ++i) {
          group.ctx[i] = context(first + static_cast<std::uint64_t>(i));
          group.rng[i] = cells[cell].base.split(group.ctx[i].chunk.index);
        }
        chunk_fn(cell, accs, group);
      } else {
        const TrialContext ctx = context(first);
        Rng rng = cells[cell].base.split(first);
        chunk_fn(cell, accs[0], ctx, rng);
      }
    };
    if (obs::telemetry_enabled()) {
      obs::Span span(metrics.category, "chunk");
      span.arg("cell", cell);
      span.arg("chunk", first);
      if (count > 1) span.arg("chunks", count);
      const std::uint64_t start_ns = obs::trace_now_ns();
      run();
      // One record per chunk, of the task's wall time split evenly, so the
      // histogram's sum stays the busy time and its count the chunk count.
      const std::uint64_t per_chunk = (obs::trace_now_ns() - start_ns) / count;
      for (std::uint64_t i = 0; i < count; ++i) metrics.wall_ns.record(per_chunk);
      metrics.chunks.add(count);
    } else {
      run();
    }
  };

  if (threads > 1 && total_tasks > 1) {
    ThreadPool::global(threads - 1).for_each_chunk(total_tasks, threads,
                                                   process);
  } else {
    // Sequential / nested fallback: same chunking, same merge order below,
    // hence the same bits.
    for (std::uint64_t task = 0; task < total_tasks; ++task) process(task);
  }

  for (std::size_t i = 0; i < num_cells; ++i)
    for (std::uint64_t c = first_chunk[i]; c < first_chunk[i + 1]; ++c)
      merge(results[i], std::move(parts[static_cast<std::size_t>(c)]));
}
}  // namespace runtime_detail

// Runs every cell's chunks in one flattened pool submission. chunk_fn
// processes one chunk of one cell — fn(cell, Acc&, const TrialContext&,
// Rng&) — or, if group-aware, fn(cell, Acc* accs, TrialGroup&) a run of
// chunks, each against a fresh accumulator copied from `zero`. merge(Acc&, Acc&&) folds
// chunk accumulators into the cell result in chunk order. Returns one
// accumulator per cell, index-aligned with `cells`.
template <typename Acc, typename ChunkFn, typename MergeFn>
std::vector<Acc> run_sweep(const std::vector<SweepCell>& cells, const Acc& zero,
                           ChunkFn&& chunk_fn, MergeFn&& merge,
                           const TrialOptions& opts = {}) {
  std::vector<Acc> results(cells.size(), zero);
  if (obs::telemetry_enabled()) {
    const runtime_detail::SweepMetrics& metrics =
        runtime_detail::SweepMetrics::get();
    metrics.sweeps.add();
    metrics.cells.add(cells.size());
  }
  runtime_detail::run_cells(cells.data(), cells.size(), zero, chunk_fn, merge,
                            opts, runtime_detail::ChunkMetrics::sweep(),
                            results.data());
  return results;
}

// Chunk-level entry point for consumers that amortize per-shard setup
// (probe-strategy instances, scratch buffers) across a whole chunk: a
// one-cell run_sweep. chunk_fn(Acc&, const TrialContext&, Rng&) — or the
// group-aware (Acc* accs, TrialGroup&) — runs the chunk's trials against a
// fresh accumulator copied from `zero` and the chunk's private rng.
template <typename Acc, typename ChunkFn, typename MergeFn>
Acc run_trial_chunks(std::uint64_t n_trials, const Rng& base, const Acc& zero,
                     ChunkFn&& chunk_fn, MergeFn&& merge,
                     const TrialOptions& opts = {}) {
  const SweepCell cell{n_trials, base};
  Acc total(zero);
  if constexpr (std::is_invocable_v<ChunkFn&, Acc*, TrialGroup&>) {
    auto fn = [&](std::size_t, Acc* accs, TrialGroup& group) {
      chunk_fn(accs, group);
    };
    runtime_detail::run_cells(&cell, 1, zero, fn, merge, opts,
                              runtime_detail::ChunkMetrics::runtime(), &total);
  } else {
    auto fn = [&](std::size_t, Acc& acc, const TrialContext& ctx, Rng& rng) {
      chunk_fn(acc, ctx, rng);
    };
    runtime_detail::run_cells(&cell, 1, zero, fn, merge, opts,
                              runtime_detail::ChunkMetrics::runtime(), &total);
  }
  return total;
}

// Trial-level entry point: per_trial(Acc&, std::uint64_t trial_index, Rng&)
// is called once per trial with the chunk's rng (shared sequentially by the
// trials of one chunk).
template <typename Acc, typename TrialFn, typename MergeFn>
Acc run_trials(std::uint64_t n_trials, const Rng& base, const Acc& zero,
               TrialFn&& per_trial, MergeFn&& merge,
               const TrialOptions& opts = {}) {
  return run_trial_chunks(
      n_trials, base, zero,
      [&](Acc& acc, const TrialContext& ctx, Rng& rng) {
        for (std::uint64_t t = ctx.chunk.begin; t < ctx.chunk.end; ++t)
          per_trial(acc, t, rng);
      },
      std::forward<MergeFn>(merge), opts);
}

}  // namespace sqs
