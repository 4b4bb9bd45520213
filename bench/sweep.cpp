// Exercises the sharded sweep engine (src/sweep) end to end:
//
//   (a) an availability grid cross-checked against the closed-form
//       binomial tail (the MC sweep must land within sampling noise);
//   (b) the timed workload: a 9-cell OPT_d non-intersection grid — every
//       cell x trial-chunk flattened into one pool submission — timed in
//       the default batched (SoA bit-sliced) chunk kernels at 1 and 8
//       threads and once in the scalar oracle loop at 1 thread, with
//       every run's per-cell counts compared bit-for-bit (the determinism
//       contract of DESIGN.md: the batch kernel preserves the scalar draw
//       order, so mode is as invisible to the estimates as thread count);
//   (c) the availability-targeted parameter search: minimal alpha for a
//       non-intersection ceiling (exact DP witness) and the successive-
//       halving composition race at that alpha.
//
// Writes BENCH_sweep.json (runs + per-cell counts + telemetry snapshot) for
// the bench_diff trajectory gate; runs carry a "mode" field so bench_diff
// pairs scalar with scalar and batched with batched.
//
// `--batch differential` additionally replays the grid with every batched
// trial cross-checked against the scalar oracle (CI runs this; a mismatch
// fails the bench).

#include <chrono>
#include <cstdio>
#include <exception>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/constructions.h"
#include "runtime/run_trials.h"
#include "sweep/search.h"
#include "sweep/sweep.h"
#include "util/json.h"
#include "util/table.h"

#include "obs/telemetry.h"

namespace sqs {
namespace {

void availability_grid() {
  // MC-vs-closed-form cross-check: OPT_d has the Theorem 34 binomial tail,
  // so every cell of the sweep has an exact target to land on.
  std::vector<AvailabilityCell> cells;
  for (const int n : {16, 32})
    for (const int alpha : {1, 2, 4})
      cells.push_back({std::make_shared<OptDFamily>(n, alpha), 0.3, 50000,
                       kAvailabilityMcSeed});
  const std::vector<AvailabilityEstimate> estimates = sweep_availability(cells);

  Table table({"family", "avail (sweep MC)", "avail (closed form)", "|diff|"});
  double max_diff = 0.0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const double mc = estimates[i].estimate();
    const double exact = cells[i].family->availability(cells[i].p);
    max_diff = std::max(max_diff, std::abs(mc - exact));
    table.add_row({cells[i].family->name(), Table::fmt(mc, 6),
                   Table::fmt(exact, 6), Table::fmt_sci(std::abs(mc - exact))});
  }
  table.print("availability sweep vs closed form, p=0.3 (6 cells, one "
              "submission)");
  std::printf("  max |MC - closed form| = %s (50k samples/cell => noise "
              "~2e-3)\n",
              Table::fmt_sci(max_diff).c_str());
}

// The timed workload: 9 non-intersection cells (alpha x link-miss grid on
// OPT_d n=24), submitted as ONE sweep. Records wall time of the batched
// kernels at 1 and 8 threads and of the scalar oracle at 1 thread, plus
// every cell's raw non-intersection count — all three runs must agree
// bit-for-bit for "deterministic" to be true. With policy ==
// kDifferential, a fourth (untimed) pass replays the grid with per-trial
// scalar cross-checking; returns false if that pass reports a mismatch.
bool grid_scaling_json(BatchPolicy policy) {
  const int n = 24;
  const std::uint64_t trials = 40000;
  std::vector<NonintersectionCell> cells;
  for (int alpha : {1, 2, 3})
    for (double m : {0.1, 0.2, 0.3}) {
      NonintersectionCell cell;
      cell.family = std::make_shared<OptDFamily>(n, alpha);
      cell.model.p = 0.1;
      cell.model.link_miss = m;
      cell.trials = trials;
      cell.base = Rng(2000 + alpha * 10 + static_cast<int>(m * 100));
      cells.push_back(std::move(cell));
    }

  struct Run {
    const char* mode;
    int threads;
    double wall_ms;
    std::vector<std::size_t> counts;  // per-cell non-intersection counts
  };
  const obs::TelemetryConfig saved_config = obs::current_config();
  obs::TelemetryConfig metrics_config = saved_config;
  metrics_config.metrics = true;
  obs::configure(metrics_config);
  std::vector<Run> runs;
  // runs[] order: scalar@1 (the oracle), batched@1, batched@8.
  for (const auto& [mode, threads] :
       {std::pair{BatchPolicy::kScalar, 1}, std::pair{BatchPolicy::kBatched, 1},
        std::pair{BatchPolicy::kBatched, 8}}) {
    TrialOptions opts;
    opts.threads = threads;
    opts.batch = mode;
    const auto start = std::chrono::steady_clock::now();
    const std::vector<NonintersectionStats> stats =
        sweep_nonintersection(cells, opts);
    const auto stop = std::chrono::steady_clock::now();
    Run run;
    run.mode = batch_policy_name(mode);
    run.threads = threads;
    run.wall_ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
    for (const NonintersectionStats& s : stats)
      run.counts.push_back(s.nonintersection.successes);
    runs.push_back(std::move(run));
  }
  bool differential_ok = true;
  if (policy == BatchPolicy::kDifferential) {
    TrialOptions opts;
    opts.threads = 8;
    opts.batch = BatchPolicy::kDifferential;
    try {
      sweep_nonintersection(cells, opts);
      std::printf("  differential cross-check over the grid: every batched "
                  "trial matched the scalar oracle\n");
    } catch (const std::exception& err) {
      std::printf("  differential cross-check FAILED: %s\n", err.what());
      differential_ok = false;
    }
  }
  const obs::MetricsSnapshot metrics = obs::Registry::instance().snapshot();
  obs::configure(saved_config);

  JsonWriter json;
  json.begin_object();
  json.kv("bench", "sweep");
  json.key("workload");
  json.begin_object()
      .kv("name", "optd_nonintersection_grid")
      .kv("n", n)
      .kv("alphas", "1,2,3")
      .kv("link_misses", "0.1,0.2,0.3")
      .kv("p", 0.1)
      .kv("cells", static_cast<std::uint64_t>(cells.size()))
      .kv("trials", static_cast<std::uint64_t>(trials * cells.size()))
      .end_object();
  json.key("runs").begin_array();
  for (const Run& r : runs) {
    json.begin_object()
        .kv("threads", r.threads)
        .kv("mode", r.mode)
        .kv("wall_ms", r.wall_ms);
    json.key("nonintersections").begin_array();
    for (const std::size_t c : r.counts)
      json.value(static_cast<std::uint64_t>(c));
    json.end_array();
    json.end_object();
  }
  json.end_array();
  json.kv("speedup_8v1", runs[1].wall_ms / runs[2].wall_ms);
  json.kv("speedup_batched_1t", runs[0].wall_ms / runs[1].wall_ms);
  bool deterministic = true;
  for (const Run& r : runs) deterministic &= r.counts == runs[0].counts;
  json.kv("deterministic", deterministic);
  json.key("metrics");
  metrics.write_json(json);
  json.end_object();
  json.write_file("BENCH_sweep.json");
  std::printf(
      "\n[runtime] 9-cell non-intersection grid (%llu trials total): batched "
      "%.1f ms @1 / %.1f ms @8 threads (speedup %.2fx), scalar oracle %.1f ms "
      "@1 thread (batched %.2fx faster, identical=%s) -> BENCH_sweep.json\n",
      static_cast<unsigned long long>(trials * cells.size()), runs[1].wall_ms,
      runs[2].wall_ms, runs[1].wall_ms / runs[2].wall_ms, runs[0].wall_ms,
      runs[0].wall_ms / runs[1].wall_ms, deterministic ? "yes" : "NO");
  return differential_ok;
}

void search_demo() {
  AlphaSearchSpec spec;  // n=24, p=0.1, miss=0.2, exact DP
  SearchTargets targets;
  targets.max_nonintersection = 1e-3;
  targets.min_availability = 0.999;
  const AlphaSearchResult result = find_min_alpha(spec, targets);

  Table ladder({"alpha", "P[nonint] exact", "availability", "meets targets"});
  for (const AlphaCandidate& c : result.evaluated)
    ladder.add_row({std::to_string(c.alpha), Table::fmt_sci(c.nonintersection),
                    Table::fmt(c.availability, 6),
                    c.meets_targets ? "yes" : "no"});
  ladder.print("search: minimal alpha with P[nonint] <= 1e-3, avail >= "
               "0.999 (n=24, p=0.1, miss=0.2)");
  if (result.feasible) {
    std::printf("  minimal alpha = %d (alpha-1 fails the ceiling: the DP "
                "ladder above is the witness)\n",
                result.alpha);
    CompositionSearchSpec comp;
    comp.alpha = result.alpha;
    comp.n = 16 * result.alpha;
    comp.p = spec.p;
    const CompositionSearchResult race = find_best_composition(comp, targets);
    if (race.feasible)
      std::printf("  best UQ+OPT_a composition at alpha=%d, n=%d: %s "
                  "(E[probes] %.3f, load %.4f)\n",
                  comp.alpha, comp.n, race.best.c_str(), race.expected_probes,
                  race.load);
  }
}

}  // namespace
}  // namespace sqs

int main(int argc, char** argv) {
  sqs::init_threads_from_args(argc, argv);
  if (!sqs::obs::init_telemetry_from_args(argc, argv).ok) return 2;
  // `--batch differential` adds the per-trial scalar cross-check pass over
  // the timed grid (the timed runs always happen, whatever the flag says).
  sqs::BatchPolicy policy = sqs::BatchPolicy::kBatched;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (arg == "--batch" && i + 1 < argc)
      value = argv[++i];
    else if (arg.rfind("--batch=", 0) == 0)
      value = arg.substr(8);
    else
      continue;
    if (!sqs::parse_batch_policy(value, policy)) {
      std::fprintf(stderr,
                   "unknown --batch policy '%s' "
                   "(scalar|batched|differential)\n",
                   value.c_str());
      return 2;
    }
  }
  std::printf("Sharded sweep engine + parameter search study.\n");
  sqs::availability_grid();
  const bool grid_ok = sqs::grid_scaling_json(policy);
  sqs::search_demo();
  std::printf(
      "\nShape checks:\n"
      "  * sweep MC availability matches the closed-form tail per cell;\n"
      "  * per-cell non-intersection counts identical at 1 and 8 threads\n"
      "    and across scalar/batched kernels (scheduling and lane packing\n"
      "    are both invisible to the draws);\n"
      "  * the alpha ladder is monotone: non-intersection falls ~eps^2a\n"
      "    while availability falls toward the floor as alpha grows.\n");
  if (!grid_ok) return 1;
  return sqs::obs::export_telemetry_files() ? 0 : 1;
}
