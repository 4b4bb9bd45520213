// Reproduces the non-intersection guarantees of Sect. 4:
//
//   Theorem 9/12:  two clients with (deterministic or randomized)
//                  non-adaptive strategies miss each other with probability
//                  <= epsilon^(2 alpha);
//   Theorem 44:    the composition's (adaptive, randomized) probe strategy
//                  still bounds it by 2 epsilon^(2 alpha);
//   and the failure mode: correlated mismatches (partitions) blow through
//   the bound computed from the marginal epsilon — the reason the paper
//   validates independence (Fig. 1) and filters partitioned clients.
//
// Every Monte Carlo section here submits its whole parameter grid as ONE
// sweep (src/sweep): all cells' trial-chunks interleave on the shared pool,
// and each cell's result is bit-identical to the per-cell
// measure_nonintersection() loop this file used to run.

#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "core/composition.h"
#include "core/constructions.h"
#include "mismatch/exact.h"
#include "mismatch/model.h"
#include "runtime/run_trials.h"
#include "sweep/sweep.h"
#include "uqs/majority.h"
#include "uqs/paths.h"
#include "util/json.h"
#include "util/table.h"

#include "obs/telemetry.h"

namespace sqs {
namespace {

constexpr int kTrials = 400000;

void theorem9_sweep() {
  // One sweep over the 3x3 (alpha, m) grid; seeds match the old per-cell
  // loop, so every number printed here is bit-identical to it.
  std::vector<NonintersectionCell> cells;
  for (int alpha : {1, 2, 3}) {
    for (double m : {0.1, 0.2, 0.3}) {
      NonintersectionCell cell;
      cell.family = std::make_shared<OptDFamily>(24, alpha);
      cell.model.p = 0.1;
      cell.model.link_miss = m;
      cell.trials = kTrials;
      cell.base = Rng(1000 + alpha * 10 + static_cast<int>(m * 100));
      cells.push_back(std::move(cell));
    }
  }
  const std::vector<NonintersectionStats> sweep = sweep_nonintersection(cells);

  Table table({"alpha", "link miss m", "epsilon=2m/(1+m)",
               "P[non-intersect] measured", "P[non-intersect] exact DP",
               "bound eps^2a", "exact/bound"});
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const NonintersectionStats& stats = sweep[i];
    const int alpha = cells[i].family->alpha();
    const double m = cells[i].model.link_miss;
    const auto exact = exact_nonintersection(24, alpha, cells[i].model.p, m,
                                             opt_d_stop_rule(24, alpha));
    table.add_row({std::to_string(alpha), Table::fmt(m, 2),
                   Table::fmt(stats.epsilon, 4),
                   Table::fmt_sci(stats.nonintersection.estimate()),
                   Table::fmt_sci(exact.nonintersection),
                   Table::fmt_sci(stats.bound),
                   stats.bound > 0
                       ? Table::fmt(exact.nonintersection / stats.bound, 3)
                       : "-"});
  }
  table.print("Theorem 9: OPT_d (deterministic non-adaptive), n=24, p=0.1 — "
              "exact/bound must stay <= 1");
}

void theorem44_composition() {
  MismatchModel model;
  model.p = 0.1;
  model.link_miss = 0.25;
  std::vector<NonintersectionCell> cells;
  for (int alpha : {1, 2}) {
    NonintersectionCell cell;
    cell.family = std::make_shared<CompositionFamily>(
        std::make_shared<MajorityFamily>(4 * alpha - 1), 20, alpha);
    cell.model = model;
    cell.trials = kTrials;
    cell.base = Rng(7000 + alpha);
    cell.bound_factor = 2.0;
    cells.push_back(std::move(cell));
  }
  {
    NonintersectionCell cell;  // min quorum 4 >= 2a
    cell.family = std::make_shared<CompositionFamily>(
        std::make_shared<PathsFamily>(2), 20, 2);
    cell.model = model;
    cell.trials = kTrials;
    cell.base = Rng(7100);
    cell.bound_factor = 2.0;
    cells.push_back(std::move(cell));
  }
  const std::vector<NonintersectionStats> sweep = sweep_nonintersection(cells);

  Table table({"inner UQ", "alpha", "epsilon", "P[non-intersect] measured",
               "bound 2 eps^2a", "ratio"});
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const NonintersectionStats& s = sweep[i];
    const auto& comp =
        static_cast<const CompositionFamily&>(*cells[i].family);
    table.add_row({comp.inner().name(),
                   std::to_string(cells[i].family->alpha()),
                   Table::fmt(s.epsilon, 4),
                   Table::fmt_sci(s.nonintersection.estimate()),
                   Table::fmt_sci(s.bound),
                   Table::fmt(s.nonintersection.estimate() / s.bound, 3)});
  }
  table.print("Theorem 44: composed SQS (adaptive strategies), n=20 — "
              "ratio must stay <= 1");
}

void correlated_break() {
  std::vector<NonintersectionCell> cells;
  for (double rate : {0.0, 0.05, 0.2, 0.5}) {
    NonintersectionCell cell;
    cell.family = std::make_shared<OptDFamily>(20, 1);
    cell.model.p = 0.05;
    cell.model.link_miss = 0.02;
    cell.model.partition_rate = rate;
    cell.model.partition_fraction = 0.9;
    cell.trials = kTrials;
    cell.base = Rng(9000 + static_cast<int>(rate * 100));
    cells.push_back(std::move(cell));
  }
  const std::vector<NonintersectionStats> sweep = sweep_nonintersection(cells);

  Table table({"partition rate", "P[non-intersect] measured",
               "iid bound eps^2a", "ratio (blows past 1)"});
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const NonintersectionStats& stats = sweep[i];
    table.add_row({Table::fmt(cells[i].model.partition_rate, 2),
                   Table::fmt_sci(stats.nonintersection.estimate()),
                   Table::fmt_sci(stats.bound),
                   Table::fmt(stats.nonintersection.estimate() /
                                  std::max(stats.bound, 1e-300),
                              2)});
  }
  table.print("Independence violation: partitions vs the iid bound "
              "(alpha=1, eps=0.039)");
}

// Times the two-client sampling workload at 1 and 8 threads and records the
// scaling in BENCH_nonintersection.json (the per-trial work here — two full
// probe acquisitions — is the repo's most parallelism-hungry estimator).
// The workload is submitted through the sweep engine as a single cell, which
// reduces to exactly the bits of the measure_nonintersection() call it
// replaced — so the baseline record's trajectory is unbroken.
void scaling_json(int configured_threads) {
  const int n = 24, alpha = 2, trials = 400000;
  std::vector<NonintersectionCell> cells(1);
  cells[0].family = std::make_shared<OptDFamily>(n, alpha);
  cells[0].model.p = 0.1;
  cells[0].model.link_miss = 0.2;
  cells[0].trials = trials;
  cells[0].base = Rng(42);

  struct Run {
    int threads;
    BatchPolicy mode;
    double wall_ms;
    std::size_t nonintersections;
  };
  // Metrics stay on for the measured runs so the BENCH record carries the
  // runtime chunk/steal/queue telemetry of the workload it timed.
  const obs::TelemetryConfig saved_config = obs::current_config();
  obs::TelemetryConfig metrics_config = saved_config;
  metrics_config.metrics = true;
  obs::configure(metrics_config);
  std::vector<Run> runs;
  for (const int threads : {1, 8}) {
    TrialOptions opts;
    opts.threads = threads;
    const auto start = std::chrono::steady_clock::now();
    const NonintersectionStats stats = sweep_nonintersection(cells, opts)[0];
    const auto stop = std::chrono::steady_clock::now();
    runs.push_back(
        {threads, opts.batch,
         std::chrono::duration<double, std::milli>(stop - start).count(),
         stats.nonintersection.successes});
  }
  const obs::MetricsSnapshot metrics = obs::Registry::instance().snapshot();
  obs::configure(saved_config);

  JsonWriter json;
  json.begin_object();
  json.kv("bench", "nonintersection");
  json.key("workload");
  json.begin_object()
      .kv("name", "optd_two_client_sampling")
      .kv("family", cells[0].family->name())
      .kv("n", n)
      .kv("alpha", alpha)
      .kv("p", cells[0].model.p)
      .kv("link_miss", cells[0].model.link_miss)
      .kv("trials", trials)
      .end_object();
  json.key("runs").begin_array();
  for (const Run& r : runs) {
    json.begin_object()
        .kv("threads", r.threads)
        .kv("mode", batch_policy_name(r.mode))
        .kv("wall_ms", r.wall_ms)
        .kv("nonintersections", static_cast<std::uint64_t>(r.nonintersections))
        .end_object();
  }
  json.end_array();
  json.kv("speedup_8v1", runs[0].wall_ms / runs[1].wall_ms);
  json.kv("deterministic",
          runs[0].nonintersections == runs[1].nonintersections);
  json.key("metrics");
  metrics.write_json(json);
  json.end_object();
  json.write_file("BENCH_nonintersection.json");
  std::printf(
      "\n[runtime] two-client sampling n=%d trials=%d: %.1f ms @1 thread, "
      "%.1f ms @8 threads (speedup %.2fx, identical=%s) -> "
      "BENCH_nonintersection.json\n",
      n, trials, runs[0].wall_ms, runs[1].wall_ms,
      runs[0].wall_ms / runs[1].wall_ms,
      runs[0].nonintersections == runs[1].nonintersections ? "yes" : "NO");
  (void)configured_threads;
}

}  // namespace
}  // namespace sqs

int main(int argc, char** argv) {
  const int threads = sqs::init_threads_from_args(argc, argv);
  if (!sqs::obs::init_telemetry_from_args(argc, argv).ok) return 2;
  std::printf("Non-intersection study (Sect. 4: Theorems 9/12/44).\n");
  sqs::theorem9_sweep();
  sqs::theorem44_composition();
  sqs::correlated_break();
  sqs::scaling_json(threads);
  std::printf(
      "\nShape checks vs the paper:\n"
      "  * measured non-intersection <= eps^2a for OPT_d, <= 2 eps^2a for\n"
      "    compositions (ratios <= 1, usually far below — the bound is loose);\n"
      "  * the rate falls exponentially in alpha;\n"
      "  * correlated partitions break the iid bound, motivating Fig. 1's\n"
      "    validation and the filtering step.\n");
  return sqs::obs::export_telemetry_files() ? 0 : 1;
}
