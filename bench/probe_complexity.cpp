// Reproduces the probe-complexity results of Sect. 6:
//
//   * g(n), the ServerProbe lower bound (Lemma 28), exactly per the paper's
//     formulas and cross-checked by DP;
//   * OPT_d's measured expected probes matching g(n) (Theorem 35) and
//     bounded by 2 alpha / (1-p) independent of n (Table 1);
//   * the worst-case bounds PC_w = n (Lemma 29) and PC_w* = Theta(n)
//     (Lemma 31), measured;
//   * Theorem 25: truncating to 2 alpha - 1 probes caps availability away
//     from 1, no matter how large n grows.

#include <cmath>
#include <cstdio>

#include "analysis/tradeoffs.h"
#include "core/constructions.h"
#include "probe/engine.h"
#include "probe/measurements.h"
#include "probe/sequential_analysis.h"
#include "probe/serverprobe.h"
#include "runtime/run_trials.h"
#include "util/table.h"

#include "obs/telemetry.h"

namespace sqs {
namespace {

void g_vs_measured() {
  const double p = 0.25;
  const int alpha = 2;
  Table table({"n", "g(n) formula", "g(n) DP", "OPT_d measured",
               "2a/(1-p) bound", "OPT_a measured (baseline)"});
  for (int n : {8, 16, 32, 64, 128, 256}) {
    const double g = serverprobe_complexity(n, alpha, p);
    const double dp = serverprobe_complexity_dp(n, alpha, p);
    const ProbeMeasurement d =
        measure_probes(OptDFamily(n, alpha), p, 40000, Rng(n));
    const ProbeMeasurement a =
        measure_probes(OptAFamily(n, alpha), p, 4000, Rng(n + 1));
    table.add_row({std::to_string(n), Table::fmt(g, 4), Table::fmt(dp, 4),
                   Table::fmt(d.probes_overall.mean(), 4),
                   Table::fmt(serverprobe_upper_bound(alpha, p), 4),
                   Table::fmt(a.probes_overall.mean(), 1)});
  }
  table.print("Theorem 35: E[probes] of OPT_d = g(n) < 2a/(1-p), alpha=2, p=0.25");
}

void sweep_alpha_p() {
  Table table({"alpha", "p", "g(n=200)", "2a/(1-p)", "OPT_d measured"});
  for (int alpha : {1, 2, 3, 5}) {
    for (double p : {0.1, 0.3, 0.45}) {
      const int n = 200;
      const ProbeMeasurement m =
          measure_probes(OptDFamily(n, alpha), p, 20000, Rng(alpha * 100));
      table.add_row({std::to_string(alpha), Table::fmt(p, 2),
                     Table::fmt(serverprobe_complexity(n, alpha, p), 3),
                     Table::fmt(serverprobe_upper_bound(alpha, p), 3),
                     Table::fmt(m.probes_overall.mean(), 3)});
    }
  }
  table.print("g(n) across alpha and p (n=200): O(1) probes at every n");
}

void worst_case() {
  Table table({"family", "n", "PC_w measured (exhaustive)", "paper bound"});
  for (int n : {8, 12, 16}) {
    table.add_row({"OPT_d(a=2)", std::to_string(n),
                   std::to_string(worst_case_probes(OptDFamily(n, 2), 1, Rng(3))),
                   "n (Lemma 29)"});
    table.add_row({"OPT_a(a=2)", std::to_string(n),
                   std::to_string(worst_case_probes(OptAFamily(n, 2), 1, Rng(3))),
                   "n (Lemma 29)"});
  }
  table.print("Lemma 29: worst-case probes of optimal-availability SQS is n");

  // Lemma 31's distributional bound: under C_{alpha-1} configurations the
  // expected probes approach (n-a+1)(n+1)/(n-a+2) ~ n.
  const int n = 24, alpha = 2;
  const OptDFamily fam(n, alpha);
  const RunningStat probes = run_trial_chunks(
      20000, Rng(5), RunningStat{},
      [&](RunningStat& acc, const TrialContext& ctx, Rng& rng) {
        auto strategy = fam.make_probe_strategy();
        for (std::uint64_t t = ctx.chunk.begin; t < ctx.chunk.end; ++t) {
          // Uniform configuration with exactly alpha-1 = 1 server up.
          Configuration c(Bitset(static_cast<std::size_t>(n)));
          c.set_up(
              static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n))),
              true);
          ConfigurationOracle oracle(&c);
          acc.add(run_probe(*strategy, oracle, nullptr).num_probes);
        }
      },
      [](RunningStat& total, RunningStat&& part) { total.merge(part); });
  const double bound = (n - alpha + 1.0) * (n + 1.0) / (n - alpha + 2.0);
  std::printf("  Lemma 31 (PC_w* = Theta(n)): measured E[probes | C_{a-1}] = %.2f,"
              " lower bound %.2f, n = %d\n",
              probes.mean(), bound, n);
}

void theorem25() {
  // Truncated probing: stop (and give up) after 2 alpha - 1 probes.
  const int alpha = 2;
  const double p = 0.3;
  Table table({"n", "avail w/ probes <= 2a-1", "ceiling 1-(p-p^2)^(2a-1)",
               "OPT_d avail (unbounded probes)"});
  for (int n : {10, 50, 200, 1000}) {
    // A quorum acquirable within 2a-1 probes has size <= 2a-1, so it can
    // never rely on dual overlap and must positively intersect every other
    // quorum (Theorem 25's proof). The best such system is a single fixed
    // (2a-1)-server quorum: available iff not all of them are down.
    const double truncated = 1.0 - std::pow(p, 2.0 * alpha - 1.0);
    table.add_row({std::to_string(n), Table::fmt(truncated, 6),
                   Table::fmt(truncated_probe_availability_ceiling(p, alpha), 6),
                   Table::fmt(OptDFamily(n, alpha).availability(p), 6)});
  }
  table.print("Theorem 25: 2a-1 probes cap availability below 1 for every n");
}

}  // namespace
}  // namespace sqs

int main(int argc, char** argv) {
  sqs::init_threads_from_args(argc, argv);
  if (!sqs::obs::init_telemetry_from_args(argc, argv).ok) return 2;
  std::printf("Probe-complexity study (Sect. 6).\n");
  sqs::g_vs_measured();
  sqs::sweep_alpha_p();
  sqs::worst_case();
  sqs::theorem25();
  std::printf(
      "\nShape checks vs the paper:\n"
      "  * formula g(n) == DP == measured OPT_d probes (three-way match);\n"
      "  * E[probes] flat in n and < 2a/(1-p) (O(1) headline);\n"
      "  * worst case remains n — the lower bounds bind;\n"
      "  * truncated probing caps availability (Theorem 25), while OPT_d\n"
      "    with the same alpha reaches ~1 at large n.\n");
  return sqs::obs::export_telemetry_files() ? 0 : 1;
}
