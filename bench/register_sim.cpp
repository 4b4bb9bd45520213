// End-to-end reproduction of the paper's motivating deployment: a
// replicated register over a simulated wide-area network (the application
// the introduction argues for). Not a table in the paper, but the
// operational composite of its claims: availability from OPT_a, message
// cost from OPT_d's probe complexity, and the epsilon^(2 alpha) price paid
// as stale reads. Three sections:
//
//   (a) family comparison across server failure rates (availability,
//       probes, latency p50/p99 from the run's 10 ms latency histogram,
//       stale reads);
//   (b) alpha sweep under flaky links (staleness decays with alpha);
//   (c) failure-assumption ablation: amnesia servers (state lost on
//       recovery) break the crash-failure assumption the guarantees rest on.

#include <cstdio>
#include <memory>

#include "core/composition.h"
#include "core/constructions.h"
#include "runtime/thread_pool.h"
#include "sim/harness.h"
#include "uqs/majority.h"
#include "util/table.h"

#include "obs/telemetry.h"

namespace sqs {
namespace {

RegisterExperimentConfig world(double server_down) {
  RegisterExperimentConfig config;
  config.num_clients = 8;
  config.duration = 700.0;
  config.think_time = 0.4;
  config.server.mean_down = 8.0;
  config.server.mean_up =
      8.0 * (1.0 - server_down) / std::max(server_down, 1e-9);
  config.network.link_mean_up = 50.0;
  config.network.link_mean_down = 1.0;
  config.seed = 77;
  return config;
}

void family_comparison() {
  const int n = 15;
  Table table({"p", "family", "availability", "probes/op", "lat p50 (ms)",
               "lat p99 (ms)", "stale/ok reads"});
  for (double p : {0.1, 0.3, 0.5, 0.7}) {
    const RegisterExperimentConfig config = world(p);
    const MajorityFamily maj(n);
    const OptDFamily opt_d(n, 2);
    auto inner = std::make_shared<MajorityFamily>(7);
    const CompositionFamily comp(inner, n, 2);
    for (const QuorumFamily* family :
         std::initializer_list<const QuorumFamily*>{&maj, &opt_d, &comp}) {
      const RegisterExperimentResult r = run_register_experiment(*family, config);
      const obs::HistogramSnapshot latency_us = r.latency_snapshot();
      table.add_row({Table::fmt(p, 2), family->name(),
                     Table::fmt(r.availability(), 4),
                     Table::fmt(r.probes_per_op.mean(), 2),
                     Table::fmt(latency_us.p50() / 1000, 0),
                     Table::fmt(latency_us.p99() / 1000, 0),
                     std::to_string(r.stale_reads) + "/" +
                         std::to_string(r.reads_ok)});
    }
  }
  table.print("Replicated register, n=15, 8 clients, ~12 min simulated per cell");
}

void alpha_sweep() {
  Table table({"alpha", "availability", "probes/op", "stale reads", "reads ok"});
  RegisterExperimentConfig config = world(0.02);
  config.duration = 1200.0;
  config.network.link_mean_up = 10.0;  // very flaky: epsilon is sizable
  config.network.link_mean_down = 1.0;
  for (int alpha : {1, 2, 3, 4}) {
    const OptDFamily fam(15, alpha);
    const RegisterExperimentResult r = run_register_experiment(fam, config);
    table.add_row({std::to_string(alpha), Table::fmt(r.availability(), 4),
                   Table::fmt(r.probes_per_op.mean(), 2),
                   std::to_string(r.stale_reads), std::to_string(r.reads_ok)});
  }
  table.print("Staleness vs alpha under ~9% link downtime (OPT_d, n=15)");
  std::printf("  stale reads require 2 alpha simultaneous mismatches, so the\n"
              "  count should fall steeply with alpha while probes rise ~2a/(1-p).\n");
}

void amnesia_ablation() {
  Table table({"server storage", "availability", "stale reads", "reads ok"});
  // Rare writes + high churn + alpha=1: a read's couple of reached servers
  // can all have recovered (empty) since the last write touched them.
  RegisterExperimentConfig config = world(0.3);
  config.duration = 2000.0;
  config.read_fraction = 0.97;
  config.server.mean_down = 20.0;
  config.server.mean_up = 20.0 * 0.7 / 0.3;
  for (const bool amnesia : {false, true}) {
    config.server.amnesia_on_recovery = amnesia;
    const OptDFamily fam(15, 1);
    const RegisterExperimentResult r = run_register_experiment(fam, config);
    table.add_row({amnesia ? "amnesia (lost on recovery)" : "stable (crash only)",
                   Table::fmt(r.availability(), 4),
                   std::to_string(r.stale_reads), std::to_string(r.reads_ok)});
  }
  table.print("Failure-assumption ablation: crash vs amnesia recovery "
              "(OPT_d a=1, p=0.3, 3% writes)");
  std::printf("  the paper's fail-stop model keeps state across recovery; with\n"
              "  amnesia, recovered servers answer with empty registers and\n"
              "  staleness is no longer bounded by the mismatch argument.\n");
}

void replication_sweep() {
  // Seed-replication: the same experiment under independent seeds, run in
  // parallel on the trial runtime (one discrete-event simulator per shard).
  // The across-replicate spread is the error bar every single-seed cell
  // above is missing.
  Table table({"family", "replicates", "availability (mean +/- ci95)",
               "stale fraction (mean)", "probes/op (mean)"});
  RegisterExperimentConfig config = world(0.3);
  config.duration = 300.0;
  const int replicates = 8;
  const MajorityFamily maj(15);
  const OptDFamily opt_d(15, 2);
  for (const QuorumFamily* family :
       std::initializer_list<const QuorumFamily*>{&maj, &opt_d}) {
    const ReplicatedRegisterResult r =
        run_register_experiment_replicated(*family, config, replicates);
    table.add_row({family->name(), std::to_string(replicates),
                   Table::fmt(r.availability.mean(), 4) + " +/- " +
                       Table::fmt(r.availability.ci95_half_width(), 4),
                   Table::fmt(r.stale_read_fraction.mean(), 5),
                   Table::fmt(r.probes_per_op.mean(), 2)});
  }
  table.print("Replication sweep, 8 independent seeds in parallel (p=0.3)");
}

}  // namespace
}  // namespace sqs

int main(int argc, char** argv) {
  sqs::init_threads_from_args(argc, argv);
  if (!sqs::obs::init_telemetry_from_args(argc, argv).ok) return 2;
  std::printf("End-to-end replicated register reproduction (Sect. 1 motivation).\n");
  sqs::family_comparison();
  sqs::alpha_sweep();
  sqs::amnesia_ablation();
  sqs::replication_sweep();
  return sqs::obs::export_telemetry_files() ? 0 : 1;
}
