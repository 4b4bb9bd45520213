// A replicated register over a simulated wide-area network — the paper's
// motivating deployment. Compares majority quorums against OPT_d (and a
// composition) as server failure rates climb, reporting what an application
// actually sees: operation availability, probes (== wide-area messages) per
// operation, latency, and stale reads (the observable cost of probabilistic
// intersection).
//
// Build and run:  ./build/examples/wide_area_register

#include <cstdio>
#include <memory>

#include "core/composition.h"
#include "core/constructions.h"
#include "sim/harness.h"
#include "uqs/majority.h"
#include "util/table.h"

namespace sqs {
namespace {

RegisterExperimentConfig base_config(double server_down_fraction) {
  RegisterExperimentConfig config;
  config.num_clients = 8;
  config.duration = 1200.0;
  config.think_time = 0.5;
  // Servers flap with the requested stationary unavailability.
  config.server.mean_down = 10.0;
  config.server.mean_up = 10.0 * (1.0 - server_down_fraction) /
                          std::max(server_down_fraction, 1e-9);
  // Mildly flaky links: ~2% down at any instant (the mismatch source).
  config.network.link_mean_up = 50.0;
  config.network.link_mean_down = 1.0;
  config.seed = 20260705;
  return config;
}

void run_family_sweep() {
  const int n = 15;
  Table table({"p (server down)", "family", "op availability",
               "probes/op", "median-ish latency (mean, ms)", "stale reads",
               "reads ok"});
  for (double p : {0.05, 0.2, 0.4, 0.6}) {
    const RegisterExperimentConfig config = base_config(p);

    const MajorityFamily maj(n);
    const OptDFamily opt_d(n, 2);
    auto inner = std::make_shared<MajorityFamily>(7);
    const CompositionFamily comp(inner, n, 2);

    for (const QuorumFamily* family :
         std::initializer_list<const QuorumFamily*>{&maj, &opt_d, &comp}) {
      const RegisterExperimentResult r = run_register_experiment(*family, config);
      table.add_row({Table::fmt(p, 2), family->name(),
                     Table::fmt(r.availability(), 4),
                     Table::fmt(r.probes_per_op.mean(), 2),
                     Table::fmt(r.latency_ok.mean() * 1000.0, 1),
                     std::to_string(r.stale_reads),
                     std::to_string(r.reads_ok)});
    }
  }
  table.print("Replicated register over 15 wide-area servers, 8 clients, "
              "20 min simulated");
}

void run_filter_demo() {
  // Correlated mismatches via partial client partitions, with and without
  // the paper's filtering step ([17]).
  const int n = 15;
  Table table({"filter", "op availability", "stale reads", "reads ok",
               "ops filtered"});
  for (bool filter : {false, true}) {
    RegisterExperimentConfig config = base_config(0.02);
    config.duration = 2000.0;
    config.partition_rate = 0.04;       // a partition every ~25 s
    config.partition_fraction = 0.8;
    config.partition_duration = 8.0;
    config.client.use_partition_filter = filter;
    const OptDFamily fam(n, 1);
    const RegisterExperimentResult r = run_register_experiment(fam, config);
    table.add_row({filter ? "on ([17] beacon check)" : "off",
                   Table::fmt(r.availability(), 4),
                   std::to_string(r.stale_reads), std::to_string(r.reads_ok),
                   std::to_string(r.ops_filtered)});
  }
  table.print("Client partitions (correlated mismatches) vs the filtering "
              "step, OPT_d alpha=1");
}

}  // namespace
}  // namespace sqs

int main() {
  std::printf("Wide-area replicated register: majority vs SQS.\n");
  sqs::run_family_sweep();
  sqs::run_filter_demo();
  std::printf(
      "\nWhat to look for:\n"
      "  * majority availability collapses as p approaches and passes 1/2;\n"
      "    OPT_d keeps serving as long as ~2 servers respond;\n"
      "  * OPT_d pays ~4-8 probes/op regardless of n; majority pays ~n/2+;\n"
      "  * stale reads stay rare: they require 2 alpha simultaneous\n"
      "    mismatches (Theorem 9), at the measured link flap rate that is\n"
      "    a <<1%% event.\n");
  return 0;
}
