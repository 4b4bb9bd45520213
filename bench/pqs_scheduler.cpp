// Reproduces the Sect. 2.2 argument: an asynchronous scheduler can defeat
// PQS's access strategy.
//
// The paper's concrete example: two servers {1,2}, two clients {x,y}, PQS
// Q = {{1},{2},{1,2}} accessed uniformly => intersection probability 7/9.
// But a scheduler that delays all of x's messages to server 2 (and y's to
// server 1) forces x to always use {1} and y to always use {2}:
// intersection probability drops to 0. SQS survives the same scheduler
// because dual overlap (not an access strategy) carries the guarantee — the
// scheduler-induced "mismatch" is exactly what the epsilon bound prices in.

#include <cstdio>
#include <functional>
#include <memory>
#include <vector>

#include "core/explicit_sqs.h"
#include "sim/client.h"
#include "uqs/majority.h"
#include "util/rng.h"
#include "util/table.h"

#include "obs/telemetry.h"
#include "runtime/thread_pool.h"

namespace sqs {
namespace {

// The intended access strategy: pick each of {1},{2},{1,2} w.p. 1/3.
int pick_pqs_quorum(Rng& rng) { return static_cast<int>(rng.next_below(3)); }

bool quorums_intersect(int q1, int q2) {
  // 0 = {1}, 1 = {2}, 2 = {1,2}.
  auto has1 = [](int q) { return q == 0 || q == 2; };
  auto has2 = [](int q) { return q == 1 || q == 2; };
  return (has1(q1) && has1(q2)) || (has2(q1) && has2(q2));
}

void no_scheduler() {
  Rng rng(1);
  long meet = 0;
  const int trials = 1000000;
  for (int t = 0; t < trials; ++t)
    if (quorums_intersect(pick_pqs_quorum(rng), pick_pqs_quorum(rng))) ++meet;
  std::printf("  benign scheduler: intersection probability = %.4f "
              "(paper: 7/9 = %.4f)\n",
              static_cast<double>(meet) / trials, 7.0 / 9.0);
}

void adversarial_scheduler() {
  // The scheduler delays x->server2 and y->server1 indefinitely. Whatever
  // quorum each client *intends*, it can only complete the one the
  // scheduler allows: x ends with {1}, y ends with {2}.
  Rng rng(2);
  long meet = 0;
  const int trials = 1000000;
  for (int t = 0; t < trials; ++t) {
    (void)pick_pqs_quorum(rng);  // intent is irrelevant under the scheduler
    (void)pick_pqs_quorum(rng);
    const int x_actual = 0;  // {1}
    const int y_actual = 1;  // {2}
    if (quorums_intersect(x_actual, y_actual)) ++meet;
  }
  std::printf("  adversarial scheduler: intersection probability = %.4f "
              "(paper: 0)\n",
              static_cast<double>(meet) / trials);
}

void sqs_view() {
  // The same two-server world expressed as an SQS with alpha = 1: quorums
  // {1,-2} and {-1,2} have dual overlap 2, so the pair of acquisitions the
  // scheduler manufactures is *priced* as two simultaneous mismatches
  // (probability <= epsilon^2 under independent mismatches), not silently
  // assumed away.
  ExplicitSqs q(2, 1);
  q.add_quorum(SignedSet::from_literals(2, {1, -2}));
  q.add_quorum(SignedSet::from_literals(2, {-1, 2}));
  Table table({"fact", "value"});
  table.add_row({"{1,-2},{-1,2} valid SQS (alpha=1)",
                 q.is_valid_sqs() ? "yes" : "NO"});
  table.add_row({"dual overlap", std::to_string(SignedSet::dual_overlap(
                                     q.quorums()[0], q.quorums()[1]))});
  table.add_row({"interpretation",
                 "scheduler needs 2 mismatches -> P <= eps^2"});
  table.print("SQS restatement of the Sect. 2.2 example");
}

void simulated_scheduler() {
  // The same argument run on the full simulator: two servers, two clients,
  // PQS implemented as threshold-1 quorums probed in random order. The
  // "scheduler" indefinitely delays x -> server2 and y -> server1, which a
  // timeout-based client cannot distinguish from loss.
  Simulator sim;
  NetworkConfig net_config;
  net_config.link_mean_down = 1e-9;
  net_config.link_mean_up = 1e9;
  Network net(&sim, 2, 2, net_config, Rng(5));
  ServerConfig server_config;
  server_config.mean_down = 1e-9;
  server_config.mean_up = 1e9;
  std::vector<Replica> servers;
  for (int i = 0; i < 2; ++i) servers.emplace_back(i, server_config, Rng(i));

  const ThresholdFamily pqs(2, 1, "PQS(2 servers, quorum size 1)");
  ClientConfig client_config;
  SimClient x(&sim, &net, &servers, 0, &pqs, client_config, Rng(10));
  SimClient y(&sim, &net, &servers, 1, &pqs, client_config, Rng(11));

  // Scheduler: starve x->server2 and y->server1 for the whole run.
  net.transport().block_link(0, 1, sim.now(), 1e9);
  net.transport().block_link(1, 0, sim.now(), 1e9);

  int both = 0, meet = 0;
  std::function<void(int)> round = [&](int remaining) {
    if (remaining == 0) return;
    auto r1 = std::make_shared<AcquisitionResult>();
    x.acquire([&, r1, remaining](AcquisitionResult rx) {
      *r1 = rx;
      y.acquire([&, r1, remaining](AcquisitionResult ry) {
        if (r1->acquired && ry.acquired) {
          ++both;
          if (r1->probed.positive().intersects(ry.probed.positive())) ++meet;
        }
        round(remaining - 1);
      });
    });
  };
  round(400);
  sim.run();
  std::printf("  simulated scheduler (event-driven stack): %d/%d acquisitions "
              "intersected (paper: 0)\n",
              meet, both);
}

}  // namespace
}  // namespace sqs

int main(int argc, char** argv) {
  sqs::init_threads_from_args(argc, argv);
  if (!sqs::obs::init_telemetry_from_args(argc, argv).ok) return 2;
  std::printf("Sect. 2.2 reproduction: PQS under an asynchronous scheduler.\n");
  sqs::no_scheduler();
  sqs::adversarial_scheduler();
  sqs::simulated_scheduler();
  sqs::sqs_view();
  std::printf(
      "\nShape check vs the paper: 7/9 -> 0 under the adversarial scheduler;\n"
      "SQS makes the needed mismatch assumption explicit instead.\n");
  return sqs::obs::export_telemetry_files() ? 0 : 1;
}
