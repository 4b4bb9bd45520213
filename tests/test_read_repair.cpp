#include <gtest/gtest.h>

#include "core/constructions.h"
#include "sim/harness.h"

namespace sqs {
namespace {

RegisterExperimentConfig flaky_world() {
  RegisterExperimentConfig config;
  config.num_clients = 6;
  config.duration = 2500.0;
  config.think_time = 0.3;
  config.read_fraction = 0.7;
  config.server.mean_down = 1e-9;
  config.server.mean_up = 1e9;
  config.network.link_mean_up = 8.0;  // very flaky links, ~11% downtime
  config.network.link_mean_down = 1.0;
  return config;
}

TEST(ReadRepair, DoesNotChangeResultsInPerfectWorld) {
  RegisterExperimentConfig config = flaky_world();
  config.network.link_mean_down = 1e-9;
  config.network.link_mean_up = 1e9;
  config.client.read_repair = true;
  const auto result = run_register_experiment(OptDFamily(12, 2), config);
  EXPECT_DOUBLE_EQ(result.availability(), 1.0);
  EXPECT_EQ(result.stale_reads, 0);
}

TEST(ReadRepair, ReducesStaleReadsUnderFlakyLinks) {
  // Under heavy link flapping at alpha=1, quorum misses are common enough
  // to measure; repair propagates the newest value to reached-but-stale
  // servers, so later reads are less likely to miss it.
  RegisterExperimentConfig config = flaky_world();
  const OptDFamily fam(12, 1);

  config.client.read_repair = false;
  const auto without = run_register_experiment(fam, config);

  config.client.read_repair = true;
  const auto with = run_register_experiment(fam, config);

  EXPECT_GT(without.reads_ok, 2000);
  EXPECT_GT(without.stale_reads, 0) << "regime must exhibit staleness";
  EXPECT_LE(with.stale_reads, without.stale_reads)
      << "repair should not increase staleness: " << with.stale_reads << " vs "
      << without.stale_reads;
}

TEST(ReadRepair, PropagatesValuesToStaleReplicas) {
  // Direct unit check on the mechanism: a replica that returned an old
  // timestamp during a read gets the newer value pushed back.
  Simulator sim;
  NetworkConfig net_config;
  net_config.link_mean_down = 1e-9;
  net_config.link_mean_up = 1e9;
  Network net(&sim, 1, 3, net_config, Rng(1));
  ServerConfig server_config;
  server_config.mean_down = 1e-9;
  server_config.mean_up = 1e9;
  std::vector<Replica> servers;
  for (int i = 0; i < 3; ++i)
    servers.emplace_back(i, server_config, Rng(10 + i));

  // Seed divergent replica states.
  servers[0].handle_write(sim.now(), Timestamp{5, 0}, 50);
  servers[1].handle_write(sim.now(), Timestamp{3, 0}, 30);
  servers[2].handle_write(sim.now(), Timestamp{1, 0}, 10);

  const OptAFamily fam(3, 1);  // probes everything
  ClientConfig client_config;
  client_config.read_repair = true;
  SimClient client(&sim, &net, &servers, 0, &fam, client_config, Rng(99));
  ReadResult result;
  client.read([&](ReadResult r) { result = r; });
  sim.run();
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.value, 50u);
  // All replicas converged to the max.
  for (const auto& server : servers) {
    EXPECT_EQ(server.value(), 50u);
    EXPECT_EQ(server.timestamp().counter, 5u);
  }
}

}  // namespace
}  // namespace sqs
