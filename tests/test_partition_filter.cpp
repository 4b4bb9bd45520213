#include <gtest/gtest.h>

#include "core/constructions.h"
#include "sim/harness.h"
#include "sim/transport.h"

namespace sqs {
namespace {

TEST(PartialPartition, BlocksTheChosenFractionOfLinks) {
  NetworkConfig config;
  config.link_mean_down = 1e-9;
  config.link_mean_up = 1e9;
  Transport transport(1, 400, config, Rng(3));
  transport.partition_client_partial(0, 0.5, 0.0, 10.0);
  EXPECT_TRUE(transport.client_partition_active(0, 0.0));
  EXPECT_DOUBLE_EQ(transport.client_partition_fraction(0, 0.0), 0.5);
  int blocked = 0;
  for (int s = 0; s < 400; ++s)
    if (!transport.link_up(0, s, 0.0)) ++blocked;
  EXPECT_NEAR(blocked, 200, 45);
  // Expires.
  EXPECT_FALSE(transport.client_partition_active(0, 11.0));
  for (int s = 0; s < 400; ++s) EXPECT_TRUE(transport.link_up(0, s, 11.0));
}

TEST(PartialPartition, FractionZeroBlocksNoLinks) {
  NetworkConfig config;
  config.link_mean_down = 1e-9;
  config.link_mean_up = 1e9;
  Transport transport(1, 400, config, Rng(7));
  transport.partition_client_partial(0, 0.0, 0.0, 10.0);
  // The partition window is active (the filter can still see it) but the
  // degenerate fraction leaves every link up.
  EXPECT_TRUE(transport.client_partition_active(0, 0.0));
  EXPECT_DOUBLE_EQ(transport.client_partition_fraction(0, 0.0), 0.0);
  for (int s = 0; s < 400; ++s) EXPECT_TRUE(transport.link_up(0, s, 0.0));
}

TEST(PartialPartition, FractionOneBlocksEveryLink) {
  NetworkConfig config;
  config.link_mean_down = 1e-9;
  config.link_mean_up = 1e9;
  Transport transport(1, 400, config, Rng(9));
  transport.partition_client_partial(0, 1.0, 0.0, 10.0);
  EXPECT_TRUE(transport.client_partition_active(0, 0.0));
  EXPECT_DOUBLE_EQ(transport.client_partition_fraction(0, 0.0), 1.0);
  for (int s = 0; s < 400; ++s) EXPECT_FALSE(transport.link_up(0, s, 0.0));
  for (int s = 0; s < 400; ++s) EXPECT_TRUE(transport.link_up(0, s, 11.0));
}

TEST(PartialPartition, FullPartitionReportsFractionOne) {
  Transport transport(2, 4, NetworkConfig{}, Rng(5));
  transport.partition_client(1, 0.0, 5.0);
  EXPECT_TRUE(transport.client_partition_active(1, 0.0));
  EXPECT_DOUBLE_EQ(transport.client_partition_fraction(1, 0.0), 1.0);
  EXPECT_FALSE(transport.client_partition_active(0, 0.0));
}

RegisterExperimentConfig partitioned_world() {
  RegisterExperimentConfig config;
  config.num_clients = 6;
  config.duration = 1500.0;
  config.think_time = 0.4;
  config.server.mean_down = 1e-9;
  config.server.mean_up = 1e9;
  config.network.link_mean_down = 1e-9;
  config.network.link_mean_up = 1e9;
  // Frequent, severe partial partitions: the correlated-mismatch regime.
  config.partition_rate = 0.05;
  config.partition_fraction = 0.8;
  config.partition_duration = 8.0;
  return config;
}

TEST(PartitionFilter, PartitionsCauseStaleReadsWithoutFilter) {
  // alpha=1 and a mostly-partitioned client: the client reaches a couple of
  // servers, believes the rest dead, and acquires quorums that miss recent
  // writes.
  RegisterExperimentConfig config = partitioned_world();
  config.client.use_partition_filter = false;
  const OptDFamily fam(12, 1);
  const auto result = run_register_experiment(fam, config);
  EXPECT_GT(result.reads_ok, 1000);
  EXPECT_GT(result.stale_reads, 0)
      << "partitions should manufacture correlated mismatches";
  EXPECT_EQ(result.ops_filtered, 0);
}

TEST(PartitionFilter, FilteringSuppressesStaleReads) {
  RegisterExperimentConfig config = partitioned_world();
  const OptDFamily fam(12, 1);

  config.client.use_partition_filter = false;
  const auto raw = run_register_experiment(fam, config);

  config.client.use_partition_filter = true;
  const auto filtered = run_register_experiment(fam, config);

  EXPECT_GT(filtered.ops_filtered, 0);
  EXPECT_LT(filtered.stale_reads, std::max<long>(raw.stale_reads, 1))
      << "raw stale=" << raw.stale_reads
      << " filtered stale=" << filtered.stale_reads;
  // Filtering costs some availability during partitions but not much.
  EXPECT_GT(filtered.availability(), 0.8);
}

TEST(PartitionFilter, NoPartitionsMeansNoFiltering) {
  RegisterExperimentConfig config = partitioned_world();
  config.partition_rate = 0.0;
  config.client.use_partition_filter = true;
  const auto result = run_register_experiment(OptDFamily(12, 2), config);
  EXPECT_EQ(result.ops_filtered, 0);
  EXPECT_EQ(result.stale_reads, 0);
  EXPECT_DOUBLE_EQ(result.availability(), 1.0);
}

}  // namespace
}  // namespace sqs
