#include "sim/store.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

namespace sqs {
namespace {

StoreExperimentConfig reliable_store() {
  StoreExperimentConfig config;
  config.num_servers = 20;
  config.num_objects = 20;
  config.alpha = 2;
  config.num_clients = 6;
  config.duration = 500.0;
  config.think_time = 0.2;
  config.network.link_mean_down = 1e-9;
  config.network.link_mean_up = 1e9;
  config.server.mean_down = 1e-9;
  config.server.mean_up = 1e9;
  return config;
}

TEST(Store, PerfectWorldFullyAvailableAndConsistent) {
  const auto result = run_store_experiment(reliable_store());
  EXPECT_GT(result.ops_attempted, 2000);
  EXPECT_DOUBLE_EQ(result.availability(), 1.0);
  EXPECT_EQ(result.stale_reads, 0);
  // OPT_d, everything up: exactly 2 alpha probes per op.
  EXPECT_NEAR(result.probes_per_op.mean(), 4.0, 0.01);
}

TEST(Store, RotationFlattensAggregateLoad) {
  StoreExperimentConfig config = reliable_store();
  config.rotate_orders = true;
  const auto rotated = run_store_experiment(config);
  config.rotate_orders = false;
  const auto shared = run_store_experiment(config);

  // Shared order: server 0 is probed by every acquisition.
  EXPECT_NEAR(shared.max_server_load(), 1.0, 1e-9);
  EXPECT_NEAR(shared.min_server_load(), 0.0, 0.01);
  // Rotated orders: load flattens to ~E[probes]/n = 4/20 = 0.2.
  EXPECT_LT(rotated.max_server_load(), 0.27);
  EXPECT_GT(rotated.min_server_load(), 0.13);
  // Per-object behaviour is unchanged: same probes, same availability.
  EXPECT_NEAR(rotated.probes_per_op.mean(), shared.probes_per_op.mean(), 0.05);
  EXPECT_DOUBLE_EQ(rotated.availability(), shared.availability());
}

TEST(Store, ObjectsAreIsolated) {
  // Staleness accounting is per object: a fleet serving many objects in a
  // perfect world never reports cross-object staleness.
  StoreExperimentConfig config = reliable_store();
  config.num_objects = 5;
  config.read_fraction = 0.5;
  const auto result = run_store_experiment(config);
  EXPECT_EQ(result.stale_reads, 0);
  EXPECT_GT(result.reads_ok, 500);
}

TEST(Store, SurvivesHeavyServerChurnViaOptD) {
  StoreExperimentConfig config = reliable_store();
  config.server.mean_up = 5.0;
  config.server.mean_down = 5.0;  // p = 0.5: majority would be ~dead
  config.duration = 400.0;
  const auto result = run_store_experiment(config);
  EXPECT_GT(result.availability(), 0.97);
}

TEST(Store, DeterministicBySeed) {
  const StoreExperimentConfig config = reliable_store();
  const auto r1 = run_store_experiment(config);
  const auto r2 = run_store_experiment(config);
  EXPECT_EQ(r1.ops_attempted, r2.ops_attempted);
  EXPECT_EQ(r1.ops_ok, r2.ops_ok);
  EXPECT_DOUBLE_EQ(r1.max_server_load(), r2.max_server_load());
}

TEST(Store, LoadAccessorsOnEmptyAndSingleEntryVectors) {
  // Regression: min_server_load() used to return its 1.0 fold seed on an
  // empty fleet, reading as "some server saw every probe". Both accessors
  // must agree on 0.0 when there is nothing to fold over.
  StoreExperimentResult empty;
  EXPECT_DOUBLE_EQ(empty.min_server_load(), 0.0);
  EXPECT_DOUBLE_EQ(empty.max_server_load(), 0.0);

  StoreExperimentResult one;
  one.server_probe_fraction = {0.4};
  EXPECT_DOUBLE_EQ(one.min_server_load(), 0.4);
  EXPECT_DOUBLE_EQ(one.max_server_load(), 0.4);
}

// Each rejected field on its own: validate() names it on stderr and the run
// returns an empty result instead of reaching an empty family list (zero
// objects) or an OPT_d constructor assert.
void expect_rejected(const StoreExperimentConfig& config, const char* field) {
  testing::internal::CaptureStderr();
  EXPECT_FALSE(config.validate()) << field;
  const StoreExperimentResult result = run_store_experiment(config);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find(field), std::string::npos) << field << ": " << err;
  EXPECT_EQ(result.ops_attempted, 0) << field;
  EXPECT_TRUE(result.server_probe_fraction.empty()) << field;
}

TEST(Store, DefaultAndTestConfigsValidate) {
  EXPECT_TRUE(StoreExperimentConfig{}.validate());
  EXPECT_TRUE(reliable_store().validate());
}

TEST(Store, ZeroServersIsRejected) {
  StoreExperimentConfig config = reliable_store();
  config.num_servers = 0;
  expect_rejected(config, "num_servers");
}

TEST(Store, TooFewServersForAlphaIsRejected) {
  StoreExperimentConfig config = reliable_store();
  config.num_servers = 4;  // OPT_d needs n >= 3 alpha - 1 = 5
  expect_rejected(config, "num_servers");
}

TEST(Store, ZeroObjectsIsRejected) {
  StoreExperimentConfig config = reliable_store();
  config.num_objects = 0;
  expect_rejected(config, "num_objects");
}

TEST(Store, ZeroClientsIsRejected) {
  StoreExperimentConfig config = reliable_store();
  config.num_clients = 0;
  expect_rejected(config, "num_clients");
}

TEST(Store, NonPositiveAlphaIsRejected) {
  StoreExperimentConfig config = reliable_store();
  config.alpha = 0;
  expect_rejected(config, "alpha");
}

TEST(Store, NonPositiveDurationIsRejected) {
  StoreExperimentConfig config = reliable_store();
  config.duration = 0.0;
  expect_rejected(config, "duration");
}

TEST(Store, NonPositiveThinkTimeIsRejected) {
  StoreExperimentConfig config = reliable_store();
  config.think_time = -1.0;
  expect_rejected(config, "think_time");
}

TEST(Store, ReadFractionOutsideUnitIntervalIsRejected) {
  StoreExperimentConfig config = reliable_store();
  config.read_fraction = 1.5;
  expect_rejected(config, "read_fraction");
  config.read_fraction = std::nan("");
  expect_rejected(config, "read_fraction");
}

TEST(Store, BadNetworkConfigIsRejected) {
  StoreExperimentConfig config = reliable_store();
  config.network.jitter_mean = 0.0;
  expect_rejected(config, "jitter_mean");
}

TEST(Store, BadServerConfigIsRejected) {
  StoreExperimentConfig config = reliable_store();
  config.server.service_time = -1.0;
  expect_rejected(config, "service_time");
}

TEST(Store, BadClientConfigIsRejected) {
  StoreExperimentConfig config = reliable_store();
  config.client.max_attempts = 0;
  expect_rejected(config, "max_attempts");
}

}  // namespace
}  // namespace sqs
