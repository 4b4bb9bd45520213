// Direct tests of the extracted Transport (src/sim/transport.*): the shared
// link-state machine the discrete-event simulator and the staged service
// both send messages through. Everything here drives it with explicit
// times, the way the service runner does — no simulator event loop — so
// each fault hook's window arithmetic is pinned down on its own.

#include <gtest/gtest.h>

#include <cstdint>

#include "sim/transport.h"
#include "util/rng.h"

namespace sqs {
namespace {

// Links that essentially never flap, no injected faults: deliveries are the
// default and carry at least the base latency.
NetworkConfig reliable_config() {
  NetworkConfig config;
  config.base_latency = 0.020;
  config.jitter_mean = 0.010;
  config.link_mean_up = 1e12;
  config.link_mean_down = 1e-9;
  return config;
}

TEST(Transport, ConfigValidation) {
  EXPECT_TRUE(reliable_config().validate());
  NetworkConfig bad = reliable_config();
  bad.link_mean_up = 0.0;
  EXPECT_FALSE(bad.validate());
  bad = reliable_config();
  bad.jitter_mean = -1.0;
  EXPECT_FALSE(bad.validate());
}

TEST(Transport, DeliversWithBaseLatencyPlusJitter) {
  Transport t(2, 3, reliable_config(), Rng(7));
  for (int i = 0; i < 100; ++i) {
    const Transport::Delivery d = t.attempt(i % 2, i % 3, 0.01 * i);
    ASSERT_TRUE(d.delivered);
    EXPECT_GE(d.latency, reliable_config().base_latency);
  }
  EXPECT_EQ(t.messages_delivered(), 100u);
  EXPECT_EQ(t.messages_dropped(), 0u);
}

TEST(Transport, SameSeedSameFate) {
  Transport a(4, 8, reliable_config(), Rng(42).split("network"));
  Transport b(4, 8, reliable_config(), Rng(42).split("network"));
  for (int i = 0; i < 500; ++i) {
    const double now = 0.002 * i;
    const Transport::Delivery da = a.attempt(i % 4, i % 8, now);
    const Transport::Delivery db = b.attempt(i % 4, i % 8, now);
    ASSERT_EQ(da.delivered, db.delivered);
    ASSERT_DOUBLE_EQ(da.latency, db.latency);
  }
}

TEST(Transport, StationaryLinkDownRate) {
  // Link states sampled across time settle at the stationary down
  // probability mean_down / (mean_up + mean_down).
  NetworkConfig config;
  config.link_mean_up = 9.0;
  config.link_mean_down = 1.0;  // stationary down = 0.1
  Transport t(1, 200, config, Rng(3));
  int down = 0, samples = 0;
  for (int step = 1; step <= 50; ++step) {
    for (int s = 0; s < 200; ++s) {
      if (!t.link_up(0, s, 5.0 * step)) ++down;
      ++samples;
    }
  }
  EXPECT_NEAR(static_cast<double>(down) / samples, 0.1, 0.02);
}

TEST(Transport, FlappingLinksDropInDownPeriods) {
  // Symmetric up/down: roughly half of widely spaced attempts must fail,
  // and the stationary start means even time 0 can be down.
  NetworkConfig config = reliable_config();
  config.link_mean_up = 1.0;
  config.link_mean_down = 1.0;
  Transport t(1, 1, config, Rng(3));
  std::uint64_t delivered = 0;
  const int kAttempts = 2000;
  for (int i = 0; i < kAttempts; ++i)
    if (t.attempt(0, 0, 5.0 * i).delivered) ++delivered;
  EXPECT_EQ(delivered, t.messages_delivered());
  EXPECT_EQ(t.messages_delivered() + t.messages_dropped(),
            static_cast<std::uint64_t>(kAttempts));
  EXPECT_GT(delivered, kAttempts / 4);  // ~half, generous bounds
  EXPECT_LT(delivered, 3 * kAttempts / 4);
}

TEST(Transport, ClientPartitionWindow) {
  Transport t(2, 2, reliable_config(), Rng(1));
  // Injection happens AT `now` (there is no stored window start — time only
  // flows forward), so all queries are at or after the injection time.
  t.partition_client(0, 10.0, 5.0);
  for (int s = 0; s < 2; ++s) {
    EXPECT_FALSE(t.link_up(0, s, 12.0));  // every link of the client
    EXPECT_TRUE(t.link_up(1, s, 12.0));
  }
  EXPECT_TRUE(t.client_partition_active(0, 12.0));
  EXPECT_DOUBLE_EQ(t.client_partition_fraction(0, 12.0), 1.0);
  EXPECT_FALSE(t.attempt(0, 0, 12.0).delivered);  // partitioned client
  EXPECT_TRUE(t.attempt(1, 0, 12.0).delivered);   // other client unaffected
  EXPECT_TRUE(t.attempt(0, 0, 15.0).delivered);   // window over
  EXPECT_FALSE(t.client_partition_active(0, 15.0));
}

TEST(Transport, PartialClientPartitionBlocksASubset) {
  const int kServers = 64;
  Transport t(1, kServers, reliable_config(), Rng(11));
  t.partition_client_partial(0, 0.5, 0.0, 10.0);
  EXPECT_TRUE(t.client_partition_active(0, 1.0));
  EXPECT_DOUBLE_EQ(t.client_partition_fraction(0, 1.0), 0.5);
  int blocked = 0;
  for (int s = 0; s < kServers; ++s)
    if (!t.attempt(0, s, 1.0).delivered) ++blocked;
  EXPECT_GT(blocked, 0);         // some servers cut off...
  EXPECT_LT(blocked, kServers);  // ...but not all of them
  for (int s = 0; s < kServers; ++s)  // window over: everything flows again
    EXPECT_TRUE(t.attempt(0, s, 11.0).delivered);
  EXPECT_DOUBLE_EQ(t.client_partition_fraction(0, 11.0), 0.0);
}

TEST(Transport, LinkBlockIsPairwise) {
  Transport t(2, 2, reliable_config(), Rng(5));
  t.block_link(0, 1, 0.0, 10.0);
  EXPECT_FALSE(t.link_up(0, 1, 5.0));
  EXPECT_TRUE(t.link_up(0, 0, 5.0));
  EXPECT_TRUE(t.link_up(1, 1, 5.0));
  EXPECT_TRUE(t.link_up(0, 1, 10.0));  // window is half-open [0, 10)
}

TEST(Transport, ServerPartitionExtendsNeverShortens) {
  Transport t(2, 2, reliable_config(), Rng(9));
  t.force_partition(0, 0.0, 10.0);
  t.force_partition(0, 0.0, 2.0);  // shorter call must not shorten
  EXPECT_FALSE(t.link_up(0, 0, 9.0));
  EXPECT_FALSE(t.link_up(1, 0, 9.0));  // every client loses the server
  EXPECT_TRUE(t.link_up(0, 1, 9.0));   // the other server is fine
  EXPECT_TRUE(t.link_up(0, 0, 10.0));
}

TEST(Transport, LatencyBurstMultipliesDelivered) {
  const double kFactor = 50.0;
  Transport t(1, 1, reliable_config(), Rng(13));
  t.inject_latency_burst(kFactor, 1.0, 1.0);
  const Transport::Delivery during = t.attempt(0, 0, 1.5);
  ASSERT_TRUE(during.delivered);
  EXPECT_GE(during.latency, kFactor * reliable_config().base_latency);
  const Transport::Delivery after = t.attempt(0, 0, 2.5);
  ASSERT_TRUE(after.delivered);
  EXPECT_LT(after.latency, kFactor * reliable_config().base_latency);
}

TEST(Transport, LossBurstDropsEverythingAtProbabilityOne) {
  Transport t(1, 1, reliable_config(), Rng(17));
  t.inject_loss_burst(1.0, 0.0, 5.0);
  for (int i = 0; i < 50; ++i)
    EXPECT_FALSE(t.attempt(0, 0, 0.1 * i).delivered);
  EXPECT_TRUE(t.attempt(0, 0, 6.0).delivered);
  EXPECT_EQ(t.messages_dropped(), 50u);
  EXPECT_EQ(t.messages_delivered(), 1u);
}

}  // namespace
}  // namespace sqs
