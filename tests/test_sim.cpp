#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/composition.h"
#include "core/constructions.h"
#include "sim/harness.h"
#include "sim/network.h"
#include "sim/register_core.h"
#include "sim/replica.h"
#include "sim/simulator.h"
#include "uqs/majority.h"

namespace sqs {
namespace {

// ---- event loop ----

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(2.0, [&] { order.push_back(2); });
  sim.schedule(1.0, [&] { order.push_back(1); });
  sim.schedule(3.0, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulator, EventLoopObservabilityCounters) {
  Simulator sim;
  EXPECT_EQ(sim.scheduled_events(), 0u);
  EXPECT_EQ(sim.executed_events(), 0u);
  EXPECT_EQ(sim.peak_pending_events(), 0u);
  for (int i = 0; i < 4; ++i) sim.schedule(1.0 + i, [] {});
  EXPECT_EQ(sim.scheduled_events(), 4u);
  EXPECT_EQ(sim.peak_pending_events(), 4u);  // all queued before any ran
  sim.run_until(2.5);
  EXPECT_EQ(sim.executed_events(), 2u);
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.run();
  EXPECT_EQ(sim.executed_events(), 4u);
  EXPECT_EQ(sim.peak_pending_events(), 4u);  // peak is sticky
}

TEST(Simulator, EqualTimestampsRunFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i)
    sim.schedule(1.0, [&order, i] { order.push_back(i); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, NestedSchedulingAndDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule(1.0, [&] {
    ++fired;
    sim.schedule(1.0, [&] { ++fired; });       // t=2, within deadline
    sim.schedule(10.0, [&] { fired += 100; }); // t=11, beyond deadline
  });
  sim.run_until(5.0);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  EXPECT_EQ(sim.pending_events(), 1u);
}

// ---- network ----

TEST(Network, StationaryLinkDownRate) {
  Simulator sim;
  NetworkConfig config;
  config.link_mean_up = 9.0;
  config.link_mean_down = 1.0;  // stationary down = 0.1
  Network net(&sim, 1, 200, config, Rng(3));
  // Sample link states across time.
  int down = 0, samples = 0;
  for (int step = 0; step < 50; ++step) {
    sim.run_until(sim.now() + 5.0);
    for (int s = 0; s < 200; ++s) {
      if (!net.link_up(0, s)) ++down;
      ++samples;
    }
  }
  EXPECT_NEAR(static_cast<double>(down) / samples, 0.1, 0.02);
}

TEST(Network, DeliversWithLatencyWhenUp) {
  Simulator sim;
  NetworkConfig config;
  config.link_mean_down = 1e-9;  // effectively never down
  config.link_mean_up = 1e9;
  config.base_latency = 0.05;
  Network net(&sim, 1, 1, config, Rng(5));
  bool delivered = false;
  double at = 0.0;
  net.send(0, 0, Network::Direction::kToServer, [&] {
    delivered = true;
    at = sim.now();
  });
  sim.run();
  EXPECT_TRUE(delivered);
  EXPECT_GE(at, 0.05);
}

TEST(Network, PartitionedClientLosesAllLinks) {
  Simulator sim;
  NetworkConfig config;
  config.link_mean_down = 1e-9;
  config.link_mean_up = 1e9;
  Network net(&sim, 2, 4, config, Rng(7));
  net.transport().partition_client(0, sim.now(), 10.0);
  for (int s = 0; s < 4; ++s) {
    EXPECT_FALSE(net.link_up(0, s));
    EXPECT_TRUE(net.link_up(1, s));
  }
  bool delivered = false;
  net.send(0, 1, Network::Direction::kToServer, [&] { delivered = true; });
  sim.run();
  EXPECT_FALSE(delivered);
}

TEST(Network, BlockLinkIsPerPairAndExpires) {
  Simulator sim;
  NetworkConfig config;
  config.link_mean_down = 1e-9;
  config.link_mean_up = 1e9;
  Network net(&sim, 2, 3, config, Rng(9));
  net.transport().block_link(0, 1, sim.now(), 5.0);
  EXPECT_TRUE(net.link_up(0, 0));
  EXPECT_FALSE(net.link_up(0, 1));
  EXPECT_TRUE(net.link_up(0, 2));
  EXPECT_TRUE(net.link_up(1, 1));  // other client unaffected
  sim.run_until(6.0);
  EXPECT_TRUE(net.link_up(0, 1));
}

// ---- servers ----

TEST(Replica, StationaryFailureRate) {
  Simulator sim;
  ServerConfig config;
  config.mean_up = 8.0;
  config.mean_down = 2.0;  // stationary p = 0.2
  int down = 0, samples = 0;
  std::vector<Replica> servers;
  Rng rng(11);
  for (int i = 0; i < 100; ++i) servers.emplace_back(i, config, rng.split(i));
  for (int step = 0; step < 40; ++step) {
    sim.run_until(sim.now() + 3.0);
    for (auto& s : servers) {
      if (!s.up(sim.now())) ++down;
      ++samples;
    }
  }
  EXPECT_NEAR(static_cast<double>(down) / samples, 0.2, 0.03);
}

TEST(Timestamp, LexicographicOrdering) {
  // (counter, writer) pairs compare counter-first, writer as tie-break —
  // the standard ABD tag order every monotonicity invariant relies on.
  EXPECT_LT((Timestamp{1, 5}), (Timestamp{2, 0}));
  EXPECT_LT((Timestamp{3, 1}), (Timestamp{3, 2}));
  EXPECT_FALSE((Timestamp{3, 2}) < (Timestamp{3, 2}));
  EXPECT_FALSE((Timestamp{4, 0}) < (Timestamp{3, 9}));
  EXPECT_EQ((Timestamp{3, 2}), (Timestamp{3, 2}));
  EXPECT_FALSE((Timestamp{3, 2}) == (Timestamp{3, 1}));
  // The default tag is below every real write's tag.
  EXPECT_LT(Timestamp{}, (Timestamp{0, 0}));
  EXPECT_LT(Timestamp{}, (Timestamp{1, -1}));
}

TEST(Replica, WriteAdvancesTimestampMonotonically) {
  Simulator sim;
  ServerConfig config;
  config.mean_down = 1e-9;
  config.mean_up = 1e9;
  Replica server(0, config, Rng(13));
  EXPECT_TRUE(server.handle_write(sim.now(), Timestamp{3, 1}, 30));
  EXPECT_EQ(server.value(), 30u);
  // Older write is acked but not applied.
  EXPECT_TRUE(server.handle_write(sim.now(), Timestamp{2, 9}, 20));
  EXPECT_EQ(server.value(), 30u);
  // Equal counter, higher writer id wins the lexicographic order.
  EXPECT_TRUE(server.handle_write(sim.now(), Timestamp{3, 2}, 32));
  EXPECT_EQ(server.value(), 32u);
  const auto read = server.handle_read(sim.now());
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(read->second, 32u);
}

ServerConfig never_failing_server() {
  ServerConfig config;
  config.mean_down = 1e-9;
  config.mean_up = 1e9;
  return config;
}

TEST(Replica, FencedRequestIsNotADropButADownReplicaDrops) {
  Replica r(0, never_failing_server(), Rng(5));
  r.set_member(false);
  ASSERT_TRUE(r.fences_requests());
  EXPECT_FALSE(r.handle_read(1.0).has_value());
  EXPECT_FALSE(r.handle_write(1.0, Timestamp{1, 0}, 10));
  EXPECT_FALSE(r.serve_read(0, 1.0, 1.0).has_value());
  EXPECT_FALSE(r.serve_write(Timestamp{1, 0}, 10, 0, 1.0, 1.0).has_value());
  EXPECT_TRUE(r.serve_fence(1.0, 1.0).has_value());  // a fence is an answer
  EXPECT_EQ(r.dropped_requests(), 0u);
  EXPECT_TRUE(r.timestamp() == Timestamp{});  // no fenced write applied
  r.force_crash(2.0, 5.0);
  EXPECT_FALSE(r.handle_read(3.0).has_value());
  EXPECT_FALSE(r.serve_fence(3.0, 3.0).has_value());
  EXPECT_EQ(r.dropped_requests(), 2u);
}

TEST(Replica, MaxTimestampSurvivesAmnesiaAndCountsRegressions) {
  ServerConfig config;
  config.mean_up = 1.0;
  config.mean_down = 1.0;
  config.amnesia_on_recovery = true;
  Replica r(0, config, Rng(21));
  double t = 0.0;
  while (!r.up(t)) t += 0.01;
  ASSERT_TRUE(r.handle_write(t, Timestamp{7, 1}, 70));
  EXPECT_EQ(r.ts_regressions(), 0u);
  while (r.up(t)) t += 0.01;   // crash...
  while (!r.up(t)) t += 0.01;  // ...and recover with the state wiped
  EXPECT_TRUE(r.timestamp() == Timestamp{});
  EXPECT_TRUE(r.max_timestamp_seen() == (Timestamp{7, 1}));
  const auto read = r.handle_read(t);
  ASSERT_TRUE(read.has_value());
  EXPECT_TRUE(read->first == Timestamp{});
  EXPECT_EQ(r.ts_regressions(), 1u);
  ASSERT_TRUE(r.serve_read(0, t, t).has_value());  // served reads count too
  EXPECT_EQ(r.ts_regressions(), 2u);
  // State transfer back to the high-water mark ends the regression.
  r.adopt_state(Timestamp{7, 1}, 70);
  ASSERT_TRUE(r.handle_read(t).has_value());
  EXPECT_EQ(r.ts_regressions(), 2u);
}

TEST(Replica, KeepsOneCellPerObject) {
  // run_store_experiment addresses objects 0..k-1 in any order.
  const int k = 6;
  const auto ts_of = [](int object) {
    return Timestamp{static_cast<std::uint64_t>(object) + 1, 2};
  };
  const auto value_of = [](int object) {
    return 100 + static_cast<std::uint64_t>(object);
  };
  Replica r(0, never_failing_server(), Rng(9));
  for (int object = k - 1; object >= 0; --object)
    ASSERT_TRUE(r.handle_write(0.0, ts_of(object), value_of(object), object));
  for (int object = 0; object < k; ++object) {
    EXPECT_TRUE(r.timestamp(object) == ts_of(object));
    EXPECT_TRUE(r.max_timestamp_seen(object) == ts_of(object));
    const auto read = r.handle_read(0.0, object);
    ASSERT_TRUE(read.has_value());
    EXPECT_EQ(read->second, value_of(object));
    const auto served = r.serve_read(object, 0.0, 0.0);
    ASSERT_TRUE(served.has_value());
    EXPECT_EQ(served->cert, replica_cert(0, ts_of(object), value_of(object)));
  }
  EXPECT_TRUE(r.timestamp(k) == Timestamp{});  // never written
  EXPECT_EQ(r.value(k), 0u);
}

TEST(ReplyFold, EqualTimestampsAdoptTheFirstReplyInOrder) {
  std::vector<ReplySlot> replies(4);
  replies[1] = std::make_pair(Timestamp{3, 1}, std::uint64_t{10});
  replies[2] = std::make_pair(Timestamp{3, 1}, std::uint64_t{20});
  replies[3] = std::make_pair(Timestamp{2, 0}, std::uint64_t{30});
  const FoldResult forward =
      fold_replies(replies, std::vector<int>{1, 2, 3}, /*lie_tolerance=*/0);
  EXPECT_TRUE(forward.ok);
  EXPECT_TRUE(forward.ts == (Timestamp{3, 1}));
  EXPECT_EQ(forward.value, 10u);
  EXPECT_EQ(forward.index, 1);
  const FoldResult backward =
      fold_replies(replies, std::vector<int>{3, 2, 1}, 0);
  EXPECT_EQ(backward.value, 20u);
  EXPECT_EQ(backward.index, 2);
  // No written reply reached: the unwritten register, adopted from nobody.
  std::vector<ReplySlot> unwritten(2);
  unwritten[0] = std::make_pair(Timestamp{}, std::uint64_t{0});
  const FoldResult none = fold_replies(unwritten, std::vector<int>{0, 1}, 0);
  EXPECT_TRUE(none.ok);
  EXPECT_TRUE(none.ts == Timestamp{});
  EXPECT_EQ(none.index, -1);
}

TEST(ReplyFold, VoteNeedsBPlusOneIdenticalPairs) {
  std::vector<ReplySlot> replies(6);
  replies[0] = std::make_pair(Timestamp{9, 0}, std::uint64_t{99});  // a liar
  replies[1] = std::make_pair(Timestamp{3, 1}, std::uint64_t{10});
  replies[2] = std::make_pair(Timestamp{3, 1}, std::uint64_t{20});
  replies[3] = std::make_pair(Timestamp{3, 1}, std::uint64_t{10});
  replies[4] = std::make_pair(Timestamp{3, 1}, std::uint64_t{20});
  replies[5] = std::make_pair(Timestamp{2, 0}, std::uint64_t{7});
  const std::vector<int> order{0, 1, 2, 3, 4, 5};
  // b = 0 is the plain max fold: the lone liar wins.
  EXPECT_EQ(fold_replies(replies, order, 0).index, 0);
  // b = 1: two distinct pairs clear the vote at one timestamp; the first
  // voted reply in order wins.
  const FoldResult voted = fold_replies(replies, order, 1);
  EXPECT_TRUE(voted.ok);
  EXPECT_EQ(voted.value, 10u);
  EXPECT_EQ(voted.index, 1);
  EXPECT_EQ(fold_replies(replies, std::vector<int>{5, 4, 3, 2, 1, 0}, 1).value,
            20u);
  // b = 2 needs three identical pairs: none, so the op fails.
  EXPECT_FALSE(fold_replies(replies, order, 2).ok);
}

TEST(WriteSet, HoldsExactlyTheInsertedBindingsAcrossGrowth) {
  WriteSet set;
  EXPECT_FALSE(set.contains(Timestamp{1, 0}, 1));
  for (std::uint64_t i = 1; i <= 1000; ++i)
    set.insert(Timestamp{i, static_cast<int>(i % 7)}, i * 3);
  set.insert(Timestamp{5, 5}, 15);  // a duplicate is a no-op
  for (std::uint64_t i = 1; i <= 1000; ++i) {
    EXPECT_TRUE(set.contains(Timestamp{i, static_cast<int>(i % 7)}, i * 3));
    const int writer = static_cast<int>(i % 7);
    EXPECT_FALSE(set.contains(Timestamp{i, writer}, i * 3 + 1));
    EXPECT_FALSE(set.contains(Timestamp{i, writer + 7}, i * 3));
  }
}

// ---- end-to-end register experiments ----

RegisterExperimentConfig reliable_world() {
  RegisterExperimentConfig config;
  config.num_clients = 4;
  config.duration = 300.0;
  config.think_time = 0.5;
  config.network.link_mean_down = 1e-9;
  config.network.link_mean_up = 1e9;
  config.server.mean_down = 1e-9;
  config.server.mean_up = 1e9;
  return config;
}

TEST(RegisterExperiment, PerfectWorldIsFullyAvailableAndConsistent) {
  const OptDFamily fam(12, 2);
  const auto result = run_register_experiment(fam, reliable_world());
  EXPECT_GT(result.reads_attempted + result.writes_attempted, 500);
  EXPECT_DOUBLE_EQ(result.availability(), 1.0);
  EXPECT_EQ(result.stale_reads, 0);
  // OPT_d with everything up: exactly 2 alpha probes per acquisition.
  EXPECT_NEAR(result.probes_per_op.mean(), 4.0, 0.01);
}

TEST(RegisterExperiment, MajorityBaselinePerfectWorld) {
  const MajorityFamily fam(12);
  const auto result = run_register_experiment(fam, reliable_world());
  EXPECT_DOUBLE_EQ(result.availability(), 1.0);
  EXPECT_EQ(result.stale_reads, 0);
  EXPECT_NEAR(result.probes_per_op.mean(), 7.0, 0.01);
}

TEST(RegisterExperiment, SqsSurvivesMassServerFailure) {
  // 60% of servers down on average: majority is mostly dead, OPT_d hums.
  RegisterExperimentConfig config = reliable_world();
  config.duration = 400.0;
  config.server.mean_up = 4.0;
  config.server.mean_down = 6.0;  // p = 0.6

  const OptDFamily sqs_family(12, 2);
  const auto sqs_result = run_register_experiment(sqs_family, config);
  const MajorityFamily maj(12);
  const auto maj_result = run_register_experiment(maj, config);

  EXPECT_GT(sqs_result.availability(), 0.95);
  EXPECT_LT(maj_result.availability(), 0.35);
}

TEST(RegisterExperiment, FlakyLinksCauseFewStaleReadsAtHigherAlpha) {
  RegisterExperimentConfig config;
  config.num_clients = 6;
  config.duration = 1500.0;
  config.think_time = 0.3;
  config.server.mean_down = 1e-9;
  config.server.mean_up = 1e9;
  // Aggressively flaky links: ~9% of the time a link is down.
  config.network.link_mean_up = 10.0;
  config.network.link_mean_down = 1.0;

  const auto a1 = run_register_experiment(OptDFamily(12, 1), config);
  const auto a3 = run_register_experiment(OptDFamily(12, 3), config);
  EXPECT_GT(a1.reads_ok, 1000);
  EXPECT_GT(a3.reads_ok, 1000);
  // Higher alpha => quadratically fewer non-intersections => fewer stale
  // reads. (alpha=1 may still be small; require ordering with slack.)
  EXPECT_LE(a3.stale_read_fraction(), a1.stale_read_fraction() + 1e-9);
}

TEST(RegisterExperiment, CompositionFamilyWorksEndToEnd) {
  auto uq = std::make_shared<MajorityFamily>(7);
  const CompositionFamily comp(uq, 16, 2);
  RegisterExperimentConfig config = reliable_world();
  const auto result = run_register_experiment(comp, config);
  EXPECT_DOUBLE_EQ(result.availability(), 1.0);
  EXPECT_EQ(result.stale_reads, 0);
  // Fast path: majority of 7 = 4 probes.
  EXPECT_NEAR(result.probes_per_op.mean(), 4.0, 0.05);
}

TEST(RegisterExperiment, AmnesiaRecoveryBreaksConsistency) {
  // The guarantees assume crash (state-preserving) failures. With amnesia
  // recovery, rare writes + high churn + alpha=1 produce massive staleness.
  RegisterExperimentConfig config = reliable_world();
  config.duration = 800.0;
  config.read_fraction = 0.97;
  config.server.mean_down = 20.0;
  config.server.mean_up = 20.0 * 0.7 / 0.3;  // p = 0.3

  const OptDFamily fam(15, 1);
  config.server.amnesia_on_recovery = false;
  const auto crash_only = run_register_experiment(fam, config);
  config.server.amnesia_on_recovery = true;
  const auto amnesia = run_register_experiment(fam, config);

  EXPECT_GT(crash_only.reads_ok, 3000);
  // Crash churn alone already causes some staleness at alpha=1 (a reader
  // can land on servers that were down during the write); amnesia multiplies
  // it severalfold.
  EXPECT_GT(amnesia.stale_reads, 5 * crash_only.stale_reads)
      << "crash=" << crash_only.stale_reads
      << " amnesia=" << amnesia.stale_reads;
}

TEST(RegisterExperiment, LatencyPercentilesAreOrdered) {
  const OptDFamily fam(12, 2);
  RegisterExperimentConfig config = reliable_world();
  const auto r = run_register_experiment(fam, config);
  EXPECT_GT(r.latencies_ok.size(), 100u);
  EXPECT_LE(r.latency_percentile(50), r.latency_percentile(99) + 1e-12);
  EXPECT_GT(r.latency_percentile(50), 0.0);
}

TEST(RegisterExperiment, DeterministicAcrossRuns) {
  const OptDFamily fam(10, 2);
  RegisterExperimentConfig config = reliable_world();
  config.duration = 100.0;
  const auto r1 = run_register_experiment(fam, config);
  const auto r2 = run_register_experiment(fam, config);
  EXPECT_EQ(r1.reads_attempted, r2.reads_attempted);
  EXPECT_EQ(r1.writes_ok, r2.writes_ok);
  EXPECT_DOUBLE_EQ(r1.probes_per_op.mean(), r2.probes_per_op.mean());
}

}  // namespace
}  // namespace sqs
