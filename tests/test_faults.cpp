// Fault-injection engine: server/network override hooks, plan builders and
// application, self-healing clients (retries, adaptive timeouts, deadlines),
// and the bit-identical-at-any-thread-count acceptance criterion.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/constructions.h"
#include "faults/fault_plan.h"
#include "sim/harness.h"

namespace sqs {
namespace {

ServerConfig reliable_server() {
  ServerConfig config;
  config.mean_up = 1e9;
  config.mean_down = 1e-9;
  return config;
}

NetworkConfig reliable_network() {
  NetworkConfig config;
  config.link_mean_up = 1e9;
  config.link_mean_down = 1e-9;
  return config;
}

// ---- server overrides ----

TEST(Faults, ForceCrashPinsServerDownThenResumes) {
  Simulator sim;
  Replica server(0, reliable_server(), Rng(3));
  EXPECT_TRUE(server.up(sim.now()));
  server.force_crash(sim.now(), 5.0);
  EXPECT_FALSE(server.up(sim.now()));
  EXPECT_FALSE(server.handle_read(sim.now()).has_value());
  EXPECT_GT(server.dropped_requests(), 0u);
  sim.run_until(6.0);
  // The natural (reliable) process resumes control.
  EXPECT_TRUE(server.up(sim.now()));
}

TEST(Faults, ForceUpOverridesNaturalDownAndCrashBeatsPin) {
  Simulator sim;
  ServerConfig config;
  config.mean_up = 1e-9;  // stationary down with probability ~1
  config.mean_down = 1e9;
  Replica server(0, config, Rng(7));
  EXPECT_FALSE(server.up(sim.now()));
  server.force_up(sim.now(), 5.0);
  EXPECT_TRUE(server.up(sim.now()));
  // Crash wins while both overrides are active.
  server.force_crash(sim.now(), 2.0);
  EXPECT_FALSE(server.up(sim.now()));
  sim.run_until(3.0);
  EXPECT_TRUE(server.up(sim.now()));  // crash lapsed, pin still holds
  sim.run_until(6.0);
  // Both lapsed: the natural (down) state again.
  EXPECT_FALSE(server.up(sim.now()));
}

TEST(Faults, GrayWindowInflatesServiceTimeThenExpires) {
  Simulator sim;
  Replica server(0, reliable_server(), Rng(11));
  EXPECT_DOUBLE_EQ(server.service_time(sim.now()), 0.001);
  server.set_gray(100.0, sim.now(), 5.0);
  EXPECT_TRUE(server.gray_active(sim.now()));
  EXPECT_DOUBLE_EQ(server.service_time(sim.now()), 0.1);
  EXPECT_TRUE(server.up(sim.now()));  // gray, not down: still answers
  sim.run_until(6.0);
  EXPECT_FALSE(server.gray_active(sim.now()));
  EXPECT_DOUBLE_EQ(server.service_time(sim.now()), 0.001);
}

TEST(Faults, ServerTracksMaxTimestampAcrossAmnesia) {
  Simulator sim;
  ServerConfig config = reliable_server();
  Replica server(0, config, Rng(13));
  EXPECT_TRUE(server.handle_write(sim.now(), Timestamp{5, 1}, 50));
  EXPECT_EQ(server.max_timestamp_seen(), (Timestamp{5, 1}));
  // Reads at the high-water mark are not regressions.
  ASSERT_TRUE(server.handle_read(sim.now()).has_value());
  EXPECT_EQ(server.ts_regressions(), 0u);
}

// ---- network injections ----

TEST(Faults, ForcePartitionBlocksServerWideAndExtends) {
  Transport transport(3, 4, reliable_network(), Rng(17));
  transport.force_partition(1, 0.0, 5.0);
  for (int c = 0; c < 3; ++c) {
    EXPECT_FALSE(transport.link_up(c, 1, 0.0));
    EXPECT_TRUE(transport.link_up(c, 0, 0.0));  // other servers unaffected
  }
  // A shorter window must not shorten the first.
  transport.force_partition(1, 3.0, 1.0);
  EXPECT_FALSE(transport.link_up(0, 1, 4.5));
  EXPECT_TRUE(transport.link_up(0, 1, 6.0));
}

TEST(Faults, ForcePartitionOverlapsInFlightDownPeriod) {
  // Natural link state persists underneath a forced window: a link that is
  // naturally down when the window expires stays down, a healthy one
  // resumes service.
  NetworkConfig always_down;
  always_down.link_mean_up = 1e-9;
  always_down.link_mean_down = 1e9;  // in a ~forever down-period
  Transport dead(1, 2, always_down, Rng(19));
  dead.force_partition(0, 0.0, 5.0);
  EXPECT_FALSE(dead.link_up(0, 0, 0.0));
  // Forced window over, the natural down-period holds.
  EXPECT_FALSE(dead.link_up(0, 0, 6.0));

  Transport healthy(1, 2, reliable_network(), Rng(19));
  healthy.force_partition(0, 0.0, 5.0);
  EXPECT_FALSE(healthy.link_up(0, 0, 0.0));
  EXPECT_TRUE(healthy.link_up(0, 0, 6.0));  // natural up state resumes
}

TEST(Faults, LatencyBurstMultipliesDeliveryLatency) {
  NetworkConfig config = reliable_network();
  config.base_latency = 0.05;
  config.jitter_mean = 1e-9;
  Transport transport(1, 1, config, Rng(23));
  transport.inject_latency_burst(10.0, 0.0, 5.0);
  const Transport::Delivery first = transport.attempt(0, 0, 0.0);
  ASSERT_TRUE(first.delivered);
  EXPECT_NEAR(first.latency, 0.5, 0.01);  // 10x the base latency
  const Transport::Delivery second = transport.attempt(0, 0, 6.0);
  ASSERT_TRUE(second.delivered);
  EXPECT_NEAR(second.latency, 0.05, 0.01);  // burst expired
}

TEST(Faults, LossBurstDropsDeliverableMessages) {
  Transport transport(1, 1, reliable_network(), Rng(29));
  transport.inject_loss_burst(1.0, 0.0, 5.0);
  EXPECT_FALSE(transport.attempt(0, 0, 0.0).delivered);
  EXPECT_EQ(transport.messages_dropped(), 1u);
  EXPECT_TRUE(transport.attempt(0, 0, 6.0).delivered);
  EXPECT_EQ(transport.messages_delivered(), 1u);
}

// ---- plans ----

TEST(Faults, ChurnPlanRotatesRoundRobin) {
  const FaultPlan plan =
      make_churn_plan(/*num_servers=*/4, /*start=*/0.0, /*period=*/10.0,
                      /*group_size=*/2, /*outage=*/3.0, /*until=*/30.0);
  ASSERT_EQ(plan.events.size(), 6u);  // 3 waves x 2 servers
  EXPECT_EQ(plan.events[0].server, 0);
  EXPECT_EQ(plan.events[1].server, 1);
  EXPECT_EQ(plan.events[2].server, 2);
  EXPECT_EQ(plan.events[3].server, 3);
  EXPECT_EQ(plan.events[4].server, 0);  // wrapped around the fleet
  EXPECT_DOUBLE_EQ(plan.events[2].at, 10.0);
  EXPECT_TRUE(plan.validate(1, 4));
}

TEST(Faults, MassCrashPlanKeepsExactlyKeepUpPinned) {
  const FaultPlan plan = make_mass_crash_plan(6, 2, 10.0, 20.0);
  ASSERT_EQ(plan.events.size(), 6u);
  int crashes = 0, pins = 0;
  for (const FaultEvent& ev : plan.events) {
    if (ev.kind == FaultEvent::Kind::kServerCrash) ++crashes;
    if (ev.kind == FaultEvent::Kind::kServerPin) ++pins;
  }
  EXPECT_EQ(crashes, 4);
  EXPECT_EQ(pins, 2);
}

TEST(Faults, PlanValidateRejectsBadEvents) {
  testing::internal::CaptureStderr();
  FaultPlan plan;
  plan.crash(10.0, /*server=*/9, 5.0);          // out of range for n=4
  plan.client_partition(5.0, /*client=*/0, 2.0, /*fraction=*/1.5);
  plan.loss_burst(-1.0, 0.5, 2.0);              // negative time
  plan.gray(1.0, 0, /*factor=*/0.5, 2.0);       // gray factor < 1
  EXPECT_FALSE(plan.validate(/*num_clients=*/2, /*num_servers=*/4));
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("server index out of range"), std::string::npos);
  EXPECT_NE(err.find("partition fraction outside [0,1]"), std::string::npos);

  FaultPlan good = make_mass_crash_plan(4, 2, 0.0, 10.0);
  EXPECT_TRUE(good.validate(2, 4));
}

TEST(Faults, InstallPlanFiresAtAbsoluteTimes) {
  Simulator sim;
  Transport transport(1, 2, reliable_network(), Rng(31));
  std::vector<Replica> servers;
  servers.emplace_back(0, reliable_server(), Rng(32));
  servers.emplace_back(1, reliable_server(), Rng(33));
  FaultPlan plan;
  plan.crash(10.0, 0, 5.0);
  install_fault_plan(plan, &sim, &transport, &servers);
  sim.run_until(11.0);
  EXPECT_FALSE(servers[0].up(sim.now()));
  EXPECT_TRUE(servers[1].up(sim.now()));
  sim.run_until(16.0);
  EXPECT_TRUE(servers[0].up(sim.now()));
}

// ---- Byzantine lie windows ----

TEST(Faults, LieWindowCorruptsRepliesNotState) {
  Simulator sim;
  Replica server(/*id=*/2, reliable_server(), Rng(41));
  ASSERT_TRUE(server.handle_write(sim.now(), Timestamp{3, 0}, 77));
  server.set_lie(LieMode::kWrongValue, sim.now(), 5.0);
  const auto lied = server.handle_read(sim.now(), 0, /*client=*/0);
  ASSERT_TRUE(lied.has_value());
  EXPECT_TRUE(lied->first == fabricated_timestamp(2, Timestamp{3, 0}));
  EXPECT_EQ(lied->second, fabricated_value(2, Timestamp{3, 0}, 77));
  EXPECT_GE(lied->first.counter, kLieCounterBoost);  // boosted past any truth
  EXPECT_GT(server.lies_told(), 0u);
  // The stored cell is untouched, and the window expires cleanly.
  EXPECT_TRUE(server.timestamp() == (Timestamp{3, 0}));
  sim.run_until(6.0);
  const auto honest = server.handle_read(sim.now(), 0, 0);
  ASSERT_TRUE(honest.has_value());
  EXPECT_EQ(honest->second, 77u);
}

TEST(Faults, StaleTsLiePretendsUnwritten) {
  Simulator sim;
  Replica server(0, reliable_server(), Rng(42));
  ASSERT_TRUE(server.handle_write(sim.now(), Timestamp{9, 1}, 5));
  server.set_lie(LieMode::kStaleTs, sim.now(), 5.0);
  const auto r = server.handle_read(sim.now(), 0, 0);
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->first == Timestamp{});
  EXPECT_EQ(r->second, 0u);
}

TEST(Faults, EquivocationLiesOnlyToOddClients) {
  EXPECT_FALSE(lie_corrupts_read(LieMode::kEquivocate, 0));
  EXPECT_TRUE(lie_corrupts_read(LieMode::kEquivocate, 1));
  EXPECT_FALSE(lie_corrupts_read(LieMode::kEquivocate, 2));
  EXPECT_FALSE(lie_corrupts_read(LieMode::kEquivocate, -1));  // probes
  EXPECT_TRUE(lie_corrupts_read(LieMode::kWrongValue, 0));
  EXPECT_TRUE(lie_corrupts_read(LieMode::kWrongValue, -1));
  EXPECT_FALSE(lie_corrupts_read(LieMode::kFabricateAck, 1));  // writes only
}

TEST(Faults, FabricateAckDropsTheWriteOnTheFloor) {
  Simulator sim;
  Replica server(0, reliable_server(), Rng(43));
  server.set_lie(LieMode::kFabricateAck, sim.now(), 5.0);
  EXPECT_TRUE(server.handle_write(sim.now(), Timestamp{4, 0}, 11));  // acked...
  EXPECT_TRUE(server.timestamp() == Timestamp{});         // ...not applied
  EXPECT_GT(server.lies_told(), 0u);
}

TEST(Faults, FabricationsAreDistinctAcrossLiars) {
  // b colluding-looking liars must never be able to assemble b+1 matching
  // votes: each liar's fabricated (ts, value) pair is unique to it.
  const Timestamp truth{6, 2};
  for (int a = 0; a < 6; ++a)
    for (int c = a + 1; c < 6; ++c) {
      EXPECT_FALSE(fabricated_timestamp(a, truth) ==
                   fabricated_timestamp(c, truth));
      EXPECT_NE(fabricated_value(a, truth, 50), fabricated_value(c, truth, 50));
    }
}

TEST(Faults, ByzantinePlanShapeAndValidation) {
  const FaultPlan plan = make_byzantine_plan(9, 2, 1.0, 8.0);
  EXPECT_TRUE(plan.validate(/*num_clients=*/4, /*num_servers=*/9));
  bool pinned[2] = {false, false};
  bool saw_mode[4] = {false, false, false, false};
  for (const FaultEvent& e : plan.events) {
    if (e.kind == FaultEvent::Kind::kServerPin) {
      ASSERT_LT(e.server, 2);  // only the liars are pinned up
      pinned[e.server] = true;
      continue;
    }
    // Every other event is a lie window inside [start, start + duration).
    ASSERT_LT(e.server, 2);
    ASSERT_GE(e.at, 1.0);
    ASSERT_LE(e.at + e.duration, 1.0 + 8.0 + 1e-9);
    switch (e.kind) {
      case FaultEvent::Kind::kLieWrongValue: saw_mode[0] = true; break;
      case FaultEvent::Kind::kLieEquivocate: saw_mode[1] = true; break;
      case FaultEvent::Kind::kLieStaleTs: saw_mode[2] = true; break;
      case FaultEvent::Kind::kLieFabricateAck: saw_mode[3] = true; break;
      default: FAIL() << "unexpected event kind";
    }
  }
  EXPECT_TRUE(pinned[0] && pinned[1]);
  for (int m = 0; m < 4; ++m) EXPECT_TRUE(saw_mode[m]) << "mode " << m;

  // A liar index out of range is rejected like any other server field.
  FaultPlan bad;
  bad.lie(0.0, /*server=*/9, LieMode::kWrongValue, 1.0);
  testing::internal::CaptureStderr();
  EXPECT_FALSE(bad.validate(2, 4));
  testing::internal::GetCapturedStderr();
}

// ---- self-healing clients ----

RegisterExperimentConfig lossy_world() {
  RegisterExperimentConfig config;
  config.num_clients = 4;
  config.duration = 250.0;
  config.think_time = 0.5;
  config.network = reliable_network();
  config.server = reliable_server();
  // Long severe loss bursts: many acquisitions fail on first attempt.
  FaultPlan plan;
  for (double t = 10.0; t < 240.0; t += 20.0) plan.loss_burst(t, 0.6, 10.0);
  config.plan = std::move(plan);
  config.seed = 77;
  return config;
}

TEST(Faults, RetriesRideThroughLossBursts) {
  const OptDFamily family(8, 2);
  RegisterExperimentConfig single = lossy_world();
  single.client.max_attempts = 1;
  const auto r1 = run_register_experiment(family, single);

  RegisterExperimentConfig retrying = lossy_world();
  retrying.client.max_attempts = 4;
  retrying.client.backoff_base = 0.2;
  const auto r4 = run_register_experiment(family, retrying);

  EXPECT_GT(r4.client_retries, 0);
  EXPECT_GT(r4.availability(), r1.availability());
  EXPECT_GT(r1.net_dropped, 0u);  // the bursts really dropped messages
}

TEST(Faults, OpDeadlineBoundsLatencyAndReportsFailure) {
  // Every server pinned down for the whole run: each probe costs a full
  // timeout, so an unbounded OPT_d scan over 12 servers takes ~3 s. A 1 s
  // deadline must cut the operation off and mark it.
  Simulator sim;
  Transport transport(1, 12, reliable_network(), Rng(41));
  std::vector<Replica> servers;
  for (int i = 0; i < 12; ++i) {
    servers.emplace_back(i, reliable_server(),
                         Rng(100 + static_cast<std::uint64_t>(i)));
    servers.back().force_crash(sim.now(), 1e6);
  }
  const OptDFamily family(12, 2);
  ClientConfig config;
  config.max_attempts = 5;
  config.op_deadline = 1.0;
  SimClient client(&sim, &transport, &servers, 0, &family, config, Rng(43));
  AcquisitionResult result;
  bool done = false;
  client.acquire([&](AcquisitionResult r) {
    result = std::move(r);
    done = true;
  });
  sim.run();
  ASSERT_TRUE(done);
  EXPECT_FALSE(result.acquired);
  EXPECT_TRUE(result.deadline_exceeded);
  // Bounded by deadline + one in-flight probe timeout.
  EXPECT_LE(result.latency, 1.0 + 0.25 + 1e-9);
  EXPECT_GE(result.latency, 1.0 - 1e-9);
}

TEST(Faults, AdaptiveTimeoutLearnsFromReplies) {
  Simulator sim;
  NetworkConfig net_config = reliable_network();
  net_config.base_latency = 0.02;
  net_config.jitter_mean = 0.005;
  Transport transport(1, 8, net_config, Rng(47));
  std::vector<Replica> servers;
  for (int i = 0; i < 8; ++i)
    servers.emplace_back(i, reliable_server(),
                         Rng(200 + static_cast<std::uint64_t>(i)));
  const OptDFamily family(8, 2);
  ClientConfig config;
  config.adaptive_timeout = true;
  SimClient client(&sim, &transport, &servers, 0, &family, config, Rng(53));
  EXPECT_DOUBLE_EQ(client.current_probe_timeout(), 0.25);  // no samples yet
  bool done = false;
  client.acquire([&](AcquisitionResult r) {
    EXPECT_TRUE(r.acquired);
    done = true;
  });
  sim.run();
  ASSERT_TRUE(done);
  // Healthy round-trips are ~45 ms, so 4x the EWMA sits well under the
  // 250 ms default (and above the clamp floor).
  EXPECT_LT(client.current_probe_timeout(), 0.25);
  EXPECT_GE(client.current_probe_timeout(), 0.02);
}

// ---- config validation (satellite) ----

TEST(Faults, ConfigValidationRejectsBadValues) {
  testing::internal::CaptureStderr();
  NetworkConfig net;
  net.jitter_mean = 0.0;  // would make the exponential draw NaN
  EXPECT_FALSE(net.validate());

  ServerConfig server;
  server.mean_up = -1.0;
  EXPECT_FALSE(server.validate());

  ClientConfig client;
  client.max_attempts = 0;
  EXPECT_FALSE(client.validate());

  RegisterExperimentConfig experiment;
  experiment.read_fraction = 1.5;
  EXPECT_FALSE(experiment.validate(/*num_servers=*/8));
  testing::internal::GetCapturedStderr();

  EXPECT_TRUE(NetworkConfig{}.validate());
  EXPECT_TRUE(ServerConfig{}.validate());
  EXPECT_TRUE(ClientConfig{}.validate());
  EXPECT_TRUE(RegisterExperimentConfig{}.validate(/*num_servers=*/8));
}

TEST(Faults, InvalidExperimentConfigYieldsEmptyResult) {
  testing::internal::CaptureStderr();
  RegisterExperimentConfig config;
  config.duration = -5.0;
  const OptDFamily family(8, 2);
  const auto result = run_register_experiment(family, config);
  testing::internal::GetCapturedStderr();
  EXPECT_EQ(result.reads_attempted, 0);
  EXPECT_EQ(result.writes_attempted, 0);
  EXPECT_EQ(result.events_executed, 0u);
}

TEST(Faults, OutOfRangeFaultPlanYieldsEmptyResult) {
  // A fault naming server 99 of 8 is rejected before the world is built,
  // not applied to a replica that does not exist.
  testing::internal::CaptureStderr();
  RegisterExperimentConfig config;
  config.plan.crash(10.0, /*server=*/99, 5.0);
  const OptDFamily family(8, 2);
  const auto result = run_register_experiment(family, config);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("server index out of range"), std::string::npos) << err;
  EXPECT_EQ(result.reads_attempted, 0);
  EXPECT_EQ(result.writes_attempted, 0);
  EXPECT_EQ(result.events_executed, 0u);
}

// ---- determinism (acceptance criterion) ----

RegisterExperimentConfig chaos_like_world() {
  RegisterExperimentConfig config;
  config.num_clients = 4;
  config.duration = 150.0;
  config.think_time = 0.5;
  config.client.max_attempts = 3;
  config.client.adaptive_timeout = true;
  config.client.op_deadline = 10.0;
  FaultPlan plan = make_churn_plan(8, 10.0, 25.0, 2, 8.0, 140.0);
  for (double t = 15.0; t < 140.0; t += 40.0) plan.loss_burst(t, 0.3, 6.0);
  plan.latency_burst(60.0, 5.0, 10.0);
  config.plan = std::move(plan);
  config.seed = 4242;
  return config;
}

void expect_identical_results(const RegisterExperimentResult& a,
                              const RegisterExperimentResult& b) {
  EXPECT_EQ(a.reads_attempted, b.reads_attempted);
  EXPECT_EQ(a.reads_ok, b.reads_ok);
  EXPECT_EQ(a.writes_attempted, b.writes_attempted);
  EXPECT_EQ(a.writes_ok, b.writes_ok);
  EXPECT_EQ(a.stale_reads, b.stale_reads);
  EXPECT_EQ(a.ops_filtered, b.ops_filtered);
  EXPECT_EQ(a.client_retries, b.client_retries);
  EXPECT_EQ(a.deadline_failures, b.deadline_failures);
  EXPECT_EQ(a.server_ts_regressions, b.server_ts_regressions);
  EXPECT_EQ(a.read_ts_regressions, b.read_ts_regressions);
  EXPECT_EQ(a.lost_writes, b.lost_writes);
  EXPECT_EQ(a.net_delivered, b.net_delivered);
  EXPECT_EQ(a.net_dropped, b.net_dropped);
  EXPECT_EQ(a.server_dropped_requests, b.server_dropped_requests);
  EXPECT_EQ(a.events_executed, b.events_executed);
  // Bit-identical floating point, not approximate.
  EXPECT_EQ(a.probes_per_op.mean(), b.probes_per_op.mean());
  EXPECT_EQ(a.latency_ok.mean(), b.latency_ok.mean());
  EXPECT_EQ(a.latency_us.counts, b.latency_us.counts);
  EXPECT_EQ(a.latency_us.count, b.latency_us.count);
  EXPECT_EQ(a.latency_us.sum, b.latency_us.sum);
  EXPECT_EQ(a.latency_us.min, b.latency_us.min);
  EXPECT_EQ(a.latency_us.max, b.latency_us.max);
}

TEST(Faults, SamePlanAndSeedReproducesBitIdenticalRuns) {
  const OptDFamily family(8, 2);
  const auto a = run_register_experiment(family, chaos_like_world());
  const auto b = run_register_experiment(family, chaos_like_world());
  expect_identical_results(a, b);
  EXPECT_GT(a.client_retries, 0);  // the scenario actually exercises retries
}

TEST(Faults, ReplicatedRunsBitIdenticalAt1_2_8Threads) {
  const OptDFamily family(8, 2);
  const RegisterExperimentConfig config = chaos_like_world();
  constexpr int kReplicates = 6;
  TrialOptions t1, t2, t8;
  t1.threads = 1;
  t2.threads = 2;
  t8.threads = 8;
  const auto r1 =
      run_register_experiment_replicated(family, config, kReplicates, t1);
  const auto r2 =
      run_register_experiment_replicated(family, config, kReplicates, t2);
  const auto r8 =
      run_register_experiment_replicated(family, config, kReplicates, t8);
  ASSERT_EQ(r1.results.size(), static_cast<std::size_t>(kReplicates));
  ASSERT_EQ(r2.results.size(), static_cast<std::size_t>(kReplicates));
  ASSERT_EQ(r8.results.size(), static_cast<std::size_t>(kReplicates));
  for (int i = 0; i < kReplicates; ++i) {
    expect_identical_results(r1.results[static_cast<std::size_t>(i)],
                             r2.results[static_cast<std::size_t>(i)]);
    expect_identical_results(r1.results[static_cast<std::size_t>(i)],
                             r8.results[static_cast<std::size_t>(i)]);
  }
}

}  // namespace
}  // namespace sqs
