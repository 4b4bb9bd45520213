// Flight recorder and windowed timeline: op-id packing, ring wraparound,
// deterministic merged dumps (bit-identical at any thread count while no
// ring wrapped), op-id propagation through every ServiceRunner stage under
// a fault plan, the chaos black box, strict telemetry-flag parsing, and
// the "observability changes no served bit" contract.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/constructions.h"
#include "core/masking.h"
#include "faults/chaos.h"
#include "faults/churn.h"
#include "faults/family_spec.h"
#include "faults/scenario_io.h"
#include "obs/recorder.h"
#include "obs/telemetry.h"
#include "obs/timeline.h"
#include "service/load_gen.h"
#include "service/message.h"
#include "service/runner.h"

namespace sqs {
namespace {

// Enables the flight recorder (optionally with a small ring) for one test
// and restores the previous telemetry config — and clean, default-capacity
// rings — on exit, so tests compose in any gtest order.
class RecorderScope {
 public:
  explicit RecorderScope(std::uint64_t flight_events = 0)
      : saved_(obs::current_config()) {
    obs::TelemetryConfig tc = saved_;
    tc.recorder = true;
    tc.flight_events = flight_events;
    obs::configure(tc);
    obs::reset_flight_recorder();
  }
  ~RecorderScope() {
    obs::configure(saved_);
    obs::reset_flight_recorder();
  }

 private:
  obs::TelemetryConfig saved_;
};

using EventKey = std::tuple<std::uint32_t, std::uint64_t, std::uint64_t, int,
                            std::int32_t, std::uint64_t>;

std::vector<EventKey> event_keys(const std::vector<obs::FlightEvent>& events) {
  std::vector<EventKey> keys;
  keys.reserve(events.size());
  for (const obs::FlightEvent& e : events)
    keys.emplace_back(e.run, e.time_us, e.op, static_cast<int>(e.kind),
                      e.replica, e.payload);
  return keys;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

LoadGenConfig tiny_load() {
  LoadGenConfig load;
  load.rate = 500.0;
  load.duration = 2.0;  // 1000 ops
  load.num_clients = 16;
  load.seed = 7;
  return load;
}

ServiceConfig tiny_service() {
  ServiceConfig config;
  config.num_clients = 16;
  config.batch = 64;
  config.seed = 7;
  return config;
}

// --- op identity ------------------------------------------------------------

TEST(Recorder, OpIdPacksStreamAndSequence) {
  const obs::OpId op = obs::make_op_id(7, 99);
  EXPECT_EQ(obs::op_stream(op), 7u);
  EXPECT_EQ(obs::op_seq(op), 99u);
  // Extremes survive the packing; kNoOp is the all-ones id.
  EXPECT_EQ(obs::op_stream(obs::make_op_id(0xFFFF, (1ull << 48) - 1)), 0xFFFFu);
  EXPECT_EQ(obs::op_seq(obs::make_op_id(0xFFFF, (1ull << 48) - 1)),
            (1ull << 48) - 1);
  EXPECT_EQ(obs::make_op_id(0xFFFF, (1ull << 48) - 1), obs::kNoOp);
  EXPECT_NE(obs::make_op_id(obs::kServiceStream, 0), obs::kNoOp);
}

TEST(Recorder, ScopedOpAndRunScopeSaveAndRestore) {
  EXPECT_EQ(obs::current_op(), obs::kNoOp);
  {
    obs::ScopedOp outer(obs::make_op_id(1, 5));
    EXPECT_EQ(obs::current_op(), obs::make_op_id(1, 5));
    {
      obs::ScopedOp inner(obs::make_op_id(2, 6));
      EXPECT_EQ(obs::current_op(), obs::make_op_id(2, 6));
    }
    EXPECT_EQ(obs::current_op(), obs::make_op_id(1, 5));
  }
  EXPECT_EQ(obs::current_op(), obs::kNoOp);

  const std::uint32_t before = obs::current_flight_run();
  {
    obs::FlightRunScope run(42);
    EXPECT_EQ(obs::current_flight_run(), 42u);
  }
  EXPECT_EQ(obs::current_flight_run(), before);
}

// --- ring behaviour ---------------------------------------------------------

TEST(Recorder, DisabledRecorderRecordsNothing) {
  // Enable-then-disable leaves clean rings around; flight() must then be a
  // no-op (the single-branch fast path).
  RecorderScope scope;
  obs::TelemetryConfig off = obs::current_config();
  off.recorder = false;
  obs::configure(off);
  obs::flight(obs::FlightKind::kArrival, obs::make_op_id(1, 1), 100);
  EXPECT_EQ(obs::flight_recorder_stats().recorded, 0u);
  EXPECT_TRUE(obs::collect_flight_events().empty());
}

TEST(Recorder, CollectedEventsAreSortedByFullKey) {
  RecorderScope scope;
  // Record out of time order from one thread; collect() must sort.
  obs::flight(obs::FlightKind::kOpDone, obs::make_op_id(1, 2), 300);
  obs::flight(obs::FlightKind::kArrival, obs::make_op_id(1, 1), 100);
  obs::flight(obs::FlightKind::kProbe, obs::make_op_id(1, 1), 200, 3, 50);
  // Equal-time events of one op sort in FlightKind (causal pipeline) order.
  obs::flight(obs::FlightKind::kOpDone, obs::make_op_id(1, 3), 400);
  obs::flight(obs::FlightKind::kArrival, obs::make_op_id(1, 3), 400);

  const std::vector<obs::FlightEvent> events = obs::collect_flight_events();
  ASSERT_EQ(events.size(), 5u);
  for (std::size_t i = 1; i < events.size(); ++i)
    EXPECT_LE(events[i - 1].time_us, events[i].time_us);
  EXPECT_EQ(events[0].kind, obs::FlightKind::kArrival);
  EXPECT_EQ(events[3].kind, obs::FlightKind::kArrival);  // t=400 pair ordered
  EXPECT_EQ(events[4].kind, obs::FlightKind::kOpDone);
  EXPECT_EQ(obs::flight_recorder_stats().recorded, 5u);
  EXPECT_EQ(obs::flight_recorder_stats().overwritten, 0u);
}

TEST(Recorder, WraparoundKeepsTheMostRecentWindow) {
  RecorderScope scope(/*flight_events=*/64);
  for (std::uint64_t t = 0; t < 100; ++t)
    obs::flight(obs::FlightKind::kArrival, obs::make_op_id(1, t), t);

  const obs::FlightRecorderStats stats = obs::flight_recorder_stats();
  EXPECT_EQ(stats.recorded, 100u);
  EXPECT_EQ(stats.overwritten, 36u);

  const std::vector<obs::FlightEvent> events = obs::collect_flight_events();
  ASSERT_EQ(events.size(), 64u);
  // The oldest 36 events were overwritten; the retained window is 36..99.
  EXPECT_EQ(events.front().time_us, 36u);
  EXPECT_EQ(events.back().time_us, 99u);
}

TEST(Recorder, EmptyDumpIsWellFormedJsonl) {
  RecorderScope scope;
  const std::string path = testing::TempDir() + "sqs_empty_dump.jsonl";
  ASSERT_TRUE(obs::write_flight_recorder(path, "test: empty"));
  const std::string text = read_file(path);
  // Exactly the meta line: reason + zero events, one trailing newline.
  EXPECT_NE(text.find("\"flight_recorder\""), std::string::npos);
  EXPECT_NE(text.find("\"reason\":\"test: empty\""), std::string::npos);
  EXPECT_NE(text.find("\"events\":0"), std::string::npos);
  EXPECT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 1);
  EXPECT_EQ(obs::flight_recorder_stats().dumps, 1u);
}

// --- determinism across thread counts ---------------------------------------

TEST(Recorder, ServeDumpBitIdenticalAcrossThreadCounts) {
  const OptDFamily family(12, 2);
  const std::vector<std::uint8_t> requests = generate_load(tiny_load());

  RecorderScope scope;
  std::vector<EventKey> first;
  bool have_first = false;
  for (const int threads : {1, 2, 8}) {
    obs::reset_flight_recorder();
    ServiceConfig config = tiny_service();
    config.threads = threads;
    ServiceRunner runner(family, config);
    runner.serve(requests);
    const obs::FlightRecorderStats stats = obs::flight_recorder_stats();
    ASSERT_GT(stats.recorded, 0u);
    // The bit-identity contract only holds while no ring wrapped; the tiny
    // workload is far below the default per-thread capacity.
    ASSERT_EQ(stats.overwritten, 0u);
    const std::vector<EventKey> keys = event_keys(obs::collect_flight_events());
    if (!have_first) {
      first = keys;
      have_first = true;
      continue;
    }
    EXPECT_EQ(keys, first) << "threads=" << threads;
  }
}

TEST(Recorder, OpIdPropagatesThroughAllStagesUnderPartition) {
  const OptDFamily family(12, 2);
  RecorderScope scope;

  // Generated with the recorder on so kGenerated events land in the rings;
  // the partition fault plan exercises kFault and probe misses.
  const std::vector<std::uint8_t> requests = generate_load(tiny_load());
  ServiceConfig config = tiny_service();
  config.plan.server_partition(0.5, 0, 1.0);
  ServiceRunner runner(family, config);
  const ServiceResult result = runner.serve(requests);
  EXPECT_EQ(result.lost_acked_writes, 0u);

  const std::vector<obs::FlightEvent> events = obs::collect_flight_events();
  const std::uint64_t n = tiny_load().total_ops();

  std::uint64_t generated = 0, decoded = 0, arrivals = 0, done = 0,
                encoded = 0, probes = 0, faults = 0;
  std::vector<std::uint8_t> stages(static_cast<std::size_t>(n), 0);
  for (const obs::FlightEvent& e : events) {
    if (e.kind == obs::FlightKind::kFault) {
      ++faults;
      EXPECT_EQ(e.op, obs::kNoOp);
      continue;
    }
    if (e.op == obs::kNoOp) continue;
    EXPECT_EQ(obs::op_stream(e.op), obs::kServiceStream);
    const std::uint64_t seq = obs::op_seq(e.op);
    ASSERT_LT(seq, n);
    std::uint8_t& mask = stages[static_cast<std::size_t>(seq)];
    switch (e.kind) {
      case obs::FlightKind::kGenerated: ++generated; mask |= 1; break;
      case obs::FlightKind::kDecoded: ++decoded; mask |= 2; break;
      case obs::FlightKind::kArrival: ++arrivals; mask |= 4; break;
      case obs::FlightKind::kOpDone: ++done; mask |= 8; break;
      case obs::FlightKind::kEncoded: ++encoded; mask |= 16; break;
      case obs::FlightKind::kProbe:
      case obs::FlightKind::kProbeMiss:
        ++probes;
        EXPECT_GE(e.replica, 0);
        break;
      default: break;
    }
  }
  // Every op is visible in all three runner stages (prologue, solo,
  // epilogue) plus load gen, under the same op id.
  EXPECT_EQ(generated, n);
  EXPECT_EQ(decoded, n);
  EXPECT_EQ(arrivals, n);
  EXPECT_EQ(done, n);
  EXPECT_EQ(encoded, n);
  for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i)
    EXPECT_EQ(stages[i], 31) << "op " << i << " missing a stage";
  EXPECT_GT(probes, 0u);
  EXPECT_GT(faults, 0u);  // the partition start/stop events
}

TEST(Recorder, ServedProbeMissRecordsTheTimeSpent) {
  // Replica 0 — OPT_d's first probe — lies, so its replies arrive in time
  // but fail cert verification. Such a miss costs the op its round trip,
  // not the probe timeout, and the kProbeMiss payload says so; no miss can
  // take longer than the timeout.
  const OptDFamily family(12, 2);
  RecorderScope scope;
  ServiceConfig config = tiny_service();
  config.plan = make_byzantine_plan(12, 1, 0.5, 1.0);
  ServiceRunner runner(family, config);
  const ServiceResult result = runner.serve(generate_load(tiny_load()));
  ASSERT_GT(result.cert_rejects, 0u);

  const std::uint64_t timeout_us = obs::to_us(config.probe_timeout);
  std::uint64_t misses = 0, short_misses = 0;
  for (const obs::FlightEvent& e : obs::collect_flight_events()) {
    if (e.kind != obs::FlightKind::kProbeMiss) continue;
    ++misses;
    EXPECT_LE(e.payload, timeout_us);
    if (e.payload < timeout_us) ++short_misses;
  }
  EXPECT_GT(misses, 0u);
  EXPECT_GT(short_misses, 0u);
}

TEST(Recorder, ServedStaleViewForeverNamesTheRetiredReplica) {
  // The served twin of the chaos designed-to-fail cell: the runner never
  // refreshes its view and replaced replicas keep serving, so reads adopt
  // state from retired replicas. Each such read must be counted and its
  // kRetiredRead event must name the retired replica it adopted.
  ChaosScenario scenario;
  std::string error;
  ASSERT_TRUE(load_chaos_scenario(
      std::string(SQS_SOURCE_DIR) + "/scenarios/stale_view_forever.json",
      &scenario, &error))
      << error;
  const auto family = scenario.family.make();
  ASSERT_NE(family, nullptr);
  ServiceConfig config;
  config.network = scenario.config.network;
  config.server = scenario.config.server;
  config.policy = scenario.config.client.policy;
  config.plan = scenario.config.plan;
  config.epochs = build_epoch_schedule(
      scenario.churn, family_factory(scenario.family), family->universe_size());
  ASSERT_NE(config.epochs, nullptr);
  config.num_clients = scenario.config.num_clients;
  config.probe_timeout = scenario.config.client.probe_timeout;
  config.seed = scenario.config.seed;
  LoadGenConfig load;
  load.rate = 50.0;
  load.duration = scenario.config.duration;
  load.read_fraction = scenario.config.read_fraction;
  load.num_clients = scenario.config.num_clients;
  load.seed = scenario.config.seed;

  RecorderScope scope;
  ServiceRunner runner(*family, config);
  const ServiceResult r = runner.serve(generate_load(load));
  EXPECT_GT(r.retired_reads, 0u);
  EXPECT_EQ(r.view_refreshes, 0u);
  std::uint64_t named = 0;
  for (const obs::FlightEvent& e : obs::collect_flight_events()) {
    if (e.kind != obs::FlightKind::kRetiredRead) continue;
    ++named;
    ASSERT_GE(e.replica, 0);
    ASSERT_LT(e.replica, runner.num_servers());
    EXPECT_TRUE(runner.replica(e.replica).retired()) << e.replica;
  }
  EXPECT_GT(named, 0u);
}

TEST(Recorder, ServedRefetchIsStampedWhenTheFetchedViewArrives) {
  // A rolling replacement behind a partition: the runner's view goes stale
  // at each boundary, a probe to the retired replica is fenced, and an
  // attempt that fails with that evidence (or a newer epoch stamp)
  // refetches the view (refetch_view) and probes again. Its kViewRefresh
  // is stamped when the fetched view arrives: view_fetch_delay after the
  // attempt's last probe resolved, and exactly when the op's next attempt
  // sends its first probe.
  FamilySpec spec;
  spec.kind = "majority";
  spec.n = 12;
  spec.alpha = 2;
  const auto family = spec.make();
  ASSERT_NE(family, nullptr);
  ServiceConfig config = tiny_service();
  config.epochs = build_epoch_schedule(make_replace_churn(0.5, 0.5, 2),
                                       family_factory(spec), spec.n);
  ASSERT_NE(config.epochs, nullptr);
  // Six partitioned servers leave the first op past a boundary at most
  // six of its stale view's twelve, short of a quorum of seven, so its
  // attempt fails with the staleness in hand and refetches the view.
  for (int server = 6; server < 12; ++server)
    config.plan.server_partition(0.4, server, 5.0);
  const std::uint64_t delay_us = obs::to_us(config.policy.view_fetch_delay);

  RecorderScope scope;
  ServiceRunner runner(*family, config);
  const ServiceResult r = runner.serve(generate_load(tiny_load()));
  EXPECT_GT(r.epoch_rejects, 0u);
  ASSERT_EQ(obs::flight_recorder_stats().overwritten, 0u);

  std::map<obs::OpId, std::vector<obs::FlightEvent>> ops;
  for (const obs::FlightEvent& e : obs::collect_flight_events())
    if (e.op != obs::kNoOp) ops[e.op].push_back(e);
  const auto is_probe = [](const obs::FlightEvent& e) {
    return e.kind == obs::FlightKind::kProbe ||
           e.kind == obs::FlightKind::kProbeMiss ||
           e.kind == obs::FlightKind::kEpochFenced;
  };
  std::uint64_t refetches = 0, fenced = 0, timed_ends = 0;
  for (const auto& [op, events] : ops) {
    for (std::size_t i = 0; i < events.size(); ++i) {
      const obs::FlightEvent& refresh = events[i];
      if (refresh.kind != obs::FlightKind::kViewRefresh) continue;
      // The attempt's probes were all sent before the refresh, the next
      // attempt's at or after it; a refresh after the op's last probe is
      // the post-op one of finish_acquisition.
      const obs::FlightEvent* last = nullptr;
      const obs::FlightEvent* next = nullptr;
      for (const obs::FlightEvent& e : events) {
        if (!is_probe(e)) continue;
        if (e.time_us < refresh.time_us) {
          if (last == nullptr || e.time_us >= last->time_us) last = &e;
        } else if (next == nullptr || e.time_us < next->time_us) {
          next = &e;
        }
      }
      if (next == nullptr) continue;
      ++refetches;
      ASSERT_NE(last, nullptr);
      for (const obs::FlightEvent& e : events)
        if (e.kind == obs::FlightKind::kEpochFenced &&
            e.time_us < refresh.time_us) {
          ++fenced;
          break;
        }
      EXPECT_EQ(next->time_us, refresh.time_us) << "op " << op;
      EXPECT_GE(refresh.time_us, last->time_us + delay_us) << "op " << op;
      // A reply's or a miss's payload is the time the probe took (a
      // fence's is the replica's epoch), so the attempt's end is known
      // there, to the microsecond rounding of each term.
      if (last->kind == obs::FlightKind::kEpochFenced) continue;
      ++timed_ends;
      const std::uint64_t end_plus_delay =
          last->time_us + last->payload + delay_us;
      EXPECT_LE(refresh.time_us, end_plus_delay + 1) << "op " << op;
      EXPECT_GE(refresh.time_us + 1, end_plus_delay) << "op " << op;
    }
  }
  EXPECT_GT(refetches, 0u);
  EXPECT_GT(fenced, 0u);
  EXPECT_GT(timed_ends, 0u);
}

TEST(Recorder, ServedViolationMarkedOnlyByTheViolatingCall) {
  // Replica 0 (OPT_d's first probe) lies over [0.5, 1.0) and certificates
  // go unchecked, so the first call's reads adopt fabrications. The second
  // call arrives after the window: it adds no violation, so it must not
  // mark one again.
  const OptDFamily family(12, 2);
  ServiceConfig config = tiny_service();
  config.verify_replica_certs = false;
  config.plan.lie(0.5, 0, LieMode::kWrongValue, 0.5);
  LoadGenConfig load = tiny_load();
  load.duration = 4.0;
  const std::vector<std::uint8_t> requests = generate_load(load);
  std::size_t split = 0;  // first record arriving at or after 2 s
  while (split * kRequestWireSize < requests.size() &&
         decode_request(requests.data() + split * kRequestWireSize)
                 .arrival_us < 2000000)
    ++split;
  const auto cut = requests.begin() +
                   static_cast<std::ptrdiff_t>(split * kRequestWireSize);
  const std::vector<std::uint8_t> first(requests.begin(), cut);
  const std::vector<std::uint8_t> second(cut, requests.end());
  ASSERT_FALSE(first.empty());
  ASSERT_FALSE(second.empty());

  RecorderScope scope;
  ServiceRunner runner(family, config);
  const ServiceResult once = runner.serve(first);
  const ServiceResult twice = runner.serve(second);
  ASSERT_GT(once.fabricated_reads, 0u);
  EXPECT_EQ(twice.fabricated_reads, once.fabricated_reads);
  EXPECT_EQ(twice.lost_acked_writes, 0u);
  std::uint64_t violations = 0;
  for (const obs::FlightEvent& e : obs::collect_flight_events())
    if (e.kind == obs::FlightKind::kViolation) ++violations;
  EXPECT_EQ(violations, 1u);
}

// --- the chaos black box ----------------------------------------------------

TEST(Recorder, ChaosViolationWritesBlackBox) {
  const OptDFamily family(12, 2);
  RecorderScope scope;
  auto scenarios = builtin_chaos_scenarios(family);
  ASSERT_FALSE(scenarios.empty());
  ChaosScenario impossible = scenarios.front();
  impossible.invariants.availability_floor = 1.1;  // unreachable on purpose

  const std::string path = testing::TempDir() + "sqs_chaos_blackbox.jsonl";
  const auto results =
      run_chaos(family, {impossible}, /*replicates=*/1, {}, path);
  ASSERT_EQ(results.size(), 1u);
  ASSERT_FALSE(results[0].passed());

  const std::string text = read_file(path);
  ASSERT_FALSE(text.empty());
  // Meta line names the scenario and the tripped invariant...
  EXPECT_NE(text.find("\"flight_recorder\""), std::string::npos);
  EXPECT_NE(text.find("availability-floor"), std::string::npos);
  EXPECT_NE(text.find(impossible.name), std::string::npos);
  // ...and the dump carries per-op causal events from the replicates.
  EXPECT_NE(text.find("\"kind\":\"arrival\""), std::string::npos);
  EXPECT_NE(text.find("\"kind\":\"op_done\""), std::string::npos);
  EXPECT_EQ(obs::flight_recorder_stats().dumps, 1u);
}

// --- the pinned flight streams ----------------------------------------------
//
// FNV-1a over every collected flight event's (kind, op, time, replica,
// payload), in the merged dump's order. The simulated client and the served
// runner record every probe, fence, view refresh, verdict and push they
// make, so a digest that holds proves both callers still make the same
// protocol decisions at the same virtual times. The constants were taken
// before the two callers shared one acquisition machine.

struct FlightDigest {
  std::uint64_t digest = 0xCBF29CE484222325ull;
  std::uint64_t events = 0;
  std::map<obs::FlightKind, std::uint64_t> kinds;
};

FlightDigest digest_flight_events() {
  FlightDigest out;
  const auto fold = [&out](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      out.digest ^= (v >> (8 * byte)) & 0xFFu;
      out.digest *= 0x100000001B3ull;
    }
  };
  for (const obs::FlightEvent& e : obs::collect_flight_events()) {
    fold(static_cast<std::uint64_t>(e.kind));
    fold(e.op);
    fold(e.time_us);
    fold(static_cast<std::uint64_t>(static_cast<std::int64_t>(e.replica)));
    fold(e.payload);
    ++out.events;
    ++out.kinds[e.kind];
  }
  EXPECT_EQ(obs::flight_recorder_stats().overwritten, 0u);
  return out;
}

TEST(Recorder, ServedFlightStreamIsPinned) {
  // Masking majority(12, b = 1) under a rolling replacement (the runner's
  // view goes stale at each boundary and refreshes on a fence or a newer
  // epoch stamp), a partition of four servers that fails some quorums and
  // a lying replica, served with and without certificate checks so the
  // masking vote sees the lies.
  FamilySpec spec;
  spec.kind = "masking-majority";
  spec.n = 12;
  spec.b = 1;
  const auto family = spec.make();
  ASSERT_NE(family, nullptr);
  ServiceConfig config = tiny_service();
  config.policy.lie_tolerance = 1;
  config.epochs = build_epoch_schedule(make_replace_churn(0.5, 0.5, 2),
                                       family_factory(spec), spec.n);
  ASSERT_NE(config.epochs, nullptr);
  for (int server = 6; server < 10; ++server)
    config.plan.server_partition(0.4, server, 0.8);
  config.plan.lie(0.2, 5, LieMode::kWrongValue, 1.5);
  const std::vector<std::uint8_t> requests = generate_load(tiny_load());

  RecorderScope scope;
  const struct {
    bool verify;
    std::uint64_t digest;
    std::uint64_t events;
  } runs[] = {{true, 0x47ED3634C18B66B3ull, 16705},
              {false, 0xA8B856BACD23A633ull, 16264}};
  for (const auto& run : runs) {
    obs::reset_flight_recorder();
    config.verify_replica_certs = run.verify;
    ServiceRunner runner(*family, config);
    const ServiceResult r = runner.serve(requests);
    EXPECT_GT(r.view_refreshes, 0u);
    EXPECT_GT(r.epoch_rejects, 0u);
    EXPECT_EQ(r.fabricated_reads, 0u);  // the vote or the certs caught it
    const FlightDigest d = digest_flight_events();
    for (const obs::FlightKind kind :
         {obs::FlightKind::kProbe, obs::FlightKind::kProbeMiss,
          obs::FlightKind::kEpochFenced, obs::FlightKind::kViewRefresh,
          obs::FlightKind::kWriteAck, obs::FlightKind::kWriteNack})
      EXPECT_GT(d.kinds.count(kind), 0u) << obs::flight_kind_name(kind);
    if (run.verify) {
      // The liar's rejected replies cost the partitioned fleet its quorum.
      EXPECT_GT(r.cert_rejects, 0u);
      EXPECT_GT(d.kinds.count(obs::FlightKind::kQuorumFailed), 0u);
    }
    EXPECT_EQ(d.digest, run.digest) << "verify=" << run.verify;
    EXPECT_EQ(d.events, run.events) << "verify=" << run.verify;
  }
}

TEST(Recorder, ChaosFlightStreamIsPinned) {
  // The chaos cells that reach every branch the simulated client keeps for
  // itself: retries and backoff (lossy_bursts), a deadline that fires
  // (lossy_bursts with a 0.6 s budget), the partition filter
  // (partition_storm), the adaptive timeout (gray_servers), read repair
  // (baseline with repair on), plus the masking vote (byzantine) and stale
  // views (churn_replace). One replicate on one thread, one cell at a time.
  const OptDFamily optd(12, 2);
  std::vector<ChaosScenario> cells;
  for (ChaosScenario& s : builtin_chaos_scenarios(optd)) {
    if (s.name == "baseline") {
      s.name = "read_repair";
      s.config.client.read_repair = true;
      cells.push_back(s);
    } else if (s.name == "lossy_bursts") {
      cells.push_back(s);
      s.name = "tight_deadline";
      s.config.client.op_deadline = 0.6;
      cells.push_back(s);
    } else if (s.name == "partition_storm" || s.name == "gray_servers") {
      cells.push_back(s);
    }
  }
  const MaskingThresholdFamily masking(12, 1);
  cells.push_back(byzantine_chaos_scenario(masking, 1));
  cells.back().family.kind = "masking-majority";
  cells.back().family.n = 12;
  cells.back().family.b = 1;
  FamilySpec churn;
  churn.kind = "majority";
  churn.n = 12;
  churn.alpha = 2;
  cells.push_back(churn_replace_chaos_scenario(churn));

  const struct {
    const char* scenario;
    obs::FlightKind must_see;
    std::uint64_t digest;
    std::uint64_t events;
  } expected[] = {
      {"read_repair", obs::FlightKind::kQuorumAcquired,
       0xB0BBB54526CA69E2ull, 25762},
      {"gray_servers", obs::FlightKind::kProbeMiss,
       0xCBAB96BE3E67CA27ull, 18506},
      {"partition_storm", obs::FlightKind::kFiltered,
       0xC98DFC649E5AB2A0ull, 26062},
      {"lossy_bursts", obs::FlightKind::kRetry,
       0x73EC2B2787089898ull, 20020},
      {"tight_deadline", obs::FlightKind::kDeadline,
       0xAADC4CC777A2BB31ull, 20834},
      {"byzantine", obs::FlightKind::kQuorumAcquired,
       0x090038A681EFD7D8ull, 32661},
      {"churn_replace", obs::FlightKind::kEpochFenced,
       0x190639C552DA5BC5ull, 32246},
  };
  ASSERT_EQ(cells.size(), std::size(expected));
  RecorderScope scope;
  TrialOptions one_thread;
  one_thread.threads = 1;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    obs::reset_flight_recorder();
    ASSERT_EQ(cells[i].name, expected[i].scenario);
    run_chaos(optd, {cells[i]}, /*replicates=*/1, one_thread);
    const FlightDigest d = digest_flight_events();
    EXPECT_GT(d.kinds.count(expected[i].must_see), 0u) << cells[i].name;
    EXPECT_EQ(d.digest, expected[i].digest) << cells[i].name;
    EXPECT_EQ(d.events, expected[i].events) << cells[i].name;
  }
}

// --- strict flag parsing ----------------------------------------------------

TEST(Recorder, ParseFlagU64AcceptsFullStringIntegersInRange) {
  EXPECT_EQ(obs::parse_flag_u64("--x", "64", 64, 1 << 20), 64u);
  EXPECT_EQ(obs::parse_flag_u64("--x", "1048576", 64, 1 << 20), 1u << 20);
}

TEST(Recorder, ParseFlagU64RejectsGarbage) {
  EXPECT_EQ(obs::parse_flag_u64("--x", "12abc", 1, 100), 0u);  // trailing junk
  EXPECT_EQ(obs::parse_flag_u64("--x", "abc", 1, 100), 0u);
  EXPECT_EQ(obs::parse_flag_u64("--x", "", 1, 100), 0u);
  EXPECT_EQ(obs::parse_flag_u64("--x", "-5", 1, 100), 0u);    // negative
  EXPECT_EQ(obs::parse_flag_u64("--x", "0", 1, 100), 0u);     // below lo
  EXPECT_EQ(obs::parse_flag_u64("--x", "101", 1, 100), 0u);   // above hi
  EXPECT_EQ(obs::parse_flag_u64("--x", "1e3", 1, 10000), 0u);  // no floats
}

// --- the windowed timeline --------------------------------------------------

TEST(Timeline, DefaultConstructedIsDisabled) {
  obs::Timeline timeline;
  EXPECT_FALSE(timeline.enabled());
  timeline.record_op(100, true, true, 10, 2, 0, 0);
  EXPECT_TRUE(timeline.windows().empty());
}

TEST(Timeline, AggregatesWindowsAndMaterializesGaps) {
  obs::Timeline timeline(1000, {10, 100, 1000});
  timeline.record_op(100, true, true, 50, 2, 7, 0);     // window 0
  timeline.record_op(900, false, false, 500, 4, 3, 1);  // window 0
  timeline.record_op(3500, true, true, 5, 1, 0, 0);     // window 3

  const auto& windows = timeline.windows();
  ASSERT_EQ(windows.size(), 4u);
  EXPECT_EQ(windows[0].start_us, 0u);
  EXPECT_EQ(windows[0].ops, 2u);
  EXPECT_EQ(windows[0].ok, 1u);
  EXPECT_EQ(windows[0].reads, 1u);
  EXPECT_EQ(windows[0].writes, 1u);
  EXPECT_EQ(windows[0].probes, 6u);
  EXPECT_EQ(windows[0].replica_drops, 1u);
  EXPECT_EQ(windows[0].queue_max_us, 7u);
  EXPECT_EQ(windows[0].latency.min, 50u);
  EXPECT_EQ(windows[0].latency.max, 500u);
  // Gap windows exist and are empty, so the series has no holes.
  EXPECT_EQ(windows[1].ops, 0u);
  EXPECT_EQ(windows[2].ops, 0u);
  EXPECT_EQ(windows[3].start_us, 3000u);
  EXPECT_EQ(windows[3].ops, 1u);
  // The per-window quantile runs through the shared histogram math.
  EXPECT_GT(timeline.window_quantile(windows[0], 0.99), 0.0);
  EXPECT_EQ(timeline.window_quantile(windows[1], 0.99), 0.0);
}

TEST(Timeline, JsonlCarriesTheDocumentedSchema) {
  obs::Timeline timeline(1000, {10, 100});
  timeline.record_op(100, true, true, 50, 2, 7, 0);
  std::string out;
  timeline.append_jsonl(out);
  for (const char* key :
       {"\"t_us\"", "\"window_us\"", "\"ops\"", "\"ok\"", "\"reads\"",
        "\"writes\"", "\"throughput_ops_per_s\"", "\"p50_us\"", "\"p99_us\"",
        "\"max_us\"", "\"queue_max_us\"", "\"probes\"", "\"replica_drops\""})
    EXPECT_NE(out.find(key), std::string::npos) << key;
  EXPECT_EQ(out.find("\"rate\""), std::string::npos);

  std::string labeled;
  timeline.append_jsonl(labeled, "rate", 750.0);
  EXPECT_NE(labeled.find("\"rate\""), std::string::npos);
}

TEST(Timeline, ServeSeriesBitIdenticalAcrossThreadCounts) {
  const OptDFamily family(12, 2);
  const std::vector<std::uint8_t> requests = generate_load(tiny_load());
  std::string first;
  bool have_first = false;
  for (const int threads : {1, 2, 8}) {
    ServiceConfig config = tiny_service();
    config.threads = threads;
    config.timeline_window_us = 250000;
    ServiceRunner runner(family, config);
    runner.serve(requests);
    ASSERT_TRUE(runner.timeline().enabled());
    ASSERT_FALSE(runner.timeline().windows().empty());
    std::string out;
    runner.timeline().append_jsonl(out);
    if (!have_first) {
      first = out;
      have_first = true;
      continue;
    }
    EXPECT_EQ(out, first) << "threads=" << threads;
  }
}

TEST(Timeline, ObservabilityChangesNoServedBit) {
  const OptDFamily family(12, 2);
  const std::vector<std::uint8_t> requests = generate_load(tiny_load());

  // Plain run: no recorder, no timeline, no metrics.
  ServiceRunner plain(family, tiny_service());
  const ServiceResult base = plain.serve(requests);

  // Everything on: recorder rings, timeline windows, metrics counters.
  RecorderScope scope;
  obs::TelemetryConfig tc = obs::current_config();
  tc.metrics = true;
  obs::configure(tc);
  ServiceConfig config = tiny_service();
  config.timeline_window_us = 250000;
  ServiceRunner instrumented(family, config);
  const ServiceResult observed = instrumented.serve(requests);
  obs::TelemetryConfig off = obs::current_config();
  off.metrics = false;
  obs::configure(off);

  EXPECT_EQ(observed.reply_fingerprint, base.reply_fingerprint);
  EXPECT_EQ(observed.reads_ok, base.reads_ok);
  EXPECT_EQ(observed.writes_ok, base.writes_ok);
  EXPECT_EQ(observed.stale_reads, base.stale_reads);
  EXPECT_EQ(observed.probes, base.probes);
  EXPECT_EQ(observed.latency_us.counts, base.latency_us.counts);
  EXPECT_EQ(observed.latency_us.sum, base.latency_us.sum);
}

}  // namespace
}  // namespace sqs
